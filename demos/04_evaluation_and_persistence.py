"""Checkpoints, bit-exact resumption, and what the metrics measure.

A short training run saves its best snapshot; reloading it reproduces
the evaluation exactly, byte for byte, because the snapshot carries both
embedding tables, the full optimizer state, and the training RNG's
position. The second half scores the snapshot with evaluate and then
unpacks recall and NDCG on one user by hand.
"""

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from svdgcl.checkpoint import load_checkpoint
from svdgcl.harness import RunConfig, run_eval, run_training
from svdgcl.interactions import build_adjacency, load_interactions, normalize_adjacency
from svdgcl.metrics import evaluate
from svdgcl.model import forward
from svdgcl.synth import generate_blocks

work = Path(tempfile.mkdtemp(prefix="svdgcl_demo_"))
try:
    paths = generate_blocks(work / "data", 20, 20, 2, noise_p=0.0, seed=3)
    cfg = RunConfig(
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
        val_path=str(paths["val"]),
        embed_dim=16,
        epochs=30,
        eval_every=5,
        eval_ks=[5],
        checkpoint_dir=str(work / "ckpt"),
    )
    print("== train briefly ==")
    result = run_training(cfg)

    print()
    print("== reload the snapshot and evaluate again ==")
    replay = run_eval(cfg, result.checkpoint_path)
    same = replay.recall == result.test_result.recall
    print(f"metrics identical after reload: {same}")

    print()
    print("== what is inside the file ==")
    ck = load_checkpoint(result.checkpoint_path)
    print(f"tables: users {ck.state.e_user.shape}, items {ck.state.e_item.shape}")
    print(f"optimizer step count: {ck.opt.step}")
    print(f"config digest: {ck.config_digest[:16]}...")

    print()
    print("== the metrics, from evaluate ==")
    ds = load_interactions(paths["train"], paths["test"], paths["val"])
    a = normalize_adjacency(build_adjacency(ds))
    res = evaluate(ck.state, a, None, ds, [5])
    print(f"recall@5 = {res.recall[5]:.4f}, ndcg@5 = {res.ndcg[5]:.4f} over {res.users_evaluated} test users")
    print(f"same as the reload's numbers: {res == replay}")

    print()
    print("== one user, by hand ==")
    trace = forward(ck.state, a)
    u = 0
    scores = trace.final_user[u] @ trace.final_item.T

    def items_of(split):
        # a split's pair keys are user * num_items + item, ascending, with per-user offsets
        keys, offsets = ds.pair_index(split)
        return keys[offsets[u] : offsets[u + 1]] % ds.num_items

    # train items never rank; a stable sort breaks ties toward the lower index
    scores[items_of("train")] = -np.inf
    top = np.argsort(-scores, kind="stable")[:5]
    relevant = set(items_of("test").tolist())
    print(f"user {u} holds out {sorted(relevant)}; top-5 after masking: {top.tolist()}")
    hits = [p for p, item in enumerate(top.tolist()) if item in relevant]
    ideal = sum(1.0 / math.log2(p + 2) for p in range(min(5, len(relevant))))
    print(f"recall@5 = {len(hits) / len(relevant):.2f}")
    print(f"ndcg@5   = {sum(1.0 / math.log2(p + 2) for p in hits) / ideal:.3f} (a hit at position p earns 1/log2(p+2))")
    if hits:
        print(f"here the first hit sits at position {hits[0]}, worth {1.0 / math.log2(hits[0] + 2):.3f}")
    print("evaluate averages these per-user numbers over every user with test items")
finally:
    shutil.rmtree(work, ignore_errors=True)
