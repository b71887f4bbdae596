"""Train the full model on generated block-community data.

Two communities of users, each loyal to its own item neighborhood, plus
a sprinkle of cross-community noise. The run shows the complete loop:
ranking loss with sampled negatives, the two-view contrastive term
against the low-rank reconstructed graph, hand-written gradients, Adam,
early stopping on validation recall, and a final test-split evaluation
compared against the popularity baseline.
"""

import shutil
import tempfile
from pathlib import Path

from svdgcl.harness import RunConfig, run_training
from svdgcl.interactions import load_interactions
from svdgcl.metrics import evaluate_popularity
from svdgcl.synth import generate_blocks

work = Path(tempfile.mkdtemp(prefix="svdgcl_demo_"))
try:
    print("== generate two blocks of 30 users x 30 items ==")
    paths = generate_blocks(work / "data", 30, 30, 2, noise_p=0.05, seed=7)
    ds = load_interactions(paths["train"], paths["test"], paths["val"])

    print()
    print("== the naive yardstick: rank by global popularity ==")
    pop = evaluate_popularity(ds, ks=[5])
    print(f"popularity recall@5 = {pop.recall[5]:.3f}")

    print()
    print("== train with the contrastive branch on ==")
    cfg = RunConfig(
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
        val_path=str(paths["val"]),
        epochs=60,
        eval_every=5,
        eval_ks=[5],
        checkpoint_dir=str(work / "ckpt"),
    )
    result = run_training(cfg)

    print()
    print("== outcome ==")
    r = result.test_result.recall[5]
    print(f"model recall@5 = {r:.3f} vs popularity {pop.recall[5]:.3f}")
    print(f"best validation epoch: {result.best_epoch}, epochs run: {len(result.epoch_seconds)}")
    print(f"mean epoch time: {sum(result.epoch_seconds) / len(result.epoch_seconds):.3f}s")
    print(f"best checkpoint: {result.checkpoint_path}")
finally:
    shutil.rmtree(work, ignore_errors=True)
