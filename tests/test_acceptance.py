"""Acceptance gate for the package.

Each test checks one numbered criterion at its pinned tolerance and
prints exactly one PASS / FAIL / SKIP line (bypassing capture) so the
run's verdict is readable straight off the terminal. The two criteria
that need the public MovieLens-100K ratings skip loudly when the data
is not present in this environment; everything else runs everywhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.sparse import csr_array

from svdgcl.datasets import locate_movielens_100k, prepare_movielens_100k
from svdgcl.harness import RunConfig, run_training
from svdgcl.interactions import (
    InteractionDataset,
    build_adjacency,
    load_interactions,
    normalize_adjacency,
)
from svdgcl.linalg import SvdFactors, approx_svd, exact_svd_dense, svd_propagate
from svdgcl.losses import loss_and_grads, sample_batch
from svdgcl.metrics import _ranked_metrics, evaluate_popularity
from svdgcl.model import HyperParams, forward, init_model
from svdgcl.synth import TRAIN_WINDOW, generate_blocks
from tests.util import infonce_loss, one_user_dataset


def announce(capsys, number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {verdict} {detail}")
    assert ok, f"criterion {number}: {detail}"


def announce_skip(capsys, number, reason):
    with capsys.disabled():
        print(f"criterion {number}: SKIP {reason}")
    pytest.skip(reason)


def sparse_from_dense(d):
    r, c = np.nonzero(d)
    return csr_array((d[r, c], (r, c)), shape=d.shape)


def block_rank_matrix(rng, rows, cols, rank):
    """Exact-rank construction: disjoint rank-one blocks, genuinely sparse."""
    d = np.zeros((rows, cols))
    rb, cb = rows // rank, cols // rank
    for b in range(rank):
        u = rng.standard_normal(rb) + 3.0
        v = rng.standard_normal(cb) + 3.0
        d[b * rb:(b + 1) * rb, b * cb:(b + 1) * cb] = (5.0 - 0.15 * b) * np.outer(u, v)
    return d


def tiny_4x5_dataset():
    train = []
    for u in range(4):
        for j in range(3):
            train.append((u, (u + j) % 5))
    test = [(u, (u + 3) % 5) for u in range(4)]
    return InteractionDataset(
        num_users=4,
        num_items=5,
        train=np.array(train, dtype=np.int64),
        validation=np.empty((0, 2), dtype=np.int64),
        test=np.array(test, dtype=np.int64),
        user_id_map={f"u{u}": u for u in range(4)},
        item_id_map={f"i{i}": i for i in range(5)},
    )


def test_criterion_01_randomized_svd_fidelity(capsys):
    rng = np.random.default_rng(420)
    dense = block_rank_matrix(rng, 500, 400, 20)
    a = sparse_from_dense(dense)
    t0 = time.perf_counter()
    factors = approx_svd(a, 20, oversample=8, power_iters=4, seed=0)
    elapsed = time.perf_counter() - t0
    norm = np.linalg.norm(dense)
    rel = np.linalg.norm(dense - factors.reconstruct()) / norm
    exact = exact_svd_dense(dense)
    best = SvdFactors(exact.u_r[:, :20], exact.s_r[:20], exact.v_r[:, :20], 20)
    rel_oracle = np.linalg.norm(dense - best.reconstruct()) / norm
    ok = rel < 1e-6 and elapsed < 5.0
    announce(
        capsys, 1, ok,
        f"rel_err={rel:.3e} (oracle best {rel_oracle:.3e}, bound 1e-6) time={elapsed:.2f}s (bound 5s)",
    )


def test_criterion_02_factored_propagation_equivalence(capsys):
    rng = np.random.default_rng(421)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        m = int(rng.integers(2, 101))
        width = int(rng.integers(1, min(n, m, 8) + 1))
        dense = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.3)
        if not dense.any():
            dense[0, 0] = 1.0
        f = exact_svd_dense(dense)
        trunc = SvdFactors(f.u_r[:, :width], f.s_r[:width], f.v_r[:, :width], width)
        recon = trunc.reconstruct()
        h_items = rng.standard_normal((m, int(rng.integers(1, 7))))
        h_users = rng.standard_normal((n, h_items.shape[1]))
        worst = max(
            worst,
            np.abs(svd_propagate(trunc, h_items, "user") - recon @ h_items).max(),
            np.abs(svd_propagate(trunc, h_users, "item") - recon.T @ h_users).max(),
        )
    ok = worst < 1e-10
    announce(capsys, 2, ok, f"100 instances, worst abs diff={worst:.3e} (bound 1e-10)")


def test_criterion_03_gradient_correctness(capsys):
    t0 = time.perf_counter()
    ds = tiny_4x5_dataset()
    a = normalize_adjacency(build_adjacency(ds))
    hp = HyperParams(
        embed_dim=3, layers=2, svd_rank=2, dropout_p=0.25,
        lambda1=0.2, lambda2=1e-5, seed=420,
    )
    state = init_model(ds, hp)
    svd = approx_svd(a, hp.svd_rank, oversample=2, power_iters=2, seed=0)
    batch = sample_batch(ds, 8, np.random.default_rng(0))
    # every forward draws its dropout masks from a generator seeded alike
    trace = forward(state, a, hp=hp, rng=np.random.default_rng(420))
    _, gu, gi = loss_and_grads(trace, batch, state, hp, svd)

    def loss_at():
        t = forward(state, a, hp=hp, rng=np.random.default_rng(420))
        return loss_and_grads(t, batch, state, hp, svd)[0].total

    h = 1e-5
    worst = 0.0
    for table, grad in ((state.e_user, gu), (state.e_item, gi)):
        flat, gflat = table.ravel(), grad.ravel()
        for idx in range(flat.shape[0]):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_at()
            flat[idx] = keep - h
            down = loss_at()
            flat[idx] = keep
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    announce(
        capsys, 3, ok,
        f"worst rel err={worst:.3e} (bound 1e-4) over every coordinate, time={elapsed:.1f}s (bound 60s)",
    )


def test_criterion_04_loss_identities(capsys):
    from tests.util import tiny_dataset

    ds = tiny_dataset()
    a = normalize_adjacency(build_adjacency(ds))
    hp = HyperParams(embed_dim=6, layers=2, svd_rank=2, dropout_p=0.0, lambda1=0.3, seed=4)
    state = init_model(ds, hp)
    svd = approx_svd(a, 2, oversample=2, power_iters=2, seed=4)
    trace = forward(state, a, hp=hp)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        batch = sample_batch(ds, int(rng.integers(2, 33)), rng)
        rep = loss_and_grads(trace, batch, state, hp, svd)[0]
        recombined = (
            rep.rec_loss
            + hp.lambda1 * (rep.cl_loss_user + rep.cl_loss_item)
            + hp.lambda2 * rep.reg_loss
        )
        worst = max(worst, abs(rep.total - recombined))
    closed_worst = 0.0
    for layers in (1, 2, 3):
        for m in (2, 5, 9):
            vec = rng.standard_normal(4)
            z = np.tile(vec, (m, 1))
            got = infonce_loss([z] * layers, [z] * layers, np.arange(m), tau=0.8)
            closed_worst = max(closed_worst, abs(got - layers * math.log(m)))
    ok = worst <= 1e-10 and closed_worst <= 1e-9
    announce(
        capsys, 4, ok,
        f"1000 batches, worst decomposition gap={worst:.3e} (bound 1e-10); "
        f"identical-view gap={closed_worst:.3e} (bound 1e-9)",
    )


def test_criterion_05_metric_oracles(capsys):
    # each instance is one user whose masked set is its train split and whose
    # relevant set is its validation split, ranked by the blocked eval engine
    rng = np.random.default_rng(423)
    worst = 0.0
    monotone = True
    for _ in range(200):
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 6, size=n).astype(float) + rng.random(n) * (rng.random() < 0.5)
        masked = set(rng.choice(n, size=int(rng.integers(0, n // 3 + 1)), replace=False).tolist())
        avail = n - len(masked)
        # an unused draw, kept so that the relevant sets drawn after it stay
        # the seed-423 ones; every cutoff from 1 to avail is checked
        rng.integers(1, avail + 1)
        pool = [i for i in range(n) if i not in masked]
        rel = set(rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False).tolist())
        ds = one_user_dataset(n, masked, rel)
        got = _ranked_metrics(ds, range(1, avail + 1), lambda lo, hi: scores[None, :].copy(), split="val")
        brute = sorted(pool, key=lambda i: (-scores[i], i))
        for k in range(1, avail + 1):
            want_r = len(set(brute[:k]) & rel) / len(rel)
            gain = sum(1.0 / math.log2(p + 2) for p, i in enumerate(brute[:k]) if i in rel)
            ideal = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(rel))))
            worst = max(worst, abs(got.recall[k] - want_r), abs(got.ndcg[k] - gain / ideal))
        vals = [got.recall[k] for k in range(1, avail + 1)]
        monotone = monotone and all(b >= a for a, b in zip(vals, vals[1:]))
    ok = worst < 1e-12 and monotone
    announce(
        capsys, 5, ok,
        f"200 instances through the eval engine, worst metric error={worst:.3e} (bound 1e-12), "
        f"recall monotone in K: {monotone}",
    )


def test_criterion_06_end_to_end_learning(capsys, tmp_path):
    paths = generate_blocks(tmp_path / "blocks", 50, 50, 2, 0.05, 42)
    ds = load_interactions(paths["train"], paths["test"], paths["val"])
    pop = evaluate_popularity(ds, [5]).recall[5]
    cfg = RunConfig(
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
        val_path=str(paths["val"]),
        eval_ks=[5],
        checkpoint_dir=str(tmp_path / "ck"),
    )
    t0 = time.perf_counter()
    res = run_training(cfg)
    elapsed = time.perf_counter() - t0
    recall = res.test_result.recall[5]
    ratio = recall / pop if pop > 0 else float("inf")
    ok = recall >= 0.9 and ratio >= 2.0 and res.epochs_run <= 200 and elapsed < 120.0
    announce(
        capsys, 6, ok,
        f"recall@5={recall:.3f} (bound 0.9), popularity={pop:.3f} ratio={ratio:.1f} (bound 2x), "
        f"epochs={res.epochs_run} (bound 200), time={elapsed:.1f}s (bound 120s)",
    )


def test_criterion_07_contrastive_ablation(capsys, tmp_path):
    items = 50
    noise_p = 0.2 * round(TRAIN_WINDOW * items) / items
    means = {}
    for lam in (0.2, 0.0):
        vals = []
        for seed in range(5):
            paths = generate_blocks(tmp_path / f"n{lam}_{seed}", 50, items, 2, noise_p, seed)
            cfg = RunConfig(
                train_path=str(paths["train"]),
                test_path=str(paths["test"]),
                val_path=str(paths["val"]),
                eval_ks=[5],
                lambda1=lam,
                seed=seed,
                checkpoint_dir=str(tmp_path / f"ck{lam}_{seed}"),
            )
            vals.append(run_training(cfg).test_result.recall[5])
        means[lam] = float(np.mean(vals))
    ok = means[0.2] >= means[0.0]
    announce(
        capsys, 7, ok,
        f"mean recall@5 over 5 seeds on the noisy task: contrast on (0.2) {means[0.2]:.4f} "
        f"vs off {means[0.0]:.4f} (directional bound: on >= off)",
    )


def test_criterion_08_public_dataset(capsys, tmp_path):
    src = locate_movielens_100k()
    if src is None:
        announce_skip(
            capsys, 8,
            "MovieLens-100K not present (no network egress here); place u.data under "
            "data/ml-100k/ or point SVDGCL_ML100K at it to enable",
        )
    paths = prepare_movielens_100k(src, tmp_path / "ml", seed=42, ratios=(0.8, 0.1, 0.1))
    ds = load_interactions(paths["train"], paths["test"], paths["val"])
    pop = evaluate_popularity(ds, [20]).recall[20]
    cfg = RunConfig(
        train_path=str(paths["train"]),
        test_path=str(paths["test"]),
        val_path=str(paths["val"]),
        checkpoint_dir=str(tmp_path / "ml_ck"),
    )
    t0 = time.perf_counter()
    res = run_training(cfg)
    elapsed = time.perf_counter() - t0
    recall = res.test_result.recall[20]
    lift = (recall - pop) / pop if pop > 0 else float("inf")
    ok = lift >= 0.2 and elapsed < 1800.0
    announce(
        capsys, 8, ok,
        f"recall@20={recall:.4f} vs popularity {pop:.4f}, relative lift={lift:.1%} (bound 20%), "
        f"time={elapsed:.0f}s (bound 1800s)",
    )


def test_criterion_09_determinism_and_persistence(capsys, tmp_path):
    """Identical config and seed give identical logs, and a checkpoint
    reload reproduces the metrics bit for bit. The checkpoint's config
    digest identifies the hyperparameters, not the data: it leaves the
    paths out, so the same data in another directory gives the same
    checkpoint bytes."""

    def cfg(name, log):
        paths = generate_blocks(tmp_path / name, 50, 50, 2, 0.05, 42)
        return RunConfig(
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
            val_path=str(paths["val"]),
            epochs=30,
            eval_ks=[5],
            checkpoint_dir=str(tmp_path / f"{name}_ck"),
            log_path=str(log),
        )

    log_a, log_b = tmp_path / "a.log", tmp_path / "b.log"
    cfg_a = cfg("da", log_a)
    res_a = run_training(cfg_a)
    res_b = run_training(cfg("db", log_b))
    logs_equal = log_a.read_bytes() == log_b.read_bytes()
    from svdgcl.harness import run_eval

    replay = run_eval(cfg_a, res_a.checkpoint_path)
    metrics_equal = (
        replay.recall == res_a.test_result.recall and replay.ndcg == res_a.test_result.ndcg
    )
    ok = logs_equal and metrics_equal
    announce(
        capsys, 9, ok,
        f"log streams identical: {logs_equal}; checkpoint round-trip metrics bit-exact: {metrics_equal}",
    )


def test_criterion_10_efficiency_premise(capsys, tmp_path):
    # the factorize-once half holds on any run; verify it on the block task
    paths = generate_blocks(tmp_path / "blocks", 30, 30, 2, 0.05, 1)

    def run(lam, epochs):
        cfg = RunConfig(
            train_path=str(paths["train"]),
            test_path=str(paths["test"]),
            val_path=str(paths["val"]),
            epochs=epochs,
            eval_ks=[5],
            lambda1=lam,
            checkpoint_dir=str(tmp_path / f"ck{lam}"),
        )
        return run_training(cfg)

    res_on = run(0.05, 10)
    res_off = run(0.0, 10)
    once_ok = res_on.svd_runs == 1 and res_off.svd_runs == 0

    src = locate_movielens_100k()
    if src is None:
        if not once_ok:
            announce(capsys, 10, False, f"factorization ran {res_on.svd_runs} times (expected 1)")
        announce_skip(
            capsys, 10,
            "factorize-once verified on the block task; the per-epoch timing bound is pinned "
            "to MovieLens-100K, which is not present (no network egress here); place u.data "
            "under data/ml-100k/ or set SVDGCL_ML100K to enable",
        )
    ml = prepare_movielens_100k(src, tmp_path / "ml", seed=42, ratios=(0.8, 0.1, 0.1))

    def run_ml(lam):
        cfg = RunConfig(
            train_path=str(ml["train"]),
            test_path=str(ml["test"]),
            val_path=str(ml["val"]),
            epochs=5,
            lambda1=lam,
            checkpoint_dir=str(tmp_path / f"mlck{lam}"),
        )
        return run_training(cfg)

    with_branch = run_ml(0.05)
    without = run_ml(0.0)
    t_on = float(np.mean(with_branch.epoch_seconds))
    t_off = float(np.mean(without.epoch_seconds))
    ratio = t_on / t_off
    ok = once_ok and with_branch.svd_runs == 1 and without.svd_runs == 0 and ratio < 2.0
    announce(
        capsys, 10, ok,
        f"factorizations: {with_branch.svd_runs} with branch, {without.svd_runs} without; "
        f"per-epoch {t_on:.3f}s vs {t_off:.3f}s, ratio={ratio:.2f} (bound 2x)",
    )
