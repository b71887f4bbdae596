"""Tests of the benchmark itself, on a tiny shape.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

import datagen
import oracle
import run

harness = run.import_program()

from svdgcl.checkpoint import load_checkpoint  # noqa: E402
from svdgcl.interactions import build_adjacency, load_interactions, normalize_adjacency  # noqa: E402
from svdgcl.metrics import evaluate  # noqa: E402
from svdgcl.model import ModelState  # noqa: E402

TINY = "20,60,3,0.02"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Tiny pair files and the checkpoint of a three-epoch run on them."""
    work = tmp_path_factory.mktemp("tiny")
    paths = datagen.write_dataset(work / "data", datagen.parse_shape(TINY), seed=7)
    cfg = harness.RunConfig(
        train_path=paths["train"], val_path=paths["val"], test_path=paths["test"],
        epochs=3, eval_every=1, batch_size=256, seed=7, checkpoint_dir=str(work / "ck"),
    )
    result = harness.run_training(cfg)
    ds = load_interactions(paths["train"], paths["test"], paths["val"])
    return paths, ds, load_checkpoint(result.checkpoint_path), result


def _program_eval(ds, e_user, e_item, layers):
    state = ModelState(e_user=e_user, e_item=e_item, layers=layers, embed_dim=e_user.shape[1], rng=None)
    return evaluate(state, normalize_adjacency(build_adjacency(ds)), None, ds, [20], split="test")


def test_datagen_is_a_function_of_the_seed():
    shape = datagen.parse_shape(TINY)
    a, b, c = datagen.generate(shape, 3), datagen.generate(shape, 3), datagen.generate(shape, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_oracle_agrees_with_evaluate(trained):
    paths, ds, ck, result = trained
    splits = oracle.Splits(paths)
    assert splits.check_eval(ck.state.e_user, ck.state.e_item, ck.state.layers, result.test_result) is None
    # and on untrained tables, where scores are far from the trained ones
    rng = np.random.default_rng(0)
    e_user, e_item = rng.normal(size=ck.state.e_user.shape), rng.normal(size=ck.state.e_item.shape)
    assert splits.check_eval(e_user, e_item, 2, _program_eval(ds, e_user, e_item, 2)) is None


def test_oracle_rejects_a_permuted_item_table(trained):
    paths, ds, ck, result = trained
    splits = oracle.Splits(paths)
    perm = np.random.default_rng(1).permutation(ck.state.e_item.shape[0])
    wrong = _program_eval(ds, ck.state.e_user, ck.state.e_item[perm], ck.state.layers)
    assert splits.check_eval(ck.state.e_user, ck.state.e_item, ck.state.layers, wrong) is not None


def test_oracle_spectrum_check_rejects_a_wrong_spectrum(trained):
    paths = trained[0]
    splits = oracle.Splits(paths)
    exact = oracle.reference_spectrum(splits.a_norm, 3, seed=0)
    assert math.isclose(exact[0], 1.0, rel_tol=1e-9)
    assert splits.check_spectrum(exact, seed=1) is None
    assert splits.check_spectrum(exact * (1 + 1e-4), seed=1) is not None


def test_span_self_times_and_other_add_up_to_run_s(trained, tmp_path):
    paths = trained[0]
    config = dict(
        train_path=paths["train"], val_path=paths["val"], test_path=paths["test"],
        epochs=2, eval_every=1, batch_size=256, seed=7, checkpoint_dir=str(tmp_path),
    )
    originals = {(m, n): getattr(importlib.import_module(m), n) for m, n, *_ in run.WRAPS}
    tracer = run.install_tracer()
    try:
        rnd = run.one_round(harness, config, tracer)
    finally:
        tracer.unwrap()
    assert tracer.absent == []
    root = [s for s in tracer.spans if s[0] == "harness.run_training"]
    assert len(root) == 1
    root_s = root[0][2] - root[0][1]
    assert math.isclose(tracer.total_self_s(), root_s, rel_tol=1e-9)
    metrics = run.layer_metrics(tracer, 1e-6)
    divisors = {"runs": 1, "steps": tracer.calls["losses.objective"], "evals": tracer.calls["metrics.evaluate"]}
    rebuilt = sum(
        metrics[name][0] / scale * divisors.get(div, tracer.calls[div])
        for name, (_, _, div, scale) in run.LAYERS.items()
    )
    assert math.isclose(rebuilt, metrics["harness.run_s"][0], rel_tol=1e-9)
    assert math.isclose(metrics["harness.run_s"][0], root_s, rel_tol=1e-9) and root_s <= rnd.run_s
    assert math.isclose(metrics["trace.overhead_s"][0], 1e-6 * sum(tracer.calls.values()), rel_tol=1e-9)
    assert tracer.calls["losses.objective"] == metrics["harness.steps"][0] > 0
    assert all(getattr(importlib.import_module(m), n) is f for (m, n), f in originals.items())


def test_a_missing_wrapped_function_is_reported_absent(monkeypatch):
    import svdgcl.harness

    monkeypatch.delattr(svdgcl.harness, "adam_step")
    tracer = run.install_tracer()
    try:
        assert "svdgcl.harness.adam_step" in tracer.absent
        assert run.absent_layers(tracer) == ["optim.adam_ms"]
        metrics = run.layer_metrics(tracer, 1e-6)
        assert metrics["optim.adam_ms"][0] == 0.0
    finally:
        tracer.unwrap()


def test_a_setup_probe_stops_at_the_first_step(trained, tmp_path):
    paths = trained[0]
    config = dict(
        train_path=paths["train"], val_path=paths["val"], test_path=paths["test"],
        epochs=2, eval_every=1, batch_size=256, seed=7, checkpoint_dir=str(tmp_path / "ck"),
    )
    sample_batch = harness.sample_batch
    setup_s = run.probe_setup(harness, config)
    assert harness.sample_batch is sample_batch
    assert not (tmp_path / "ck").exists()  # stopped before any checkpoint
    assert setup_s is not None and 0 < setup_s < run.one_round(harness, config).run_s


def test_wrapper_cost_is_positive_and_small():
    assert 0 < run.wrapper_cost_s(calls=2000, repeats=3) < 1e-3
