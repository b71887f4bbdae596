"""The benchmark's tracer patches module-level names of the program.

bench/run.py reports a traced name the program no longer has as "absent"
and carries on, so a refactor that deletes or renames one would pass
silently there. Here every such name must resolve. The file is loaded by
path and only read. The tracer keeps one span stack, so every such name
must also run on the main thread only.
"""

import functools
import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from svdgcl.harness import RunConfig, run_training
from svdgcl.synth import generate_blocks

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def load_wraps():
    saved_path, saved_tracer = list(sys.path), sys.modules.get("tracer")
    spec = importlib.util.spec_from_file_location("_bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while it runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return [(mod, name) for mod, name, *_ in module.WRAPS]
    finally:
        sys.modules.pop(spec.name, None)
        sys.path[:] = saved_path
        if saved_tracer is None:
            sys.modules.pop("tracer", None)
        else:
            sys.modules["tracer"] = saved_tracer


# the set-up probes replace harness.sample_batch for the length of a call
TRACED = sorted(set(load_wraps()) | {("svdgcl.harness", "sample_batch")})


def test_wraps_are_read():
    assert ("svdgcl.model", "spmm") in TRACED and len(TRACED) > 10


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name} is gone"


def test_traced_names_run_on_the_main_thread(tmp_path, monkeypatch):
    # a traced name called from spmm_pair's worker thread would open a span
    # on the tracer's one stack while the main thread has one open
    threads = []

    def recording(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            threads.append(threading.current_thread())
            return fn(*args, **kwargs)

        return call

    for module, name in TRACED:
        target = importlib.import_module(module)
        monkeypatch.setattr(target, name, recording(getattr(target, name)))
    paths = generate_blocks(tmp_path / "d", 10, 10, 2, 0.05, 1)
    run_training(
        RunConfig(
            train_path=paths["train"], test_path=paths["test"], val_path=paths["val"], checkpoint_dir=tmp_path / "ck",
            embed_dim=8, epochs=2, eval_every=1, batch_size=64, eval_ks=[3], lambda1=0.1, svd_rank=2,
        )
    )
    assert len(threads) > 50
    assert set(threads) == {threading.main_thread()}
