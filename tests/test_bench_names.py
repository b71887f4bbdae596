"""The benchmark's tracer patches module-level names of the program.

bench/run.py reports a traced name the program no longer has as "absent"
and carries on, so a refactor that deletes or renames one would pass
silently there. Here every such name must resolve. The file is loaded by
path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
