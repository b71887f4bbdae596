"""Benchmark of svdgcl training, entered only through ``run_training``.

    python3 bench/run.py --workload s-cl --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout: the program is imported from ./src. One
invocation runs one workload in its own process. Its inputs come from
bench/datagen.py, seeded by --seed, which also sets RunConfig.seed.

A round is one ``run_training`` call (one epoch, a validation eval after
it, then the test eval of the best checkpoint) followed by the output
checks of bench/oracle.py. A run makes the workload's fixed number of
rounds. With --trace 0 they are followed by set-up probes,
``run_training`` calls stopped at their first training step, until
--seconds have passed and the probes have taken MIN_PROBE_SECONDS, and
the run reports the end-to-end metrics, medians over its probes and
rounds. With --trace 1 every round is traced, there are no probes, and
the run reports the per-layer metrics. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload, untraced then traced, each in a
fresh process, and prints a table.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

from tracer import Tracer, wrapper_cost_s  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: str  # a datagen shape spec
    config: dict  # RunConfig fields on top of ROUND_CONFIG
    rounds: int  # run_training calls per run


# one epoch per call. The rounds of a run are a fixed number, not as many as
# fit in --seconds: with 27 to 35 s s-cl rounds and 20 to 28 s m-nocl rounds
# a 50 s window held one or two of either, and a run with fewer rounds has
# fewer eval passes to take a median of
ROUND_CONFIG = {"epochs": 1, "eval_every": 1}

# set-up takes 0.5 to 0.7 s on S and 3.5 s on M, and one sample of it per
# round spread 0.3 from run to run; the median over probes is steadier, but
# the three S probes that fit in 2 s still spread 0.35
MIN_PROBE_SECONDS = 5.0

# why each workload is there: BENCHMARK.json and README.md; s-cl makes two
# rounds for four eval passes of 0.3 s, m-nocl one round of about 25 s and
# then probes for the rest of a 40 s window
WORKLOADS = {
    "s-cl": Workload("S", {}, rounds=2),
    "s-nocl": Workload("S", {"lambda1": 0.0}, rounds=5),
    "m-nocl": Workload("M", {"lambda1": 0.0, "batch_size": 16384}, rounds=1),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "eval_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "recall20": "recall",
}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import svdgcl from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "svdgcl" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {src / 'svdgcl'}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import svdgcl.harness

    if Path(svdgcl.harness.__file__).resolve().parents[1] != src:
        raise ProgramMissing(f"svdgcl was imported from {svdgcl.harness.__file__}, not from {src}")
    return svdgcl.harness


class _FirstStep(Exception):
    """Stops a set-up probe at its first training step."""


def probe_setup(harness, config: dict) -> float | None:
    """Seconds from a call into run_training to its first training step,
    where the call is stopped: for the call, ``harness.sample_batch``, the
    first thing a step does, raises. None if the program has no such name
    or the call ends without a step."""
    sample_batch = getattr(harness, "sample_batch", None)
    if sample_batch is None:
        return None

    def first_step(*args, **kwargs):
        raise _FirstStep(perf_counter())

    harness.sample_batch = first_step
    start = perf_counter()
    try:
        harness.run_training(harness.RunConfig(**config))
    except _FirstStep as stop:
        return stop.args[0] - start
    finally:
        harness.sample_batch = sample_batch
    return None


class _Stamps(logging.Handler):
    """Timestamps the records of the run logger as they are emitted."""

    def __init__(self):
        super().__init__()
        self.records: list = []

    def emit(self, record):
        self.records.append((perf_counter(), record.getMessage()))


@dataclass
class Round:
    result: object  # TrainResult
    run_s: float
    setup_s: float
    epoch_s: list
    eval_s: list
    checkpoint: str


def one_round(harness, config: dict, tracer: Tracer | None = None) -> Round:
    """One run_training call. setup_s runs from the call to the first step,
    read off the first epoch record minus that epoch's returned time; each
    eval_s is the gap between an eval record and the record before it. For
    the final test eval that gap also holds the checkpoint save and reload
    before it (under 3% of the pass on S and M)."""
    stamps = _Stamps()
    run_logger = logging.getLogger("svdgcl.run")
    run_logger.addHandler(stamps)
    cfg = harness.RunConfig(**config)
    start = perf_counter()
    try:
        if tracer is None:
            result = harness.run_training(cfg)
        else:
            result = tracer.call("harness.run_training", harness.run_training, (cfg,))
    finally:
        run_s = perf_counter() - start
        run_logger.removeHandler(stamps)
    records = stamps.records
    first_epoch = next(t for t, msg in records if msg.startswith("epoch="))
    evals = [t - t_prev for (t_prev, _), (t, msg) in zip(records, records[1:]) if msg.startswith("eval ")]
    return Round(
        result=result,
        run_s=run_s,
        setup_s=first_epoch - result.epoch_seconds[0] - start,
        epoch_s=list(result.epoch_seconds),
        eval_s=evals,
        checkpoint=result.checkpoint_path,
    )


# ---- tracing -------------------------------------------------------------


def _count(key: str, value):
    def after(tracer, out, args, kwargs):
        tracer.counts[key] += value(out, args)

    return after


def _after_objective(tracer, out, args, kwargs):
    """Count the contrast's members: the m of its m x m matrices."""
    _, batch, state, hp = args[:4]
    if hp.lambda1 <= 0:
        users = items = 0
    elif hp.cl_scope == "full-population":
        users, items = state.num_users, state.num_items
    else:
        users = np.unique(batch.users).size
        items = np.unique(np.concatenate([batch.pos_items, batch.neg_items])).size
    tracer.counts["losses.cl_users"] += users
    tracer.counts["losses.cl_items"] += items


def _capture_svd(tracer, out, args, kwargs):
    tracer.captured["svd"] = out


# (module, name, span, absorb, after): each call made through module.name
# is one span; absorbing spans keep their wrapped callees in their self time
WRAPS = [
    ("svdgcl.harness", "load_interactions", "interactions.load", False, None),
    ("svdgcl.harness", "build_adjacency", "interactions.graph", False, None),
    ("svdgcl.harness", "normalize_adjacency", "interactions.graph", False, None),
    ("svdgcl.harness", "approx_svd", "linalg.svd", True, _capture_svd),
    ("svdgcl.harness", "sample_batch", "losses.sample", False, _count("losses.triples", lambda o, a: o.size)),
    ("svdgcl.harness", "forward", "model.forward", False, None),
    ("svdgcl.model", "edge_dropout", "model.dropout", False, _count("model.edges_kept", lambda o, a: int(o[1].sum()))),
    ("svdgcl.model", "spmm", "sparse.spmm", False, None),
    ("svdgcl.model", "spmm_t", "sparse.spmm", False, None),
    ("svdgcl.model", "svd_propagate", "linalg.view", False, None),
    ("svdgcl.harness", "loss_and_grads", "losses.objective", False, _after_objective),
    ("svdgcl.losses", "spmm", "sparse.spmm", False, None),
    ("svdgcl.losses", "spmm_t", "sparse.spmm", False, None),
    ("svdgcl.losses", "svd_propagate", "linalg.view", False, None),
    ("svdgcl.harness", "adam_step", "optim.adam", False, None),
    ("svdgcl.harness", "evaluate", "metrics.evaluate", False, _count("metrics.users_evaluated", lambda o, a: o.users_evaluated)),
    ("svdgcl.metrics", "forward", "metrics.eval_forward", True, None),
    ("svdgcl.harness", "save_checkpoint", "checkpoint.save", False, _count("checkpoint.bytes", lambda o, a: os.path.getsize(a[0]))),
    ("svdgcl.harness", "load_checkpoint", "checkpoint.load", False, None),
]

# per-layer metric: (unit, span or count, divisor, scale)
LAYERS = {
    "interactions.load_s": ("s", "interactions.load", "runs", 1),
    "interactions.graph_s": ("s", "interactions.graph", "runs", 1),
    "linalg.svd_s": ("s", "linalg.svd", "runs", 1),
    "losses.sample_ms": ("ms", "losses.sample", "steps", 1e3),
    "model.dropout_ms": ("ms", "model.dropout", "steps", 1e3),
    "sparse.spmm_ms": ("ms", "sparse.spmm", "steps", 1e3),
    "linalg.view_ms": ("ms", "linalg.view", "steps", 1e3),
    "model.forward_self_ms": ("ms", "model.forward", "steps", 1e3),
    "losses.objective_self_ms": ("ms", "losses.objective", "steps", 1e3),
    "optim.adam_ms": ("ms", "optim.adam", "steps", 1e3),
    "metrics.eval_forward_s": ("s", "metrics.eval_forward", "evals", 1),
    "metrics.rank_s": ("s", "metrics.evaluate", "evals", 1),
    "checkpoint.save_ms": ("ms", "checkpoint.save", "checkpoint.save", 1e3),
    "checkpoint.load_ms": ("ms", "checkpoint.load", "checkpoint.load", 1e3),
    "harness.other_s": ("s", "harness.run_training", "runs", 1),
}
# the layers one training step is made of, for the share printed by a traced run
STEP_LAYERS = [
    "losses.sample_ms",
    "model.dropout_ms",
    "sparse.spmm_ms",
    "linalg.view_ms",
    "model.forward_self_ms",
    "losses.objective_self_ms",
    "optim.adam_ms",
]
# count: (unit, divisor)
COUNTS = {
    "losses.triples": ("count", "steps"),
    "losses.cl_users": ("count", "steps"),
    "losses.cl_items": ("count", "steps"),
    "model.edges_kept": ("count", "model.dropout"),
    "metrics.users_evaluated": ("count", "evals"),
    "checkpoint.bytes": ("B", "checkpoint.save"),
}


def install_tracer() -> Tracer:
    tracer = Tracer()
    for module, name, span, absorb, after in WRAPS:
        tracer.wrap(module, name, span, absorb, after)
    return tracer


def absent_layers(tracer: Tracer) -> list:
    """Layers whose every wrapped name is missing from the program."""
    missing = set(tracer.absent)
    spans = {}
    for module, name, span, _, _ in WRAPS:
        spans.setdefault(span, []).append(f"{module}.{name}")
    gone = {span for span, names in spans.items() if all(n in missing for n in names)}
    return sorted(metric for metric, (_, span, _, _) in LAYERS.items() if span in gone)


def layer_metrics(tracer: Tracer, call_cost_s: float) -> dict:
    """Per-layer metrics of the traced rounds. call_cost_s is what one traced
    call adds (tracer.wrapper_cost_s); the overhead is that times the calls
    per round."""
    calls = tracer.calls
    divisors = {
        "runs": calls["harness.run_training"],
        "steps": calls["losses.objective"],
        "evals": calls["metrics.evaluate"],
    }

    def per(key):
        return max(divisors.get(key, calls[key]), 1)

    out = {}
    for metric, (unit, span, divisor, scale) in LAYERS.items():
        out[metric] = (scale * tracer.self_s[span] / per(divisor), unit)
    run_s = sum(end - start for name, start, end, _ in tracer.spans if name == "harness.run_training")
    out["harness.run_s"] = (run_s / per("runs"), "s")
    out["trace.overhead_s"] = (call_cost_s * sum(calls.values()) / per("runs"), "s")
    out["harness.steps"] = (divisors["steps"] / per("runs"), "count")
    out["harness.evals"] = (divisors["evals"] / per("runs"), "count")
    out["sparse.spmm_calls"] = (calls["sparse.spmm"] / per("steps"), "count")
    for key, (unit, divisor) in COUNTS.items():
        out[key] = (tracer.counts[key] / per(divisor), unit)
    return out


# ---- a run -----------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    def check(self, what: str, fn, *args):
        """One check: fn returns None when it holds, else what is wrong."""
        try:
            problem = fn(*args)
        except Exception as exc:  # a check that cannot run has failed
            problem = f"raised {exc!r}"
        self.op(what, problem)


def make_inputs(shape: str, seed: int, out_dir: Path) -> dict:
    """Generate the pair files in a child process, so that its memory does
    not count in this process's peak."""
    subprocess.run([sys.executable, str(BENCH / "datagen.py"), shape, str(seed), str(out_dir)], check=True)
    return {name: str(out_dir / f"{name}.txt") for name in ("train", "val", "test")}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    harness = import_program()
    paths = make_inputs(workload.shape, seed, work / "data")
    base = dict(ROUND_CONFIG, train_path=paths["train"], val_path=paths["val"], test_path=paths["test"], seed=seed)
    base.update(workload.config)

    def config(i):
        return dict(base, checkpoint_dir=str(work / f"round{i}"))

    outcome = Outcome()
    setups: list = []
    rounds: list = []
    tracer = install_tracer() if trace else None

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    peak_rss_mb = None
    try:
        for i in range(workload.rounds):
            try:
                rounds.append(one_round(harness, config(i), tracer))
            except Exception:  # a failed call is a failed round, reported below
                traceback.print_exc()
                outcome.op(f"round {i}", "run_training raised")
                rounds.append(None)
            if peak_rss_mb is None:
                # the peak of one call, as `svdgcl train` makes it: the
                # allocator keeps some memory from call to call, so each
                # further call raises the peak (382, 387, 392 MB after one,
                # two, three M rounds)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes_start = perf_counter()
        while not trace and (perf_counter() - start < seconds or perf_counter() - probes_start < MIN_PROBE_SECONDS):
            try:
                setup_s = probe_setup(harness, config("probe"))
            except Exception:  # the rounds ran the same set-up without fault
                traceback.print_exc()
                outcome.problems.append(f"setup probe {len(setups)}: run_training raised")
                break
            if setup_s is None:
                break
            setups.append(setup_s)
    finally:
        if tracer is not None:
            tracer.unwrap()
    wall = perf_counter() - start
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = cpu1.ru_utime + cpu1.ru_stime - cpu0.ru_utime - cpu0.ru_stime

    # output checks, after the peak memory is read: oracle loads scipy's
    # LAPACK and ARPACK wrappers, which the program does not
    import oracle
    from svdgcl.checkpoint import load_checkpoint

    splits = oracle.Splits(paths)

    def eval_check(rnd):
        ck = load_checkpoint(rnd.checkpoint)
        return splits.check_eval(ck.state.e_user, ck.state.e_item, ck.state.layers, rnd.result.test_result)

    for i, rnd in enumerate(rounds):
        if rnd is None:
            outcome.attempted += 2
            outcome.failed += 2
            continue
        outcome.op(f"round {i}", None)
        outcome.check(f"round {i} eval oracle", eval_check, rnd)
        outcome.check(f"round {i} learning", splits.check_learning, rnd.result.test_result.recall[oracle.K])
    good = [r for r in rounds if r is not None]
    recalls = sorted({r.result.test_result.recall[oracle.K] for r in good})
    outcome.op("recall@20 equal across rounds", None if len(recalls) <= 1 else f"got {recalls}")
    if trace and harness.RunConfig(**config(0)).lambda1 > 0:
        svd = tracer.captured.get("svd")
        if svd is None:
            outcome.op("svd spectrum", "no factorization captured")
        else:
            outcome.check("svd spectrum", splits.check_spectrum, svd.s_r, seed)

    report = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "rounds": len(rounds),
        "cpu_s": cpu,
        "wall_s": wall,
        "problems": outcome.problems,
    }
    if not good:
        return report
    if trace:
        report["absent"] = absent_layers(tracer)
        report["metrics"] = layer_metrics(tracer, wrapper_cost_s())
    else:
        setups += [r.setup_s for r in good]
        evals = [e for r in good for e in r.eval_s]
        values = {
            "setup_s": statistics.median(setups),
            "epoch_s": statistics.median(e for r in good for e in r.epoch_s),
            "eval_s": statistics.median(evals) if evals else float("nan"),
            "run_s": statistics.median(r.run_s for r in good),
            "peak_rss_mb": peak_rss_mb,
            "recall20": good[0].result.test_result.recall[oracle.K],
        }
        report["metrics"] = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    return report


def print_report(name: str, report: dict, trace: bool):
    mode = "traced" if trace else "untraced"
    print(f"== {name} ({mode}): {report['rounds']} round(s), attempted {report['attempted']}, failed {report['failed']}")
    print(f"   cpu {report['cpu_s']:.2f} s over wall {report['wall_s']:.2f} s")
    for problem in report["problems"]:
        print(f"   CHECK FAILED {problem}")
    for layer in report.get("absent", []):
        print(f"   absent: {layer}")
    metrics = report.get("metrics", {})
    for metric, (value, unit) in metrics.items():
        print(f"   {metric:28s} {value:14.6f} {unit}")
    if trace and metrics:
        step = {name: metrics[name][0] for name in STEP_LAYERS}
        total = sum(step.values()) or 1.0
        print("   share of a step: " + ", ".join(f"{name} {100 * v / total:.1f}%" for name, v in step.items()))


def result_line(report: dict) -> str:
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()}
    return json.dumps(
        {"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}
    )


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(("==", "   "))]
            print("\n".join(lines), flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            combined.setdefault(name, {})[f"trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(args.workload, report, bool(args.trace))
    if "metrics" not in report:
        print("error: no round completed", file=sys.stderr)
        return 1
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
