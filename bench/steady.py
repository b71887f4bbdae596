"""Steadiness check: every workload in two interleaved sets of runs.

    python3 bench/steady.py --runs 10

Run i of both sets uses seed i + 1; which set goes first alternates from
one i to the next. For each workload and end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over the
median) and the drift of set B's median from set A's in the worse
direction, and whether both stay within the metric's bound in
BENCHMARK.json.
It also checks that the share of failed operations is the same in both
sets and that recall20 is the same for a seed in both sets. Every run's
result line is written to bench/_work/steady-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(spec: dict, results: dict) -> bool:
    ok = True
    for workload in results:
        print(f"== {workload}")
        sets = results[workload]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        same_share = shares[0] == shares[1]
        ok &= same_share
        print(f"   failed share A {shares[0]:.6f}  B {shares[1]:.6f}  {'same' if same_share else 'DIFFERENT'}")
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            stats = []
            for runs in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                stats.append((q1, med, q3, (q3 - q1) / med))
            drift = (stats[1][1] - stats[0][1]) / stats[0][1] * (1 if lower else -1)
            verdict = max(s[3] for s in stats) <= bound and drift <= bound
            ok &= verdict
            cols = "  ".join(f"{label} {med:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                             for label, (q1, med, q3, sp) in zip("AB", stats))
            print(f"   {name:12s} {cols}  drift {drift:+.3f}  bound {bound}  {'ok' if verdict else 'OUT'}")
        recall_same = all(
            a["metrics"]["recall20"]["value"] == b["metrics"]["recall20"]["value"] for a, b in zip(*sets)
        )
        ok &= recall_same
        print(f"   recall20 same per seed in both sets: {recall_same}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all in BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results = {name: ([], []) for name in names}
    for i in range(args.runs):
        seed = i + 1
        for set_index in ((0, 1) if i % 2 == 0 else (1, 0)):
            for name in names:
                result = one_run(name, seed, spec["run_seconds"])
                results[name][set_index].append(result)
                print(f"run {i} set {'AB'[set_index]} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    out = BENCH / "_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    ok = summarize(spec, results)
    print(f"steady: {'yes' if ok else 'no'} (raw results in {out.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
