#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady its metrics are.

    python3 perfbench/steady.py                      # 10 seeds per workload
    python3 perfbench/steady.py --workloads pair_angles --runs 5 --first-seed 101

Runs the command in BENCHMARK.json once per seed, one run at a time, and
prints for every end-to-end metric its median, first and third quartile, the
spread (q3 - q1) / median, and the metric's bound.  A spread should stay
below a third of the bound.  With ``--trace-runs N`` each workload also gets N
traced runs, and the difference between the traced and the untraced medians
of the in-process throughputs is printed as the tracing overhead.  All
results are saved under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    result["seed"] = seed
    return result


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(spec: dict, workload: str, runs: list) -> dict:
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\n{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}, "
          f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s per run, "
          f"correct {all(r['correct'] for r in runs)}, failed shares {sorted(shares)}")
    print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
        spread = (q3 - q1) / median
        flag = "" if spread <= metric["bound"] / 3 else "  above a third of the bound"
        print(f"  {name:24} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{metric['bound']:6.3f}{flag}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma separated workloads (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args(argv)

    saved = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        entry = {"runs": runs, "summary": summarize(spec, workload, runs)}
        if args.trace_runs:
            traced = [run_once(spec, workload, seed, 1) for seed in seeds[:args.trace_runs]]
            entry["traced_runs"] = traced
            for name in ("verify_contexts_per_s", "angle_float_per_s", "angle_exact_per_s"):
                untraced = entry["summary"][name]["median"]
                with_spans = statistics.median(r["metrics"]["traced." + name]["value"]
                                               for r in traced)
                print(f"  tracing overhead on {name}: "
                      f"{100.0 * (untraced - with_spans) / untraced:+.2f}% "
                      f"({len(traced)} traced runs)")
        saved["workloads"][workload] = entry
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(f"\nresults saved to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
