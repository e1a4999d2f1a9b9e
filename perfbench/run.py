#!/usr/bin/env python3
"""Run one tribary benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload pair_angles --seed 1 --seconds 32 --trace 0

Every run measures all three phases: ``verify`` (run_fuzz plus its JSON
report), ``angles`` (cos_angle_at_circumcenter in float and exact arithmetic)
and ``cli`` (fresh-interpreter ``python -m tribary.cli`` calls), so that every
run reports every end-to-end metric.  A workload is a time-share mix of the
three: its own phase gets most of the time, and the rounds of all phases are
interleaved over the whole run.  Set-up time, the median of fresh-interpreter
``import tribary.cli`` runs, is sampled the same way.

With ``--trace 1`` the same phases run with spans around the benchmark's
calls into the library, followed by direct per-layer timings, and the run
prints the per-layer metrics instead; spans and counters are written to
``perfbench/out/``.  Exit status is 0 with a result line, or non-zero with no
result when the library is missing or cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Share of the run's time each phase gets, per workload.
MIXES = {
    "fuzz_verify": {"setup": 0.05, "verify": 0.5, "angles": 0.15, "cli": 0.3},
    "pair_angles": {"setup": 0.05, "verify": 0.15, "angles": 0.5, "cli": 0.3},
    "cli_oneshot": {"setup": 0.04, "verify": 0.12, "angles": 0.12, "cli": 0.72},
}
# Fewest rounds of each phase in a run.  cli_oneshot needs 40 cli rounds
# (200 calls) so that ten calls lie beyond its p95, which can take longer
# than --seconds.  Elsewhere the cli phase has some 70 calls, so its p95 has
# only three beyond it; the tail of record is the one on cli_oneshot.
MIN_ROUNDS = {"setup": 7, "verify": 3, "angles": 3, "cli": 6}
CLI_ONESHOT_MIN_ROUNDS = 40

UNITS = {
    "setup_s": "s",
    "verify_contexts_per_s": "contexts/s",
    "angle_float_per_s": "reports/s",
    "angle_exact_per_s": "reports/s",
    "cli_call_p50_ms": "ms",
    "cli_call_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
TRACED = ("verify_contexts_per_s", "angle_float_per_s", "angle_exact_per_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb(workload: str) -> float:
    """ru_maxrss in MB of the process that does the workload's work: the
    benchmark process itself, or for cli_oneshot its largest child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tribary" / "__init__.py").is_file():
        print(f"error: no tribary sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import workloads as wl
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    tally = wl.Tally()
    for problem in reference.self_test():
        tally.mismatch("reference self-test: " + problem)

    try:
        setup = wl.SetupPhase(tracer, SRC)
    except subprocess.CalledProcessError:
        print("error: `import tribary.cli` fails in a fresh interpreter", file=sys.stderr)
        return 2
    phases = {
        "setup": setup,
        "verify": wl.VerifyPhase(args.seed, tracer, tally),
        "angles": wl.AnglesPhase(args.seed, tracer, tally),
        "cli": wl.CliPhase(args.seed, tracer, tally, SRC),
    }
    least = dict(MIN_ROUNDS)
    if args.workload == "cli_oneshot":
        least["cli"] = CLI_ONESHOT_MIN_ROUNDS
    mix = {name: (phase, MIXES[args.workload][name], least[name])
           for name, phase in phases.items()}
    with tracer.span("mix"):
        wl.run_mix(mix, args.seconds)
    values = {"peak_rss_mb": peak_rss_mb(args.workload)}
    for phase in phases.values():
        values.update(phase.metrics())

    if args.trace:
        import layers
        metrics = {f"traced.{name}": (values[name], UNITS[name]) for name in TRACED}
        metrics.update(layers.kernel_centers_blundon_oracle(args.seed, tracer))
        metrics.update(layers.verify_layers(args.seed, tracer))
        metrics.update(layers.cli_layers(args.seed, tracer, setup.seconds, SRC))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {name: (values[name], unit) for name, unit in UNITS.items()}

    for note in tally.notes:
        print(note, file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
