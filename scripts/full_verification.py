#!/usr/bin/env python3
"""Run the complete verification harness with a per-suite timing breakdown.

This is the long-form companion to `tribary verify`: it runs every suite
separately so the wall-clock cost of each is visible, then merges the four
suite reports into the combined report and its overall verdict.  Per-sample
results do not depend on which suites run, so the merged report equals what
one all-suite run would give; its JSON can be written out with --json-out
and is byte-identical across repeated invocations with the same arguments.

Usage:
    python3 scripts/full_verification.py --count 10000 --seed 7
    python3 scripts/full_verification.py --count 2000 --json-out report.json
"""

import argparse
import sys
import time
from dataclasses import replace

from tribary.verify import VALID_SUITES, FuzzConfig, VerificationReport, run_fuzz


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10_000,
                        help="samples per stratum (default 10000)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base RNG seed (default 7)")
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="multiplier on every check tolerance (default 1.0)")
    parser.add_argument("--json-out", default=None,
                        help="write the combined-run JSON report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    base = FuzzConfig(count=args.count, seed=args.seed,
                      tolerance_scale=args.tolerance_scale)

    print(f"count={args.count} seed={args.seed} "
          f"tolerance_scale={args.tolerance_scale}")
    print()
    print(f"{'suite':<12} {'checks':>6} {'failed':>6} {'contexts':>9} "
          f"{'seconds':>8}")
    checks = []
    total_seconds = 0.0
    for suite in VALID_SUITES:
        config = replace(base, suites=(suite,))
        started = time.monotonic()
        report = run_fuzz(config)
        elapsed = time.monotonic() - started
        total_seconds += elapsed
        checks.extend(report.checks)
        summary = report.to_data()["summary"]
        print(f"{suite:<12} {summary['checks']:>6} "
              f"{summary['failed_checks']:>6} {summary['contexts']:>9} "
              f"{elapsed:>8.2f}")

    combined = VerificationReport(config=base, checks=checks, contexts=report.contexts)
    data = combined.to_data()
    summary = data["summary"]
    print()
    print(f"combined report: {summary['checks']} checks, "
          f"{summary['failed_checks']} failed, "
          f"{summary['contexts']} contexts, {total_seconds:.2f}s over the suites")
    for check in data["checks"]:
        if check.get("advisory"):
            print(f"  advisory {check['name']}: "
                  f"max_abs={check['max_abs_residual']}")
    if combined.failed_names:
        print("failed checks: " + ", ".join(combined.failed_names))

    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(combined.to_json())
        print(f"wrote {args.json_out}")

    print("result: " + ("pass" if combined.passed else "fail"))
    return 0 if combined.passed else 3


if __name__ == "__main__":
    sys.exit(main())
