"""Per-layer costs for the traced run.

The benchmark calls the public functions of each tribary module directly, on
the same seeded inputs as the workloads, and wraps each batch of calls in one
span.  A span per call would cost about as much as the cheapest calls it
times.  Inputs on which a function raises (a closed form at an equilateral
triangle, say) are left out of its batch and counted as ``<metric>.skipped``.
Besides GeometryError that includes ZeroDivisionError: classical_cos_ION
divides by a radicand that cancels to 0.0 on near-equilateral float
triangles that ``is_equilateral`` does not flag.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
from dataclasses import replace

import workloads as wl
from tribary import blundon, centers, kernel, oracle, serialize, verify
from tribary import cli as tribary_cli
from tribary.errors import GeometryError

# Batches per function; each metric is the median over them.
REPEATS = 5
INTERPRETER_RUNS = 7


def _per_call_us(tracer, name: str, fn, calls: list) -> float:
    """Median microseconds per call of fn over the argument tuples in calls."""
    usable = []
    for args in calls:
        try:
            fn(*args)
        except (GeometryError, ZeroDivisionError):
            tracer.count(name + ".skipped")
            continue
        usable.append(args)
    for _ in range(REPEATS):
        with tracer.span(name, calls=len(usable)):
            for args in usable:
                fn(*args)
    tracer.count(name + ".calls", REPEATS * len(usable))
    return statistics.median(tracer.durations(name)) * 1e6


def _median_s(tracer, name: str, fn):
    """(median seconds over REPEATS calls of fn, its last result)."""
    for _ in range(REPEATS):
        with tracer.span(name):
            result = fn()
    return statistics.median(tracer.durations(name)), result


def kernel_centers_blundon_oracle(seed: int, tracer) -> dict:
    cases = wl.angle_round(seed, 0)
    float_cases = wl.library_cases(cases, exact=False)
    exact_cases = wl.library_cases(cases, exact=True)
    f_sides = [kernel.TriangleSides(*abc) for abc, _ in float_cases]
    e_sides = [kernel.TriangleSides(*abc) for abc, _ in exact_cases]
    e_pairs = [(centers.resolve(p, sides), centers.resolve(q, sides), sides)
               for (_, pairs), sides in zip(exact_cases, e_sides) for p, q in pairs]
    f_pairs, specs, bary_xy, angle_xy = [], [], [], []
    for (_, pairs), sides in zip(float_cases, f_sides):
        placement = oracle.place_triangle(*sides.as_tuple())
        o_xy = oracle.circumcenter_xy(placement)
        for p_spec, q_spec in pairs:
            p, q = centers.resolve(p_spec, sides), centers.resolve(q_spec, sides)
            f_pairs.append((p, q, sides))
            specs += [(p_spec, sides), (q_spec, sides)]
            bary_xy += [(p.as_tuple(), placement), (q.as_tuple(), placement)]
            angle_xy.append((o_xy, oracle.barycentric_to_cartesian(p.as_tuple(), placement),
                             oracle.barycentric_to_cartesian(q.as_tuple(), placement)))
    f_points = [(p, s) for p, _, s in f_pairs] + [(q, s) for _, q, s in f_pairs]
    e_points = [(p, s) for p, _, s in e_pairs] + [(q, s) for _, q, s in e_pairs]
    elements = [kernel.derive_elements(s) for s in f_sides]
    spec_texts = [(wl.spec_text(spec),) for _, pairs in cases for pair in pairs for spec in pair]
    cevians = [(*spec.params, sides) for spec, sides in specs if spec.kind == "cevian"]

    def named(sides):
        return (centers.incenter(sides), centers.centroid(sides), centers.nagel_point(sides))

    table = {
        "kernel.TriangleSides_us": (kernel.TriangleSides, [abc for abc, _ in float_cases]),
        "kernel.BaryPoint_us": (kernel.BaryPoint, [p.as_tuple() for p, _ in f_points]),
        "kernel.circumradius_sq_us": (kernel.circumradius_sq, [(s,) for s in f_sides]),
        "kernel.circum_power_float_us": (kernel.circum_power, f_points),
        "kernel.circum_power_exact_us": (kernel.circum_power, e_points),
        "kernel.dist_sq_between_float_us": (kernel.dist_sq_between, f_pairs),
        "kernel.dist_sq_between_exact_us": (kernel.dist_sq_between, e_pairs),
        "kernel.derive_elements_us": (kernel.derive_elements, [(s,) for s in f_sides]),
        "centers.parse_center_spec_us": (centers.parse_center_spec, spec_texts),
        "centers.resolve_us": (centers.resolve, specs),
        "centers.cevian_rank_us": (centers.cevian_rank, cevians),
        "blundon.cos_angle_float_us": (blundon.cos_angle_at_circumcenter, f_pairs),
        "blundon.cos_angle_exact_us": (blundon.cos_angle_at_circumcenter, e_pairs),
        "blundon.general_cos_parts_exact_us": (blundon.general_cos_parts, e_pairs),
        "blundon.classical_cos_ION_us": (blundon.classical_cos_ION, [(e,) for e in elements]),
        "blundon.excenter_adjoint_cos_us": (blundon.excenter_adjoint_cos,
                                            [(v, e) for e in elements for v in "ABC"]),
        "blundon.rank_pair_cos_us": (blundon.rank_pair_cos,
                                     [(k1, k2, s) for s in f_sides
                                      for k1, k2 in ((0, 1), (1, 2), (0, 2))]),
        "blundon.triple_cevian_cos_us": (blundon.triple_cevian_cos,
                                         [(*named(s), s) for s in f_sides]),
        "oracle.place_triangle_us": (oracle.place_triangle, [s.as_tuple() for s in f_sides]),
        "oracle.barycentric_to_cartesian_us": (oracle.barycentric_to_cartesian, bary_xy),
        "oracle.angle_cos_us": (oracle.angle_cos, angle_xy),
    }
    metrics = {name: (_per_call_us(tracer, name, fn, calls), "us")
               for name, (fn, calls) in table.items()}

    reports = [blundon.cos_angle_at_circumcenter(*args) for args in f_pairs]
    cli_like = [({"cos": r.cos_value, "op_sq": r.op_sq, "oq_sq": r.oq_sq, "pq_sq": r.pq_sq,
                  "bounds": r.bounds._asdict(), "classification": r.classification},)
                for r in reports]
    metrics["serialize.dumps_us"] = (
        _per_call_us(tracer, "serialize.dumps_us", serialize.dumps, cli_like), "us")
    return metrics


def verify_layers(seed: int, tracer) -> dict:
    """Suite, context and exact-stride costs of the verify workload's first round."""
    base = verify.FuzzConfig(count=wl.VERIFY_COUNT, seed=seed * 1000)
    all_s, report = _median_s(tracer, "verify.run_fuzz_all", lambda: verify.run_fuzz(base))
    suites = {}
    for suite in verify.VALID_SUITES:
        config = replace(base, suites=(suite,))
        suites[suite], _ = _median_s(tracer, f"verify.suite_{suite}_s",
                                     lambda config=config: verify.run_fuzz(config))
    no_stride = replace(base, exact_stride=base.count + 1)
    no_stride_s, _ = _median_s(tracer, "verify.run_fuzz_exact_index0",
                               lambda: verify.run_fuzz(no_stride))
    to_json_s, _ = _median_s(tracer, "serialize.report_to_json_s", report.to_json)
    vs_oracle = [c for c in report.checks if c.name.endswith("_vs_oracle")]
    compared = sum(c.samples for c in vs_oracle)
    metrics = {f"verify.suite_{suite}_s": (seconds, "s") for suite, seconds in suites.items()}
    metrics.update({
        "verify.context_build_s": ((sum(suites.values()) - all_s) / (len(suites) - 1), "s"),
        "verify.exact_stride_s": (all_s - no_stride_s, "s"),
        "verify.contexts": (report.contexts, "count"),
        "verify.samples": (sum(c.samples for c in report.checks), "count"),
        "verify.oracle_compared_ratio": (
            compared / (compared + sum(c.skipped for c in vs_oracle)), "ratio"),
        "serialize.report_to_json_s": (to_json_s, "s"),
    })
    return metrics


def cli_layers(seed: int, tracer, import_seconds: list, src_dir) -> dict:
    env = wl.cli_env(src_dir)
    for _ in range(INTERPRETER_RUNS):
        with tracer.span("cli.interpreter"):
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    floor_ms = statistics.median(tracer.durations("cli.interpreter")) * 1000.0
    metrics = {
        "cli.interpreter_ms": (floor_ms, "ms"),
        "cli.import_ms": (statistics.median(import_seconds) * 1000.0 - floor_ms, "ms"),
    }
    calls = [wl.cli_call(seed, index, sub, fmt, exact)[0]
             for index, (fmt, exact) in enumerate(wl.CLI_SETTINGS) for sub in wl.SUBCOMMANDS]

    def main_quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = tribary_cli.main(argv)
        if code != 0:
            raise RuntimeError(f"tribary {' '.join(argv)} exited {code}")

    for sub in wl.SUBCOMMANDS:
        name = f"cli.main_inproc_{sub}_us"
        argvs = [(argv,) for argv in calls if argv[0] == sub]
        metrics[name] = (_per_call_us(tracer, name, main_quiet, argvs), "us")
    return metrics
