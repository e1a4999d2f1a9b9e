"""Command line interface.

Subcommands:
  derive   triangle elements from side lengths
  center   resolve a center specification to barycentric weights
  cos      cosine and bounds of the angle two points subtend at the circumcenter
  bounds   just the bound triple and classification for two points
  triple   cosine of the vertex angle at the middle of three points
  verify   seeded fuzz verification, reporting worst residuals per check

Exit codes: 0 success, 1 domain error (degenerate input, undefined angle),
2 usage error (bad flags, malformed specs or corpus files), 3 verification
run with failing checks.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import oracle
from .blundon import CLASS_UNDEFINED, cos_angle_at_circumcenter, triple_cevian_cos
from .centers import parse_center_spec, resolve
from .errors import CenterSpecError, DegenerateTriangle, GeometryError
from .kernel import (
    BaryPoint,
    TriangleSides,
    area_sq,
    circumradius_sq,
    derive_elements,
    dist_sq_between,
    euler_terms,
    semiperimeter,
)
from .serialize import csv_cell, dumps, format_number
from .verify import (
    VALID_SUITES,
    CorpusFormatError,
    FuzzConfig,
    load_corpus,
    run_fuzz,
)

FORMATS = ("human", "json", "csv")


class _UsageError(Exception):
    """Command line input that argparse cannot catch (malformed values)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribary",
        description="barycentric triangle geometry: distances, circumcenter "
        "angles, inequality bounds, and a seeded verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sides", required=True, metavar="A,B,C",
                       help="comma separated side lengths a,b,c")
        p.add_argument("--format", choices=FORMATS, default="human")
        p.add_argument("--exact", action="store_true",
                       help="parse input as exact rationals and keep squared "
                       "quantities rational in the output")

    p = sub.add_parser("derive", help="semiperimeter, area, radii, exradii")
    add_common(p)

    p = sub.add_parser("center", help="resolve a center spec to weights")
    add_common(p)
    p.add_argument("--spec", required=True, metavar="SPEC",
                   help="incenter | centroid | nagel | lemoine | excenter:V | "
                   "adjnagel:V | cevian:K,L,M | raw:T1,T2,T3")

    p = sub.add_parser("cos", help="cosine of the angle at the circumcenter")
    add_common(p)
    p.add_argument("--p", required=True, metavar="SPEC", help="first point")
    p.add_argument("--q", required=True, metavar="SPEC", help="second point")

    p = sub.add_parser("bounds", help="bound triple for the angle at the circumcenter")
    add_common(p)
    p.add_argument("--p", required=True, metavar="SPEC")
    p.add_argument("--q", required=True, metavar="SPEC")

    p = sub.add_parser("triple", help="vertex angle at p2 of the triangle p1 p2 p3")
    add_common(p)
    p.add_argument("--p1", required=True, metavar="SPEC")
    p.add_argument("--p2", required=True, metavar="SPEC")
    p.add_argument("--p3", required=True, metavar="SPEC")

    p = sub.add_parser("verify", help="run the seeded fuzz verification")
    p.add_argument("--count", type=int, default=1000,
                   help="triangles per stratum (default 1000)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--suite", choices=VALID_SUITES + ("all",), default="all")
    p.add_argument("--strata", default=None, metavar="S1,S2",
                   help="comma separated strata (default: all built-in strata)")
    p.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=1.0)
    p.add_argument("--corpus", default=None, metavar="FILE.csv",
                   help="extra stratum of side triples; columns a,b,c with header")
    p.add_argument("--format", choices=FORMATS, default="human")

    return parser


# ---------------------------------------------------------------------------
# input parsing helpers


def _parse_sides(text: str, exact: bool) -> TriangleSides:
    tokens = [token.strip() for token in text.split(",")]
    if len(tokens) != 3 or not all(tokens):
        raise _UsageError(f"--sides expects three comma separated lengths, got {text!r}")
    values = []
    for token in tokens:
        try:
            value = Fraction(token) if exact else float(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad side value {token!r}") from exc
        if not exact and not math.isfinite(value):
            raise _UsageError(f"non-finite side value {token!r}")
        values.append(value)
    if exact:
        _float_sides(values)  # exact runs still report floats
    return TriangleSides(*values)


def _float_sides(values) -> TriangleSides:
    """Float image of side values, validated like float input."""
    try:
        return TriangleSides(*(float(v) for v in values))
    except OverflowError as exc:
        raise DegenerateTriangle("side values exceed the float range") from exc


def _resolve_point(text: str, sides: TriangleSides, exact: bool) -> BaryPoint:
    return resolve(parse_center_spec(text, exact=exact), sides)


# ---------------------------------------------------------------------------
# output helpers


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{prefix}{key}." if prefix else f"{key}.", out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value, start=1):
            _flatten(item, f"{prefix}{index}.", out)
    else:
        out[prefix.rstrip(".")] = value


def _emit(data: dict, fmt: str, human_lines) -> None:
    if fmt == "json":
        print(dumps(data))
    elif fmt == "csv":
        flat: dict = {}
        _flatten(data, "", flat)
        row = ",".join(csv_cell(value) for value in flat.values())  # may raise: print nothing yet
        print(",".join(flat.keys()))
        print(row)
    else:
        for line in human_lines:
            print(line)


def _num(value) -> str:
    return format_number(value)


def _triple_str(values) -> str:
    return " ".join(_num(value) for value in values)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_derive(args) -> int:
    sides = _parse_sides(args.sides, args.exact)
    sides_float = _float_sides(sides.as_tuple())
    elements = derive_elements(sides_float)
    data = {
        "sides": list(sides_float.as_tuple()),
        "semiperimeter": elements.semiperimeter,
        "area": elements.area,
        "circumradius": elements.circumradius,
        "inradius": elements.inradius,
        "exradius_a": elements.exradius_a,
        "exradius_b": elements.exradius_b,
        "exradius_c": elements.exradius_c,
        "equilateral": elements.is_equilateral,
    }
    if args.exact:
        ex_a, ex_b, ex_c = (euler_terms(sides, side)[3] for side in sides.as_tuple())
        data["exact"] = {
            "sides": list(sides.as_tuple()),
            "semiperimeter": semiperimeter(sides),
            "area_sq": area_sq(sides),
            "circumradius_sq": circumradius_sq(sides),
            "inradius_sq": euler_terms(sides)[3],
            "exradius_a_sq": ex_a,
            "exradius_b_sq": ex_b,
            "exradius_c_sq": ex_c,
        }
    lines = [
        f"sides: {_triple_str(data['sides'])}",
        f"semiperimeter: {_num(elements.semiperimeter)}",
        f"area: {_num(elements.area)}",
        f"circumradius: {_num(elements.circumradius)}",
        f"inradius: {_num(elements.inradius)}",
        "exradii: " + _triple_str(
            (elements.exradius_a, elements.exradius_b, elements.exradius_c)),
        f"equilateral: {'true' if elements.is_equilateral else 'false'}",
    ]
    if args.exact:
        exact = data["exact"]
        lines.append(f"semiperimeter (exact): {_num(exact['semiperimeter'])}")
        lines.append(f"area_sq (exact): {_num(exact['area_sq'])}")
        lines.append(f"circumradius_sq (exact): {_num(exact['circumradius_sq'])}")
        lines.append(f"inradius_sq (exact): {_num(exact['inradius_sq'])}")
    _emit(data, args.format, lines)
    return 0


def _cmd_center(args) -> int:
    sides = _parse_sides(args.sides, args.exact)
    spec = parse_center_spec(args.spec, exact=args.exact)
    point = resolve(spec, sides)
    weights = point.as_tuple()
    total = weights[0] + weights[1] + weights[2]
    normalized = point.normalized()
    data = {
        "spec": args.spec,
        "kind": spec.kind,
        "vertex": spec.vertex,
        "params": list(spec.params),
        "weights": list(weights),
        "weight_sum": total,
        "normalized": list(normalized),
    }
    lines = [f"kind: {spec.kind}"]
    if spec.vertex is not None:
        lines.append(f"vertex: {spec.vertex}")
    if spec.params:
        lines.append(f"params: {_triple_str(spec.params)}")
    lines.extend([
        f"weights: {_triple_str(weights)}",
        f"weight_sum: {_num(total)}",
        f"normalized: {_triple_str(normalized)}",
    ])
    _emit(data, args.format, lines)
    return 0


def _angle_points(args):
    """(p, q, sides) as parsed from the command line."""
    sides = _parse_sides(args.sides, args.exact)
    p = _resolve_point(args.p, sides, args.exact)
    q = _resolve_point(args.q, sides, args.exact)
    return p, q, sides


def _oracle_residual(args, p, q, sides, cos_value):
    """cos_value minus the Cartesian oracle's cosine, in floats; None if undefined."""
    if cos_value is None:
        return None
    if args.exact:
        sides = _float_sides(sides.as_tuple())
        p = _resolve_point(args.p, sides, False)
        q = _resolve_point(args.q, sides, False)
    placement = oracle.place_triangle(*sides.as_tuple())
    center = oracle.circumcenter_xy(placement)
    try:
        reference = oracle.angle_cos(
            center,
            oracle.barycentric_to_cartesian(p.as_tuple(), placement),
            oracle.barycentric_to_cartesian(q.as_tuple(), placement),
        )
    except GeometryError:
        return None
    return cos_value - reference


def _cmd_cos(args) -> int:
    p, q, sides = _angle_points(args)
    report = cos_angle_at_circumcenter(p, q, sides)
    residual = _oracle_residual(args, p, q, sides, report.cos_value)
    data = {
        "cos": report.cos_value,
        "op_sq": report.op_sq,
        "oq_sq": report.oq_sq,
        "pq_sq": report.pq_sq,
        "bounds": {
            "lower": report.bounds.lower,
            "middle": report.bounds.middle,
            "upper": report.bounds.upper,
        },
        "classification": report.classification,
        "oracle_residual": residual,
    }
    lines = [
        "cos: " + (_num(report.cos_value) if report.cos_value is not None else "undefined"),
        f"classification: {report.classification}",
        f"op_sq: {_num(report.op_sq)}",
        f"oq_sq: {_num(report.oq_sq)}",
        f"pq_sq: {_num(report.pq_sq)}",
        f"bounds: lower={_num(report.bounds.lower)} "
        f"middle={_num(report.bounds.middle)} upper={_num(report.bounds.upper)}",
    ]
    if residual is not None:
        lines.append(f"oracle_residual: {_num(residual)}")
    _emit(data, args.format, lines)
    return 1 if report.classification == CLASS_UNDEFINED else 0


def _cmd_bounds(args) -> int:
    report = cos_angle_at_circumcenter(*_angle_points(args))
    data = {
        "bounds": {
            "lower": report.bounds.lower,
            "middle": report.bounds.middle,
            "upper": report.bounds.upper,
        },
        "classification": report.classification,
    }
    lines = [
        f"classification: {report.classification}",
        f"lower: {_num(report.bounds.lower)}",
        f"middle: {_num(report.bounds.middle)}",
        f"upper: {_num(report.bounds.upper)}",
    ]
    _emit(data, args.format, lines)
    return 0


def _cmd_triple(args) -> int:
    sides = _parse_sides(args.sides, args.exact)
    p1 = _resolve_point(args.p1, sides, args.exact)
    p2 = _resolve_point(args.p2, sides, args.exact)
    p3 = _resolve_point(args.p3, sides, args.exact)
    cos_value = triple_cevian_cos(p1, p2, p3, sides)
    data = {
        "cos": cos_value,
        "d12_sq": dist_sq_between(p1, p2, sides),
        "d23_sq": dist_sq_between(p2, p3, sides),
        "d31_sq": dist_sq_between(p3, p1, sides),
    }
    lines = [
        f"cos: {_num(cos_value)}",
        f"d12_sq: {_num(data['d12_sq'])}",
        f"d23_sq: {_num(data['d23_sq'])}",
        f"d31_sq: {_num(data['d31_sq'])}",
    ]
    _emit(data, args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else ()
    kwargs = {
        "count": args.count,
        "seed": args.seed,
        "suites": (args.suite,),
        "tolerance_scale": args.tolerance_scale,
        "corpus": corpus,
    }
    if args.strata is not None:
        kwargs["strata"] = tuple(
            token.strip() for token in args.strata.split(",") if token.strip())
    try:
        config = FuzzConfig(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    report = run_fuzz(config)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    elif args.format == "csv":
        print("name,suite,tolerance,samples,skipped,failures,"
              "max_abs_residual,max_rel_residual,advisory,pass")
        for check in report.checks:
            print(",".join(csv_cell(value) for value in (
                check.name, check.suite, check.tolerance, check.samples,
                check.skipped, check.failures, check.max_abs_residual,
                check.max_rel_residual, check.advisory, check.passed)))
    else:
        for check in report.checks:
            status = "NOTE" if check.advisory else ("PASS" if check.passed else "FAIL")
            print(f"{status} {check.name} samples={check.samples} "
                  f"skipped={check.skipped} failures={check.failures} "
                  f"max_abs={_num(check.max_abs_residual)} "
                  f"max_rel={_num(check.max_rel_residual)}")
        verdict = "pass" if report.passed else "fail"
        print(f"result: {verdict} ({len(report.checks)} checks, "
              f"{len(report.failed_names)} failed, {report.contexts} contexts)")
    return 0 if report.passed else 3


_COMMANDS = {
    "derive": _cmd_derive,
    "center": _cmd_center,
    "cos": _cmd_cos,
    "bounds": _cmd_bounds,
    "triple": _cmd_triple,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, CenterSpecError, CorpusFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
