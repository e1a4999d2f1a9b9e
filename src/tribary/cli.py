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

from . import oracle
from .blundon import CLASS_UNDEFINED, cos_angle_at_circumcenter, triple_cevian_cos
from .centers import parse_center_spec, parse_number, parse_sides, resolve
from .errors import GeometryError, InputError
from .kernel import derive_elements, dist_sq_between, euler_terms, float_mode, one_mode
from .serialize import csv_cell, dumps, format_number

FORMATS = ("human", "json", "csv")

_POINT_HELP = ("incenter | centroid | nagel | lemoine | excenter:V | adjnagel:V | "
               "cevian:K,L,M | raw:T1,T2,T3")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribary",
        description="barycentric triangle geometry: distances, circumcenter "
        "angles, inequality bounds, and a seeded verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--sides", required=True, metavar="A,B,C",
                       help="comma separated side lengths a,b,c")
        p.add_argument("--format", choices=FORMATS, default="human")
        p.add_argument("--exact", action="store_true",
                       help="parse input as exact rationals and keep squared "
                       "quantities rational in the output")
        for flag in flags:
            p.add_argument(f"--{flag}", required=True, metavar="SPEC", help=_POINT_HELP)

    p = sub.add_parser("verify", help="run the seeded fuzz verification")
    p.add_argument("--count", type=int, default=1000,
                   help="triangles per stratum (default 1000)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--suite", default="all",
                   help="kernel, classical, dual, cevian or all (default all)")
    p.add_argument("--strata", default=None, metavar="S1,S2",
                   help="comma separated strata (default: all built-in strata)")
    p.add_argument("--tolerance-scale", dest="tolerance_scale", type=parse_number,
                   default=1.0)
    p.add_argument("--corpus", default=None, metavar="FILE.csv",
                   help="extra stratum of side triples; columns a,b,c with header")
    p.add_argument("--format", choices=FORMATS, default="human")

    return parser


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


def _triple_str(values) -> str:
    return " ".join(format_number(value) for value in values)


# ---------------------------------------------------------------------------
# geometry subcommands: each body takes the parsed arguments, the sides and
# the specs and points of its point flags, and returns (data, lines, exit code)


def _derive(args, sides, specs, points):
    elements = derive_elements(sides)
    data = elements._asdict()  # every field, in order; the sides become a float list
    data.update(sides=[float(v) for v in sides.as_tuple()], equilateral=elements.is_equilateral)
    lines = [
        f"sides: {_triple_str(data['sides'])}",
        f"semiperimeter: {format_number(elements.semiperimeter)}",
        f"area: {format_number(elements.area)}",
        f"circumradius: {format_number(elements.circumradius)}",
        f"inradius: {format_number(elements.inradius)}",
        "exradii: " + _triple_str((elements.exradius_a, elements.exradius_b, elements.exradius_c)),
        f"equilateral: {'true' if elements.is_equilateral else 'false'}",
    ]
    if args.exact:
        ex_a, ex_b, ex_c = (euler_terms(sides, side)[3] for side in sides.as_tuple())
        exact = data["exact"] = {
            "sides": list(sides.as_tuple()),
            "semiperimeter": sides.s,
            "area_sq": sides.area2,
            "circumradius_sq": sides.r_sq,
            "inradius_sq": euler_terms(sides)[3],
            "exradius_a_sq": ex_a,
            "exradius_b_sq": ex_b,
            "exradius_c_sq": ex_c,
        }
        lines += [f"{key} (exact): {format_number(exact[key])}"
                  for key in ("semiperimeter", "area_sq", "circumradius_sq", "inradius_sq")]
    return data, lines, 0


def _center(args, sides, specs, points):
    (spec,), (point,) = specs, points
    weights = point.as_tuple()
    total = weights[0] + weights[1] + weights[2]
    normalized = point.normalized()
    if not all(abs(value) < math.inf for value in normalized):
        raise GeometryError(f"the normalized weights of {args.spec!r} exceed the float range")
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
    lines += [
        f"weights: {_triple_str(weights)}",
        f"weight_sum: {format_number(total)}",
        f"normalized: {_triple_str(normalized)}",
    ]
    return data, lines, 0


def _oracle_residual(points, sides, cos_value):
    """cos_value minus the Cartesian oracle's cosine, from the float images of
    float_mode; None if undefined, or if a point has no float image."""
    if cos_value is None:
        return None
    try:
        *images, sides = float_mode(*points, sides=sides)
    except GeometryError:
        return None
    placement = oracle.place_triangle(*sides.as_tuple())
    center = oracle.circumcenter_xy(placement)
    try:
        reference = oracle.angle_cos(center, *(
            oracle.barycentric_to_cartesian(image.as_tuple(), placement) for image in images))
    except GeometryError:
        return None
    return cos_value - reference


def _cos(args, sides, specs, points):
    report = cos_angle_at_circumcenter(*points, sides)
    residual = _oracle_residual(points, sides, report.cos_value)
    bounds = report.bounds
    data = {
        "cos": report.cos_value,
        "op_sq": report.op_sq,
        "oq_sq": report.oq_sq,
        "pq_sq": report.pq_sq,
        "bounds": bounds._asdict(),
        "classification": report.classification,
        "oracle_residual": residual,
    }
    lines = [
        "cos: " + ("undefined" if report.cos_value is None else format_number(report.cos_value)),
        f"classification: {report.classification}",
        f"op_sq: {format_number(report.op_sq)}",
        f"oq_sq: {format_number(report.oq_sq)}",
        f"pq_sq: {format_number(report.pq_sq)}",
        f"bounds: lower={format_number(bounds.lower)} "
        f"middle={format_number(bounds.middle)} upper={format_number(bounds.upper)}",
    ]
    if residual is not None:
        lines.append(f"oracle_residual: {format_number(residual)}")
    return data, lines, 1 if report.classification == CLASS_UNDEFINED else 0


def _bounds(args, sides, specs, points):
    report = cos_angle_at_circumcenter(*points, sides)
    data = {"bounds": report.bounds._asdict(), "classification": report.classification}
    lines = [f"classification: {report.classification}"]
    lines += [f"{name}: {format_number(value)}" for name, value in data["bounds"].items()]
    return data, lines, 0


def _triple(args, sides, specs, points):
    p1, p2, p3 = points
    data = {
        "cos": triple_cevian_cos(p1, p2, p3, sides),
        "d12_sq": dist_sq_between(p1, p2, sides),
        "d23_sq": dist_sq_between(p2, p3, sides),
        "d31_sq": dist_sq_between(p3, p1, sides),
    }
    return data, [f"{name}: {format_number(value)}" for name, value in data.items()], 0


# name -> (body, help, point flags in the order they are resolved)
_COMMANDS = {
    "derive": (_derive, "semiperimeter, area, radii, exradii", ()),
    "center": (_center, "resolve a center spec to weights", ("spec",)),
    "cos": (_cos, "cosine of the angle at the circumcenter", ("p", "q")),
    "bounds": (_bounds, "bound triple for the angle at the circumcenter", ("p", "q")),
    "triple": (_triple, "vertex angle at p2 of the triangle p1 p2 p3", ("p1", "p2", "p3")),
}


def _run_geometry(args) -> int:
    """The one path of every geometry subcommand: read --sides, parse and resolve
    each point flag in order, put all in one number mode, run the body, emit once."""
    body, _, flags = _COMMANDS[args.command]
    tokens = args.sides.split(",")
    if len(tokens) != 3 or not all(token.strip() for token in tokens):
        raise InputError(f"--sides expects three comma separated lengths, got {args.sides!r}")
    sides = parse_sides(tokens, args.exact)
    specs, points = [], []
    for flag in flags:
        specs.append(parse_center_spec(getattr(args, flag), exact=args.exact))
        points.append(resolve(specs[-1], sides))
    *points, sides = one_mode(*points, sides=sides)
    data, lines, code = body(args, sides, specs, points)
    _emit(data, args.format, lines)
    return code


_VERIFY_COLUMNS = ("name", "suite", "tolerance", "samples", "skipped", "failures",
                   "max_abs_residual", "max_rel_residual", "advisory", "pass")


def _cmd_verify(args) -> int:
    from .verify import FuzzConfig, load_corpus, run_fuzz  # only verify needs the harness

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
        raise InputError(str(exc)) from exc
    data = run_fuzz(config).to_data()
    summary = data["summary"]
    if args.format == "json":
        sys.stdout.write(dumps(data) + "\n")
    elif args.format == "csv":
        print(",".join(_VERIFY_COLUMNS))
        for row in data["checks"]:  # only advisory checks carry an "advisory" key
            print(",".join(csv_cell(row.get(column, False)) for column in _VERIFY_COLUMNS))
    else:
        for row in data["checks"]:
            status = "NOTE" if row.get("advisory") else ("PASS" if row["pass"] else "FAIL")
            print(f"{status} {row['name']} samples={row['samples']} "
                  f"skipped={row['skipped']} failures={row['failures']} "
                  f"max_abs={format_number(row['max_abs_residual'])} "
                  f"max_rel={format_number(row['max_rel_residual'])}")
        print(f"result: {'pass' if summary['pass'] else 'fail'} ({summary['checks']} checks, "
              f"{summary['failed_checks']} failed, {summary['contexts']} contexts)")
    return 0 if summary["pass"] else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _cmd_verify(args) if args.command == "verify" else _run_geometry(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
