"""Seeded fuzz verification of the barycentric engine against the oracle.

run_fuzz draws stratified triangles as exact rationals, mirrors them to
floats, and pushes every enabled consistency check through both the
symmetric-function formulas and the Cartesian oracle.  Residuals accumulate
into a report whose JSON form is byte-identical across repeated runs with
the same configuration: per-sample RNG streams are keyed by seed, stratum
name, and index, and nothing time- or environment-dependent is recorded.

Each check is one function, named after the check and registered with
its suite and tolerance by ``@_check(suite, tolerance)``.  It takes the
sample and returns None to skip it, or (abs, rel[, p[, q]]) to record it.
Everything else follows from the registration:

- the report lists the checks in definition order;
- a check whose name starts with ``diag_`` is advisory: it documents a
  known closed-form variant that disagrees with the trusted path, carries
  a note, and never fails the run;
- a check with tolerance 0.0 that is not advisory is an exact rational
  identity and runs only on every ``exact_stride``-th sample of a stratum;
  every other check, the advisory ones included, runs on every sample.

The samples are computed in W worker processes, W being the number of
CPUs in this process's affinity mask (at most ``count``; 1 where
``os.fork`` is missing or other threads are running).  Worker w takes the
slice ``[total*w//W, total*(w+1)//W)`` of every stratum, the corpus
included; the parent runs slice 0 itself and forks one child per other
slice, which pickles its accumulators (or the exception that stopped it)
into a pipe.  ``_merge`` folds the slices in (stratum, slice) order with
the same strict ``>`` rule as ``CheckAccumulator.record``, so the report,
and the first error raised, are those of one serial pass over the
samples, whatever W is.  Each check's worst case is one record in report
form, and ``VerificationReport.to_data`` is the one value every output
format is printed from.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from . import oracle
from .blundon import (
    centroid_incenter_cos,
    centroid_incenter_cos_parts,
    centroid_lemoine_cos_variant,
    classical_cos_ION,
    classical_cos_parts,
    cos_angle_at_circumcenter,
    dual_bound_residual,
    dual_cos_parts,
    dual_slack_sq,
    excenter_adjoint_cos,
    exradii_identity_parts,
    fundamental_residual,
    fundamental_slack_sq,
    general_cos_parts,
    incenter_lemoine_cos,
    incenter_lemoine_cos_halved,
    incenter_lemoine_cos_parts,
    rank_pair_cos,
    rank_pair_parts,
    triple_cevian_cos,
    triple_cevian_cos_variant,
)
from .centers import (
    VERTICES,
    adjoint_nagel,
    centroid,
    cevian_rank,
    cevian_triangle,
    excenter,
    incenter,
    lemoine_point,
    nagel_point,
    parse_number,
    parse_sides,
)
from .errors import DegenerateVertexAngle, InputError, UndefinedAngle
from .kernel import (
    BaryPoint,
    TriangleSides,
    bergstrom_bound,
    circum_power,
    circumradius_sq,
    derive_elements,
    dist_sq_between,
    float_sides,
    lagrange_point_dist_sq,
    power_sum,
    side_squares,
)
from .serialize import dumps

VALID_SUITES = ("kernel", "classical", "dual", "cevian")

# Squared legs below this fraction of R^2 are excluded from float-vs-oracle
# cosine comparisons; both paths lose relative accuracy as a leg vanishes.
COMPARISON_GUARD = 1e-5

_DENOM = 10 ** 6
_SCALE_LAMBDAS = (2.0, -1.0, 1e-6)


# ---------------------------------------------------------------------------
# stratified exact-rational side sampling


def _exact_decade(rng: random.Random) -> Fraction:
    """An exact rational close to 10**u for u uniform on [-8, -3]."""
    u = rng.uniform(-8.0, -3.0)
    exponent = math.floor(u)
    mantissa = 10.0 ** (u - exponent)
    return Fraction(round(mantissa * _DENOM), _DENOM) * Fraction(10) ** exponent


def _perimeter_two(trip) -> TriangleSides:
    """The triangle with sides proportional to trip and perimeter 2."""
    total = trip[0] + trip[1] + trip[2]
    return TriangleSides(*(2 * v / total for v in trip))


def _uniform_sides(rng: random.Random) -> TriangleSides:
    while True:
        trip = sorted(Fraction(rng.randint(50_000, _DENOM), _DENOM) for _ in range(3))
        x, y, z = trip
        if x + y - z > (x + y + z) * Fraction(1, 10 ** 10):
            return _perimeter_two(trip)


def _near_degenerate_sides(rng: random.Random) -> TriangleSides:
    gap = _exact_decade(rng)
    w = Fraction(rng.randint(350_000, 650_000), _DENOM)
    long_side = 1 - gap / 2
    return TriangleSides((long_side + gap) * w, (long_side + gap) * (1 - w), long_side)


def _near_equilateral_sides(rng: random.Random) -> TriangleSides:
    diff = _exact_decade(rng)
    w = Fraction(rng.randint(0, _DENOM), _DENOM)
    return _perimeter_two((Fraction(1), 1 + diff * w, 1 + diff))


def _isosceles_sides(rng: random.Random) -> TriangleSides:
    while True:
        leg = Fraction(rng.randint(50_000, _DENOM), _DENOM)
        base = Fraction(rng.randint(50_000, _DENOM), _DENOM)
        if base < 2 * leg * Fraction(999_999, 1_000_000):
            break
    arrangements = ((leg, leg, base), (leg, base, leg), (base, leg, leg))
    return _perimeter_two(arrangements[rng.randrange(3)])


def _integer_sides(rng: random.Random) -> TriangleSides:
    while True:
        trip = sorted(rng.randint(1, 60) for _ in range(3))
        x, y, z = trip
        if x + y > z:
            return TriangleSides(Fraction(x), Fraction(y), Fraction(z))


_SAMPLERS = {
    "uniform": _uniform_sides,
    "near_degenerate": _near_degenerate_sides,
    "near_equilateral": _near_equilateral_sides,
    "isosceles": _isosceles_sides,
    "integer_sides": _integer_sides,
}
VALID_STRATA = tuple(_SAMPLERS)


def _sample_exact_sides(stratum: str, index: int, rng: random.Random, config: FuzzConfig) -> TriangleSides:
    if stratum == "corpus":
        return parse_sides(config.corpus[index], exact=True)
    return _SAMPLERS[stratum](rng)


class CorpusFormatError(InputError):
    """Raised when a corpus CSV does not match the required a,b,c layout."""


@dataclass(frozen=True)
class FuzzConfig:
    """Settings for one deterministic fuzz run.

    corpus rows, when present, form one extra stratum evaluated after the
    built-in ones; each row is a triple of decimal strings so the exact
    mirror sees the same values the float path does.
    """

    count: int = 1000
    seed: int = 7
    strata: tuple = VALID_STRATA
    suites: tuple = ("all",)
    tolerance_scale: float = 1.0
    exact_stride: int = 16
    corpus: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        object.__setattr__(self, "suites", tuple(self.suites))
        object.__setattr__(self, "corpus", tuple(tuple(row) for row in self.corpus))
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        if not self.strata:
            raise ValueError("at least one stratum is required")
        for name in self.strata:
            if name not in VALID_STRATA:
                raise ValueError(f"unknown stratum {name!r}")
        if len(set(self.strata)) != len(self.strata):
            raise ValueError("duplicate stratum")
        if not self.suites:
            raise ValueError("at least one suite is required")
        for name in self.suites:
            if name != "all" and name not in VALID_SUITES:
                raise ValueError(f"unknown suite {name!r}")
        if not self.tolerance_scale > 0:
            raise ValueError("tolerance_scale must be positive")
        if self.exact_stride <= 0:
            raise ValueError("exact_stride must be positive")
        for row in self.corpus:
            if len(row) != 3:
                raise ValueError(f"corpus row {row!r} must have three sides")

    def enabled_suites(self) -> tuple:
        if "all" in self.suites:
            return VALID_SUITES
        return tuple(name for name in VALID_SUITES if name in self.suites)


def load_corpus(path) -> tuple:
    """Read a,b,c side triples from a CSV file with a mandatory header.

    Returns the raw cell strings so exact mode can interpret them without a
    float round trip.  Layout problems and cells that do not read as finite
    numbers raise CorpusFormatError; geometric problems (non-positive or
    degenerate sides, an exponent past the digit limit) surface later when
    the triple is read exactly into TriangleSides.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CorpusFormatError(f"{path}: cannot read: {exc}") from exc
    if not rows:
        raise CorpusFormatError(f"{path}: empty corpus")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["a", "b", "c"]:
        raise CorpusFormatError(f"{path}: header row must be a,b,c")
    triples = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise CorpusFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        cells = tuple(cell.strip() for cell in row)
        for cell in cells:
            try:
                parse_number(cell)
            except InputError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from exc
        triples.append(cells)
    if not triples:
        raise CorpusFormatError(f"{path}: no data rows")
    return tuple(triples)


def _sample_point(rng: random.Random) -> BaryPoint:
    """A homogeneous point with coordinates uniform on [-2, 2].

    One in ten points gets a coordinate forced to exactly zero so the
    cleared-denominator paths are exercised; tiny coordinate sums are
    rejected to keep the point finite.
    """
    while True:
        coords = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        if rng.random() < 0.10:
            coords[rng.randrange(3)] = 0.0
        if abs(coords[0] + coords[1] + coords[2]) >= 1e-6:
            return BaryPoint(*coords)


class _Sample:
    """One sampled triangle plus all random material its checks consume.

    Every random draw happens here, in a fixed order, so the per-sample
    results do not depend on which suites are enabled.  Values that several
    checks use are cached properties, computed at most once per sample.
    """

    def __init__(self, stratum: str, index: int, config: FuzzConfig):
        self.stratum = stratum
        rng = random.Random(f"{config.seed}:{stratum}:{index}")
        self.exact_sides = _sample_exact_sides(stratum, index, rng, config)
        self.sides = float_sides(self.exact_sides.as_tuple())
        self.elements = derive_elements(self.sides)
        self.r_sq = circumradius_sq(self.sides)
        self.min_leg = COMPARISON_GUARD * self.r_sq
        self.placement = oracle.place_triangle(*self.sides.as_tuple())
        self.o_xy = oracle.circumcenter_xy(self.placement)
        self.oracle_r_sq = oracle.circumradius_sq(self.placement)
        # Tolerance grows with the conditioning of the triangle itself: a
        # thin sample is thin no matter which stratum produced it.
        condition = self.elements.circumradius / self.elements.inradius
        self.tol_scale = config.tolerance_scale * max(1.0, condition)
        self.exact_now = index % config.exact_stride == 0
        self.p_pt = _sample_point(rng)
        self.q_pt = _sample_point(rng)
        self.extra_pt = _sample_point(rng)
        self.pos_pt = BaryPoint(*(rng.uniform(0.05, 2.0) for _ in range(3)))
        self.lam = _SCALE_LAMBDAS[index % 3]
        self.rank_pair = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        self.rank_ints = tuple(rng.randint(-3, 3) for _ in range(3))
        self.p_xy = oracle.barycentric_to_cartesian(self.p_pt.as_tuple(), self.placement)
        self.q_xy = oracle.barycentric_to_cartesian(self.q_pt.as_tuple(), self.placement)
        self.extra_xy = oracle.barycentric_to_cartesian(self.extra_pt.as_tuple(), self.placement)

    @cached_property
    def pq_report(self):
        return cos_angle_at_circumcenter(self.p_pt, self.q_pt, self.sides)

    @cached_property
    def pq_dist_sq(self):
        return dist_sq_between(self.p_pt, self.q_pt, self.sides)

    @cached_property
    def p_power(self):
        return circum_power(self.p_pt, self.sides)

    @cached_property
    def incenter_pt(self):
        return incenter(self.sides)

    @cached_property
    def nagel_pt(self):
        return nagel_point(self.sides)

    @cached_property
    def centroid_pt(self):
        return centroid(self.sides)

    @cached_property
    def lemoine_pt(self):
        return lemoine_point(self.sides)

    @cached_property
    def nagel_legs(self) -> tuple:
        """Squared distances IG and IN along the Nagel line."""
        return (dist_sq_between(self.incenter_pt, self.centroid_pt, self.sides),
                dist_sq_between(self.incenter_pt, self.nagel_pt, self.sides))

    @cached_property
    def dual_rows(self) -> tuple:
        """(vertex, excenter, adjoint Nagel point, exradius, cos report) per vertex."""
        el = self.elements
        rows = []
        for vertex, r_v in zip(VERTICES, (el.exradius_a, el.exradius_b, el.exradius_c)):
            exc = excenter(vertex, self.sides)
            adj = adjoint_nagel(vertex, self.sides)
            rows.append((vertex, exc, adj, r_v, cos_angle_at_circumcenter(exc, adj, self.sides)))
        return tuple(rows)

    @cached_property
    def triple_cos(self) -> Optional[float]:
        """cos of the angle at Q in the triangle P Q extra; None when two coincide."""
        try:
            return triple_cevian_cos(self.p_pt, self.q_pt, self.extra_pt, self.sides)
        except DegenerateVertexAngle:
            return None


# ---------------------------------------------------------------------------
# residual accumulation


@dataclass
class CheckAccumulator:
    """Worst residuals seen by one named check across all samples.

    ``worst_case`` is the sample closest to failing, in report form.
    A check whose name starts with ``diag_`` is advisory and never fails.
    A check whose name ends with ``_radicand`` skips exactly the samples
    whose radicand is not positive, so its counters are its two counts.
    """

    name: str
    suite: str
    tolerance: float
    advisory: bool = field(init=False)
    note: Optional[str] = None
    samples: int = 0
    skipped: int = 0
    failures: int = 0
    max_abs_residual: float = 0.0
    max_rel_residual: float = 0.0
    worst_case: Optional[dict] = None
    _worst_key: float = field(default=-1.0, repr=False)

    def __post_init__(self):
        self.advisory = self.name.startswith("diag_")

    @property
    def counters(self) -> dict:
        if not self.name.endswith("_radicand"):
            return {}
        return {"radicand_positive": self.samples, "radicand_nonpositive": self.skipped}

    def record(self, ctx: _Sample, abs_residual: float, rel_residual: float,
               p: Optional[BaryPoint] = None, q: Optional[BaryPoint] = None) -> None:
        self.samples += 1
        if not self.advisory and rel_residual > self.tolerance * ctx.tol_scale:
            self.failures += 1
        abs_residual = abs(abs_residual)
        if abs_residual > self.max_abs_residual:
            self.max_abs_residual = abs_residual
        if rel_residual > self.max_rel_residual:
            self.max_rel_residual = rel_residual
        # The reported worst case is the sample closest to failing, i.e. the
        # largest residual relative to its own effective tolerance.
        if self.advisory:
            key = rel_residual
        else:
            key = rel_residual / max(self.tolerance * ctx.tol_scale, 1e-300)
        if key > self._worst_key:
            self._worst_key = key
            self.worst_case = {
                "stratum": ctx.stratum,
                "sides": [float(v) for v in ctx.sides.as_tuple()],
                "p": [float(v) for v in p.as_tuple()] if p is not None else None,
                "q": [float(v) for v in q.as_tuple()] if q is not None else None,
            }

    def merge(self, part: CheckAccumulator) -> None:
        """Fold in the accumulator of the samples that follow this one's."""
        self.samples += part.samples
        self.skipped += part.skipped
        self.failures += part.failures
        if part.max_abs_residual > self.max_abs_residual:
            self.max_abs_residual = part.max_abs_residual
        if part.max_rel_residual > self.max_rel_residual:
            self.max_rel_residual = part.max_rel_residual
        if part._worst_key > self._worst_key:
            self._worst_key = part._worst_key
            self.worst_case = part.worst_case

    @property
    def passed(self) -> bool:
        return self.advisory or self.failures == 0

    def to_data(self) -> dict:
        data = {
            "name": self.name,
            "suite": self.suite,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "skipped": self.skipped,
            "failures": self.failures,
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "worst_case": self.worst_case,
            "pass": self.passed,
        }
        if self.advisory:
            data["advisory"] = True
        if self.note is not None:
            data["note"] = self.note
        counters = self.counters
        if counters:
            data["counters"] = counters
        return data


class VerificationReport(NamedTuple):
    """Outcome of one run_fuzz call; serializes deterministically."""

    config: FuzzConfig
    checks: list
    contexts: int

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failed_names(self) -> tuple:
        return tuple(check.name for check in self.checks if not check.passed)

    def to_data(self) -> dict:
        return {
            "config": {
                "count": self.config.count,
                "seed": self.config.seed,
                "strata": list(self.config.strata),
                "suites": list(self.config.enabled_suites()),
                "tolerance_scale": self.config.tolerance_scale,
                "exact_stride": self.config.exact_stride,
                "corpus_rows": len(self.config.corpus),
            },
            "checks": [check.to_data() for check in self.checks],
            "summary": {
                "contexts": self.contexts,
                "checks": len(self.checks),
                "failed_checks": len(self.failed_names),
                "pass": self.passed,
            },
        }

    def to_json(self) -> str:
        return dumps(self.to_data()) + "\n"


# ---------------------------------------------------------------------------
# the check registry and its helpers

_CHECKS = []


def _check(suite: str, tolerance: float, note: Optional[str] = None):
    """Register the decorated function as the check named after it.

    The function takes a _Sample and returns None to skip it, or
    (abs_residual, rel_residual[, p[, q]]) to record it.
    """
    def register(run):
        _CHECKS.append((run, suite, tolerance, note))
        return run
    return register


def _parts_agree(parts_one, parts_two) -> bool:
    """Exact coherence of two (numerator, radicand) pairs.

    cos = num / sqrt(rad) agree exactly when the numerators share a sign
    and num1^2 rad2 == num2^2 rad1; this never takes a square root, so it
    stays inside rational arithmetic.
    """
    num1, rad1 = parts_one
    num2, rad2 = parts_two
    if (num1 > 0) != (num2 > 0) or (num1 < 0) != (num2 < 0):
        return False
    return num1 * num1 * rad2 == num2 * num2 * rad1


def _exact(ok: bool, miss: float = 1.0) -> tuple:
    """Residuals of an exact identity: zero when it holds, else (miss, 1)."""
    return (0.0, 0.0) if ok else (miss, 1.0)


def _rel_gap(got, expected, floor):
    """|got - expected| relative to |expected|, or to floor when that is larger."""
    return abs(got - expected) / max(abs(expected), floor)


def _short_leg(report, ctx: _Sample) -> bool:
    """The angle is undefined, or one leg is too short to compare its cosine."""
    return report.cos_value is None or min(report.op_sq, report.oq_sq) < ctx.min_leg


def _closed_vs_general(ctx: _Sample, p: BaryPoint, q: BaryPoint, closed):
    """A closed form in the triangle's elements against the general cos POQ."""
    report = cos_angle_at_circumcenter(p, q, ctx.sides)
    if _short_leg(report, ctx) or ctx.elements.is_equilateral:
        return None
    diff = closed(ctx.elements) - report.cos_value
    return diff, abs(diff)


def _collinear_equality(ctx: _Sample, x_xy, expected_cos: float):
    """For X on line OP, cos POX is +1 or -1 and the middle term meets a bound.

    X beyond O (cos -1) meets the lower bound, X on P's side the upper one.
    """
    if oracle.dist_sq(ctx.p_xy, ctx.o_xy) < 4.0 * ctx.min_leg:
        return None
    x = BaryPoint(*oracle.cartesian_to_barycentric(x_xy, ctx.placement))
    report = cos_angle_at_circumcenter(ctx.p_pt, x, ctx.sides)
    if report.cos_value is None:
        return None
    bounds = report.bounds
    middle = float(bounds.middle)
    bound = bounds.upper if expected_cos > 0 else bounds.lower
    rel = max(abs(report.cos_value - expected_cos),
              abs(middle - bound) / max(1.0, ctx.r_sq, abs(middle)))
    return rel, rel, ctx.p_pt


# -- kernel ----------------------------------------------------------------


@_check("kernel", 1e-9)
def kernel_dist_sq_vs_oracle(ctx):
    expected = oracle.dist_sq(ctx.p_xy, ctx.q_xy)
    diff = ctx.pq_dist_sq - expected
    return diff, abs(diff) / max(1.0, ctx.r_sq, abs(expected)), ctx.p_pt, ctx.q_pt


@_check("kernel", 1e-9)
def kernel_circum_power_vs_oracle(ctx):
    expected = ctx.oracle_r_sq - oracle.dist_sq(ctx.p_xy, ctx.o_xy)
    a_sq, b_sq, c_sq = side_squares(ctx.sides)
    n1, n2, n3 = ctx.p_pt.normalized()
    term_scale = max(abs(n2 * n3 * a_sq), abs(n3 * n1 * b_sq), abs(n1 * n2 * c_sq))
    diff = ctx.p_power - expected
    return diff, abs(diff) / max(1.0, ctx.r_sq, abs(expected), term_scale), ctx.p_pt


@_check("kernel", 1e-9)
def kernel_cos_vs_oracle(ctx):
    report = ctx.pq_report
    if _short_leg(report, ctx):
        return None
    try:
        expected = oracle.angle_cos(ctx.o_xy, ctx.p_xy, ctx.q_xy, min_leg_sq=ctx.min_leg)
    except UndefinedAngle:
        return None
    diff = report.cos_value - expected
    return diff, abs(diff), ctx.p_pt, ctx.q_pt


@_check("kernel", 1e-12)
def kernel_point_nonnegativity(ctx):
    viol = max(0.0, -ctx.pq_dist_sq, -(ctx.r_sq - ctx.p_power))
    return viol, viol / ctx.r_sq, ctx.p_pt, ctx.q_pt


@_check("kernel", 1e-9)
def kernel_lagrange_vs_circum_power(ctx):
    r_sq, power = ctx.r_sq, ctx.p_power
    lag_o = lagrange_point_dist_sq(ctx.p_pt, r_sq, r_sq, r_sq, ctx.sides)
    diff = (r_sq - lag_o) - power
    return diff, abs(diff) / max(1.0, r_sq, abs(power), abs(lag_o)), ctx.p_pt


@_check("kernel", 1e-9)
def kernel_lagrange_vertex_reference(ctx):
    _, b_sq, c_sq = side_squares(ctx.sides)
    expected = oracle.dist_sq(ctx.p_xy, ctx.placement.a_xy)
    diff = lagrange_point_dist_sq(ctx.p_pt, 0.0, c_sq, b_sq, ctx.sides) - expected
    return diff, abs(diff) / max(1.0, ctx.r_sq, abs(expected)), ctx.p_pt


@_check("kernel", 1e-12)
def kernel_bergstrom_slack_nonneg(ctx):
    pos = ctx.pos_pt
    viol = max(0.0, -(circum_power(pos, ctx.sides) - bergstrom_bound(pos, ctx.sides)))
    return viol, viol / ctx.r_sq, pos


@_check("kernel", 1e-10)
def kernel_bergstrom_equality_at_tangency(ctx):
    sides = ctx.sides
    tangent = BaryPoint(sides.a, sides.b, sides.c)
    residual = circum_power(tangent, sides) - bergstrom_bound(tangent, sides)
    return residual, abs(residual) / ctx.r_sq


@_check("kernel", 1e-12)
def kernel_scale_invariance(ctx):
    p, lam, power, dist = ctx.p_pt, ctx.lam, ctx.p_power, ctx.pq_dist_sq
    scaled = BaryPoint(p.t1 * lam, p.t2 * lam, p.t3 * lam)
    diff_cp = circum_power(scaled, ctx.sides) - power
    diff_d = dist_sq_between(scaled, ctx.q_pt, ctx.sides) - dist
    rel = max(abs(diff_cp) / max(1.0, abs(power)), abs(diff_d) / max(1.0, abs(dist)))
    return max(abs(diff_cp), abs(diff_d)), rel, p


@_check("kernel", 0.0)
def kernel_exact_scale_invariance(ctx):
    es = ctx.exact_sides
    k, l, m = ctx.rank_ints
    p = BaryPoint(Fraction(k + 4), Fraction(l + 5), Fraction(m + 6))
    q = BaryPoint(Fraction(m + 5), Fraction(k + 5), Fraction(l + 5))
    power, dist = circum_power(p, es), dist_sq_between(p, q, es)
    ok = True
    for factor in (Fraction(2), Fraction(-1)):
        scaled = BaryPoint(p.t1 * factor, p.t2 * factor, p.t3 * factor)
        ok = ok and circum_power(scaled, es) == power and dist_sq_between(scaled, q, es) == dist
    return _exact(ok)


@_check("kernel", 1e-10)
def kernel_euler_chain_powers(ctx):
    big_r, in_r = ctx.elements.circumradius, ctx.elements.inradius
    cp_i = circum_power(ctx.incenter_pt, ctx.sides)
    cp_n = circum_power(ctx.nagel_pt, ctx.sides)
    exp_i = 2.0 * big_r * in_r
    exp_n = 4.0 * big_r * in_r - 4.0 * in_r * in_r
    return (max(abs(cp_i - exp_i), abs(cp_n - exp_n)),
            max(_rel_gap(cp_i, exp_i, ctx.min_leg), _rel_gap(cp_n, exp_n, ctx.min_leg)))


@_check("kernel", 1e-11)
def kernel_side_product_identities(ctx):
    sides, el = ctx.sides, ctx.elements
    s, in_r = el.semiperimeter, el.inradius
    lhs1 = (s - sides.a) * (s - sides.b) * (s - sides.c)
    rhs1 = in_r * in_r * s
    lhs2 = sides.a * sides.b * sides.c
    rhs2 = 4.0 * el.circumradius * in_r * s
    return (max(abs(lhs1 - rhs1), abs(lhs2 - rhs2)),
            max(_rel_gap(lhs1, rhs1, 1e-12 * ctx.r_sq), abs(lhs2 - rhs2) / abs(rhs2)))


@_check("kernel", 1e-9)
def kernel_relabel_invariance(ctx):
    sides = ctx.sides
    rotated = TriangleSides(sides.b, sides.c, sides.a)
    k, l, m = ctx.rank_ints
    pairs = (
        (ctx.incenter_pt, incenter(rotated)),
        (ctx.nagel_pt, nagel_point(rotated)),
        (ctx.lemoine_pt, lemoine_point(rotated)),
        (cevian_rank(k, l, m, sides), cevian_rank(k, l, m, rotated)),
        (excenter("B", sides), excenter("A", rotated)),
        (adjoint_nagel("B", sides), adjoint_nagel("A", rotated)),
    )
    worst = 0.0
    for original, relabeled in pairs:
        xy = oracle.barycentric_to_cartesian(original.as_tuple(), ctx.placement)
        w1, w2, w3 = relabeled.as_tuple()
        xy_rot = oracle.barycentric_to_cartesian((w3, w1, w2), ctx.placement)
        worst = max(worst, math.sqrt(oracle.dist_sq(xy, xy_rot) / ctx.r_sq))
    return worst, worst


@_check("kernel", 1e-9)
def kernel_foot_ratio_vs_oracle(ctx):
    pos, placement = ctx.pos_pt, ctx.placement
    foot_d, _, _ = cevian_triangle(pos)
    d_xy = oracle.barycentric_to_cartesian(foot_d.as_tuple(), placement)
    lhs = oracle.dist_sq(placement.b_xy, d_xy) * pos.t2 * pos.t2
    rhs = oracle.dist_sq(d_xy, placement.c_xy) * pos.t3 * pos.t3
    return abs(lhs - rhs), abs(lhs - rhs) / max(lhs, rhs, 1e-12 * ctx.r_sq), pos


# -- classical -------------------------------------------------------------


@_check("classical", 1e-10)
def classical_closed_vs_general(ctx):
    return _closed_vs_general(ctx, ctx.incenter_pt, ctx.nagel_pt, classical_cos_ION)


@_check("classical", 1e-10)
def classical_fundamental_nonneg(ctx):
    s = ctx.elements.semiperimeter
    viol = max(0.0, -fundamental_residual(ctx.elements))
    return viol, viol / (s * s)


@_check("classical", 0.0)
def classical_fundamental_slack_exact(ctx):
    slack = fundamental_slack_sq(ctx.exact_sides)
    return _exact(slack >= 0, float(-slack))


@_check("classical", 1e-9)
def classical_bounds_sandwich(ctx):
    bounds = ctx.pq_report.bounds
    viol = max(0.0, abs(bounds.middle) - bounds.upper)
    return viol, viol / max(1.0, bounds.upper), ctx.p_pt, ctx.q_pt


@_check("classical", 1e-8)
def classical_collinear_opposite_equality(ctx):
    return _collinear_equality(ctx, oracle.reflect_through(ctx.p_xy, ctx.o_xy), -1.0)


@_check("classical", 1e-8)
def classical_collinear_same_side_equality(ctx):
    halfway = (0.5 * (ctx.p_xy[0] + ctx.o_xy[0]), 0.5 * (ctx.p_xy[1] + ctx.o_xy[1]))
    return _collinear_equality(ctx, halfway, 1.0)


@_check("classical", 1e-9)
def classical_nagel_line_ratio(ctx):
    ig_sq, in_sq = ctx.nagel_legs
    diff = 9.0 * ig_sq - in_sq
    return abs(diff), abs(diff) / max(in_sq, ctx.min_leg)


@_check("classical", 1e-8)
def classical_nagel_line_collinearity(ctx):
    if min(ctx.nagel_legs) < ctx.min_leg:
        return None
    try:
        along = triple_cevian_cos(ctx.incenter_pt, ctx.centroid_pt, ctx.nagel_pt, ctx.sides)
    except DegenerateVertexAngle:
        return None
    viol = abs(1.0 - abs(along))
    return viol, viol


@_check("classical", 1e-10)
def classical_rank01_closed_vs_general(ctx):
    return _closed_vs_general(ctx, ctx.centroid_pt, ctx.incenter_pt, centroid_incenter_cos)


@_check("classical", 1e-10)
def classical_rank12_closed_vs_general(ctx):
    return _closed_vs_general(ctx, ctx.incenter_pt, ctx.lemoine_pt, incenter_lemoine_cos)


@_check("classical", 1e-11)
def classical_power_sum_identities(ctx):
    el = ctx.elements
    s1 = power_sum(ctx.sides, 1)
    s2 = power_sum(ctx.sides, 2)
    exp_s1 = 2.0 * el.semiperimeter
    exp_s2 = 2.0 * (el.semiperimeter * el.semiperimeter - el.inradius * el.inradius
                    - 4.0 * el.circumradius * el.inradius)
    return (max(abs(s1 - exp_s1), abs(s2 - exp_s2)),
            max(abs(s1 - exp_s1) / exp_s1, abs(s2 - exp_s2) / s2))


@_check("classical", 0.0)
def classical_parts_exact_identity(ctx):
    es = ctx.exact_sides
    inc, cen = incenter(es), centroid(es)
    rank01 = centroid_incenter_cos_parts(es)
    return _exact(
        _parts_agree(general_cos_parts(inc, nagel_point(es), es), classical_cos_parts(es))
        and _parts_agree(general_cos_parts(cen, inc, es), rank01)
        and _parts_agree(rank_pair_parts(0, 1, es), rank01)
        and _parts_agree(rank_pair_parts(1, 2, es), incenter_lemoine_cos_parts(es)))


@_check("classical", 0.0, note=(
    "closed-form variant carrying an extra factor 2; residual is the "
    "distance of its ratio to the trusted value from one half"))
def diag_incenter_lemoine_halved(ctx):
    if ctx.elements.is_equilateral:
        return None
    trusted = incenter_lemoine_cos(ctx.elements)
    if abs(trusted) < 1e-6:
        return None
    gap = abs(incenter_lemoine_cos_halved(ctx.elements) / trusted - 0.5)
    return gap, gap


@_check("classical", 0.0, note=(
    "closed-form variant whose second radicand mixes scale degrees; "
    "counters show how often it is non-positive, and real values land "
    "outside [-1, 1]"))
def diag_centroid_lemoine_radicand(ctx):
    variant = centroid_lemoine_cos_variant(ctx.elements)
    if variant is None:
        return None
    return abs(variant), abs(variant)


# -- dual ------------------------------------------------------------------


@_check("dual", 1e-10)
def dual_closed_vs_general(ctx):
    worst, worst_pt = 0.0, None
    for vertex, exc, _, _, report in ctx.dual_rows:
        diff = abs(excenter_adjoint_cos(vertex, ctx.elements) - report.cos_value)
        if diff > worst:
            worst, worst_pt = diff, exc
    return worst, worst, worst_pt


@_check("dual", 1e-9)
def dual_excenter_power_identity(ctx):
    big_r, floor = ctx.elements.circumradius, 1e-12 * ctx.r_sq
    worst = max(0.0, *(_rel_gap(circum_power(exc, ctx.sides), -2.0 * big_r * r_v, floor)
                       for _, exc, _, r_v, _ in ctx.dual_rows))
    return worst, worst


@_check("dual", 1e-9)
def dual_adjoint_power_identity(ctx):
    big_r, floor = ctx.elements.circumradius, 1e-12 * ctx.r_sq
    worst = max(0.0, *(_rel_gap(circum_power(adj, ctx.sides),
                                -4.0 * big_r * r_v - 4.0 * r_v * r_v, floor)
                       for _, _, adj, r_v, _ in ctx.dual_rows))
    return worst, worst


@_check("dual", 1e-9)
def dual_leg_identities(ctx):
    big_r = ctx.elements.circumradius
    worst = 0.0
    for _, _, _, r_v, report in ctx.dual_rows:
        exp_oi = ctx.r_sq + 2.0 * big_r * r_v
        exp_on = (big_r + 2.0 * r_v) ** 2
        worst = max(worst, abs(float(report.op_sq) - exp_oi) / exp_oi,
                    abs(float(report.oq_sq) - exp_on) / exp_on)
    return worst, worst


@_check("dual", 1e-9)
def dual_bound_nonneg(ctx):
    big_r = ctx.elements.circumradius
    worst = max(0.0, *(max(0.0, -dual_bound_residual(vertex, ctx.elements))
                       / max(ctx.r_sq, big_r * r_v)
                       for vertex, _, _, r_v, _ in ctx.dual_rows))
    return worst, worst


@_check("dual", 0.0)
def dual_slack_exact(ctx):
    return _exact(all(dual_slack_sq(vertex, ctx.exact_sides) >= 0 for vertex in VERTICES))


@_check("dual", 0.0)
def dual_parts_exact_identity(ctx):
    es = ctx.exact_sides
    general = general_cos_parts(excenter("A", es), adjoint_nagel("A", es), es)
    return _exact(_parts_agree(general, dual_cos_parts("A", es)))


@_check("dual", 1e-10)
def dual_exradii_identity(ctx):
    lhs, rhs = exradii_identity_parts(ctx.sides)
    return abs(lhs - rhs), abs(lhs - rhs) / abs(rhs)


@_check("dual", 0.0)
def dual_exradii_exact(ctx):
    lhs, rhs = exradii_identity_parts(ctx.exact_sides)
    return _exact(lhs - rhs == 0, abs(float(lhs - rhs)))


@_check("dual", 1e-12)
def dual_adjoint_weight_sums(ctx):
    s = ctx.elements.semiperimeter
    worst = max(0.0, *(_rel_gap(adj.t1 + adj.t2 + adj.t3, s - side, 1e-6 * s)
                       for (_, _, adj, _, _), side in zip(ctx.dual_rows, ctx.sides.as_tuple())))
    return worst, worst


# -- cevian ----------------------------------------------------------------


@_check("cevian", 1e-9)
def cevian_rank_pair_vs_general(ctx):
    k1, k2 = ctx.rank_pair
    try:
        got = rank_pair_cos(k1, k2, ctx.sides)
    except UndefinedAngle:
        return None
    p = cevian_rank(k1, 0, 0, ctx.sides)
    q = cevian_rank(k2, 0, 0, ctx.sides)
    report = cos_angle_at_circumcenter(p, q, ctx.sides)
    if _short_leg(report, ctx):
        return None
    diff = got - report.cos_value
    return diff, abs(diff), p, q


@_check("cevian", 1e-12)
def cevian_rank_special_points(ctx):
    worst = 0.0
    for exponent, named in ((1, ctx.incenter_pt), (0, ctx.centroid_pt), (2, ctx.lemoine_pt)):
        got = cevian_rank(exponent, 0, 0, ctx.sides).normalized()
        worst = max(worst, max(abs(g - e) for g, e in zip(got, named.normalized())))
    return worst, worst


@_check("cevian", 1e-9)
def cevian_triple_vs_oracle(ctx):
    if ctx.triple_cos is None:
        return None
    try:
        expected = oracle.angle_cos(ctx.q_xy, ctx.p_xy, ctx.extra_xy, min_leg_sq=ctx.min_leg)
    except UndefinedAngle:
        return None
    diff = ctx.triple_cos - expected
    return diff, abs(diff), ctx.p_pt, ctx.q_pt


@_check("cevian", 1e-9)
def cevian_feet_cos_vs_oracle(ctx):
    foot_d, foot_e, _ = cevian_triangle(ctx.pos_pt)
    report = cos_angle_at_circumcenter(foot_d, foot_e, ctx.sides)
    if _short_leg(report, ctx):
        return None
    d_xy = oracle.barycentric_to_cartesian(foot_d.as_tuple(), ctx.placement)
    e_xy = oracle.barycentric_to_cartesian(foot_e.as_tuple(), ctx.placement)
    try:
        expected = oracle.angle_cos(ctx.o_xy, d_xy, e_xy, min_leg_sq=ctx.min_leg)
    except UndefinedAngle:
        return None
    diff = report.cos_value - expected
    return diff, abs(diff), ctx.pos_pt


@_check("cevian", 1e-12)
def cevian_triple_reversal(ctx):
    if ctx.triple_cos is None:
        return None
    diff = ctx.triple_cos - triple_cevian_cos(ctx.extra_pt, ctx.q_pt, ctx.p_pt, ctx.sides)
    return diff, abs(diff), ctx.p_pt, ctx.q_pt


@_check("cevian", 0.0, note=(
    "printed numerator expansion with one sign group flipped; residual "
    "is its distance to the trusted vertex-angle cosine"))
def diag_triple_expansion_sign(ctx):
    if ctx.triple_cos is None:
        return None
    try:
        variant = triple_cevian_cos_variant(ctx.p_pt, ctx.q_pt, ctx.extra_pt, ctx.sides)
    except DegenerateVertexAngle:
        return None
    gap = abs(variant - ctx.triple_cos)
    return gap, gap


def run_fuzz(config: FuzzConfig) -> VerificationReport:
    """Execute every enabled check over the configured strata."""
    return _run_fuzz(config, _worker_count(config.count))


def _worker_count(count: int) -> int:
    """The CPUs this process may run on, at most count.

    1 without os.fork, and while other threads run: a forked child gets only
    the calling thread, and any lock another thread held stays locked in it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, count)


def _run_fuzz(config: FuzzConfig, workers: int) -> VerificationReport:
    """run_fuzz with its samples split over the given number of workers."""
    suites = config.enabled_suites()
    checks = [entry for entry in _CHECKS if entry[1] in suites]
    strata = [(stratum, config.count) for stratum in config.strata]
    if config.corpus:
        strata.append(("corpus", len(config.corpus)))
    children = []
    try:
        for worker in range(1, workers):
            children.append(_fork_share(config, checks, strata, worker, workers))
        shares = [_run_share(config, checks, strata, 0, workers)]
        while children:
            shares.append(_join_share(*children.pop(0)))
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    return VerificationReport(config=config, checks=_merge(checks, strata, shares),
                              contexts=sum(total for _, total in strata))


def _accumulators(checks) -> list:
    return [CheckAccumulator(run.__name__, suite, tolerance, note)
            for run, suite, tolerance, note in checks]


def _run_share(config: FuzzConfig, checks, strata, worker: int, workers: int) -> tuple:
    """Slice worker of workers of every stratum, as (slices, error).

    slices holds one accumulator list per stratum finished; error is the
    exception that stopped the share in the next stratum, or None.
    """
    slices = []
    try:
        for stratum, total in strata:
            accs = _accumulators(checks)
            active = [(run, tolerance == 0.0 and not acc.advisory, acc)
                      for (run, _, tolerance, _), acc in zip(checks, accs)]
            for index in range(total * worker // workers, total * (worker + 1) // workers):
                ctx = _Sample(stratum, index, config)
                for run, exact, acc in active:
                    if exact and not ctx.exact_now:
                        continue
                    result = run(ctx)
                    if result is None:
                        acc.skipped += 1
                    else:
                        acc.record(ctx, *result)
            slices.append(accs)
    except Exception as exc:
        return slices, exc
    return slices, None


def _fork_share(config: FuzzConfig, checks, strata, worker: int, workers: int) -> tuple:
    """Fork a child that pickles its share into a pipe; returns (pid, read end)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns: os._exit skips the inherited stdio
        # buffers and exit handlers, which belong to the parent.
        status = 1
        try:
            os.close(read_fd)
            share = _run_share(config, checks, strata, worker, workers)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(share))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _join_share(pid: int, read_fd: int) -> tuple:
    """Read a child's share to EOF, then reap the child."""
    try:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"verify worker {pid} ended without a result (wait status {status})")
    return pickle.loads(payload)


def _merge(checks, strata, shares) -> list:
    """Fold the shares' slices in (stratum, slice) order into one accumulator per check.

    A share that stopped in a stratum re-raises its error there: in that
    order it is the first error a serial pass would have met.
    """
    merged = _accumulators(checks)
    for stratum in range(len(strata)):
        for slices, error in shares:
            if stratum == len(slices):
                raise error
            for total, part in zip(merged, slices[stratum]):
                total.merge(part)
    return merged
