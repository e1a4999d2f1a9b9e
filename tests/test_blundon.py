"""Engine tests: angle reports, closed forms, inequality slacks, diagnostics.

Frozen (3, 4, 5) fixtures (all reproduced by the Cartesian oracle):
OI^2 = 1.25, ON^2 = 0.25, IN^2 = 1, cos ION = 0.4472135954999579,
dual cosines (A, B, C) = (-0.96365..., -0.96342..., -0.99940...),
rank (0,1) cos = 0.98386991..., corrected rank (1,2) cos = 0.99792530...
"""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tribary import blundon, centers, kernel, oracle
from tribary.errors import (
    DegenerateTriangle,
    DegenerateVertexAngle,
    EquilateralDegenerate,
    GeometryError,
    UndefinedAngle,
)
from tribary.kernel import BaryPoint, TriangleSides

RIGHT = TriangleSides(3.0, 4.0, 5.0)
RIGHT_EL = kernel.derive_elements(RIGHT)
EXACT_RIGHT = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
INCENTER = BaryPoint(3.0, 4.0, 5.0)
NAGEL = BaryPoint(3.0, 2.0, 1.0)
CENTROID = BaryPoint(1.0, 1.0, 1.0)
LEMOINE = BaryPoint(9.0, 16.0, 25.0)


def random_sides(rng: random.Random) -> TriangleSides:
    while True:
        x, y, z = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        if x + y > z * (1.0 + 1e-9):
            scale = 2.0 / (x + y + z)
            return TriangleSides(x * scale, y * scale, z * scale)


def oracle_cos_at_o(p: BaryPoint, q: BaryPoint, sides: TriangleSides) -> float:
    placement = oracle.place_triangle(*(float(v) for v in sides.as_tuple()))
    center = oracle.circumcenter_xy(placement)
    return oracle.angle_cos(
        center,
        oracle.barycentric_to_cartesian(p.as_tuple(), placement),
        oracle.barycentric_to_cartesian(q.as_tuple(), placement),
    )


class TestAngleReport:
    def test_incenter_nagel_fixture(self):
        report = blundon.cos_angle_at_circumcenter(INCENTER, NAGEL, RIGHT)
        assert report.cos_value == pytest.approx(0.4472135954999579, abs=1e-15)
        assert report.op_sq == pytest.approx(1.25)
        assert report.oq_sq == pytest.approx(0.25)
        assert report.pq_sq == pytest.approx(1.0)
        assert report.bounds.middle == pytest.approx(0.5)
        assert report.bounds.upper == pytest.approx(2.0 * math.sqrt(0.3125))
        assert report.bounds.lower == pytest.approx(-report.bounds.upper)
        assert report.classification == blundon.CLASS_GENERIC

    def test_same_point_is_collinear_same_side(self):
        q = BaryPoint(6.0, 8.0, 10.0)
        report = blundon.cos_angle_at_circumcenter(INCENTER, q, RIGHT)
        assert report.cos_value == 1.0
        assert report.pq_sq == 0.0
        assert report.classification == blundon.CLASS_COLLINEAR_SAME_SIDE
        assert report.bounds.middle == pytest.approx(report.bounds.upper)

    def test_equilateral_incenter_is_undefined(self):
        sides = TriangleSides(1.0, 1.0, 1.0)
        report = blundon.cos_angle_at_circumcenter(
            BaryPoint(1.0, 1.0, 1.0), BaryPoint(2.0, 1.0, 1.0), sides
        )
        assert report.classification == blundon.CLASS_UNDEFINED
        assert report.cos_value is None

    def test_isosceles_axis_pair_is_collinear(self):
        sides = TriangleSides(5.0, 5.0, 6.0)
        report = blundon.cos_angle_at_circumcenter(
            centers.incenter(sides), centers.nagel_point(sides), sides
        )
        assert report.classification == blundon.CLASS_COLLINEAR_SAME_SIDE
        assert report.cos_value == pytest.approx(1.0)

    def test_swap_symmetry_is_exact(self):
        rng = random.Random(11)
        for _ in range(50):
            sides = random_sides(rng)
            p = BaryPoint(*(rng.uniform(-2, 2) for _ in range(3)))
            q = BaryPoint(*(rng.uniform(-2, 2) for _ in range(3)))
            one = blundon.cos_angle_at_circumcenter(p, q, sides)
            two = blundon.cos_angle_at_circumcenter(q, p, sides)
            assert one.cos_value == two.cos_value
            assert one.bounds == two.bounds

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_bounds_sandwich_and_cos_consistency(self, seed):
        rng = random.Random(seed)
        sides = random_sides(rng)
        p = BaryPoint(*(rng.uniform(-2, 2) for _ in range(3)))
        q = BaryPoint(*(rng.uniform(-2, 2) for _ in range(3)))
        report = blundon.cos_angle_at_circumcenter(p, q, sides)
        if report.classification == blundon.CLASS_UNDEFINED:
            return
        slack = 1e-9 * max(1.0, report.bounds.upper)
        assert report.bounds.lower - slack <= report.bounds.middle <= report.bounds.upper + slack
        assert report.cos_value == pytest.approx(
            report.bounds.middle / report.bounds.upper, abs=1e-9
        )
        assert abs(report.cos_value) <= 1.0

    def test_exact_mode_keeps_squared_fields_rational(self):
        p = BaryPoint(Fraction(3), Fraction(4), Fraction(5))
        q = BaryPoint(Fraction(3), Fraction(2), Fraction(1))
        report = blundon.cos_angle_at_circumcenter(p, q, EXACT_RIGHT)
        assert report.op_sq == Fraction(5, 4)
        assert report.oq_sq == Fraction(1, 4)
        assert report.pq_sq == Fraction(1)
        assert report.bounds.middle == Fraction(1, 2)
        assert report.cos_value == pytest.approx(0.4472135954999579)

    @pytest.mark.parametrize("scale", ["1e-200", "1e200"])
    def test_exact_legs_outside_float_range_raise(self, scale):
        unit = Fraction(scale)
        sides = TriangleSides(unit, unit, Fraction(3, 2) * unit)
        with pytest.raises(DegenerateTriangle):
            blundon.cos_angle_at_circumcenter(
                centers.incenter(sides), centers.nagel_point(sides), sides)

    @pytest.mark.parametrize("p", [BaryPoint(1e200, -1e200, 1.0), BaryPoint(1e308, -1e308, 1.0)])
    def test_float_legs_outside_float_range_raise(self, p):
        # OP^2 overflows to inf and the middle to nan; clamping nan once reported cos 1.0
        for call in (blundon.cos_angle_at_circumcenter, blundon.blundon_bounds,
                     blundon.general_cos_parts):
            with pytest.raises(DegenerateTriangle, match="float range"):
                call(p, INCENTER, RIGHT)

    @pytest.mark.parametrize("sides, delta, want", [
        (EXACT_RIGHT, Fraction(1, 10**6) * (1 - Fraction(1, 10**9)), blundon.CLASS_UNDEFINED),
        (EXACT_RIGHT, Fraction(1, 10**6) * (1 + Fraction(1, 10**9)),
         blundon.CLASS_COLLINEAR_SAME_SIDE),
        (TriangleSides(Fraction(7), Fraction(8), Fraction(13)),
         Fraction(1, 10**6) * (1 - Fraction(1, 10**9)), blundon.CLASS_UNDEFINED),
        (TriangleSides(Fraction(7), Fraction(8), Fraction(13)),
         Fraction(1, 10**6) * (1 + Fraction(1, 10**9)), blundon.CLASS_COLLINEAR_SAME_SIDE),
        (RIGHT, 0.99e-6, blundon.CLASS_UNDEFINED),
        (RIGHT, 1.01e-6, blundon.CLASS_COLLINEAR_SAME_SIDE),
    ])
    def test_undefined_threshold_sides(self, sides, delta, want):
        # P = Q = O + delta (A - O), so OP^2 OQ^2 = delta^4 R^4 against EPS_ANGLE^2 R^4:
        # undefined exactly when delta <= 1e-6
        center = centers.circumcenter_point(sides).normalized()
        p = BaryPoint(*((1 - delta) * o + delta * v for o, v in zip(center, (1, 0, 0))))
        report = blundon.cos_angle_at_circumcenter(p, p, sides)
        assert report.op_sq == pytest.approx(delta * delta * sides.r_sq, rel=1e-6)
        assert report.classification == want

    def test_mixed_exact_legs_outside_float_range_raise(self):
        # Fraction and int weights take the generic path with legs near 1e400
        p = BaryPoint(Fraction(10**200), -(10**200), 1)
        with pytest.raises(DegenerateTriangle, match="float range"):
            blundon.cos_angle_at_circumcenter(p, BaryPoint(Fraction(3), 4, 5), EXACT_RIGHT)

    def test_bounds_helper_matches_report(self):
        triple = blundon.blundon_bounds(INCENTER, NAGEL, RIGHT)
        report = blundon.cos_angle_at_circumcenter(INCENTER, NAGEL, RIGHT)
        assert triple == report.bounds


def _exact_triangle(rng: random.Random, kind: str) -> TriangleSides:
    """Rational sides: uniform, near-equilateral, integer, or scaled by 10**+-150."""
    if kind == "near_equilateral":
        d = Fraction(rng.randint(1, 9), 10 ** rng.randint(3, 14))
        return TriangleSides(Fraction(1), 1 + d * rng.randint(0, 3), 1 + d)
    if kind == "integer":
        while True:
            x, y, z = sorted(Fraction(rng.randint(1, 60)) for _ in range(3))
            if x + y > z:
                return TriangleSides(x, y, z)
    while True:
        x, y, z = sorted(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(3))
        if x + y > z * Fraction(1001, 1000):
            unit = Fraction(10) ** rng.randint(-150, 150) if kind == "scaled" else 1
            return TriangleSides(x * unit, y * unit, z * unit)


def _exact_point(rng: random.Random, sides: TriangleSides) -> BaryPoint:
    """A Fraction point of one of the kinds that stress the integer route."""
    kind = rng.randrange(6)
    if kind == 0:  # within about 1e-15 .. 1e-40 of O
        o1, o2, o3 = centers.circumcenter_point(sides).normalized()
        d = Fraction(rng.randint(1, 9), 10 ** rng.choice((15, 16, 20, 40)))
        return BaryPoint(o1 + d, o2 - 2 * d, o3 + d)
    if kind == 1:
        return centers.circumcenter_point(sides)
    if kind == 2:
        return centers.excenter(rng.choice("ABC"), sides)
    if kind == 3:
        return centers.cevian_rank(*(rng.randint(-3, 3) for _ in range(3)), sides)
    while True:  # raw weights, a third of them with a zero weight
        w = [Fraction(rng.randint(-2000, 2000), rng.choice((1, 7, 1000, 10**9))) for _ in range(3)]
        if kind == 4:
            w[rng.randrange(3)] = Fraction(0)
        if sum(w) != 0:
            return BaryPoint(*w)


def _through_o(sides: TriangleSides, p: BaryPoint, weight: Fraction) -> BaryPoint:
    """The point O + weight (P - O), exactly."""
    o = centers.circumcenter_point(sides).normalized()
    return BaryPoint(*(oi + weight * (ni - oi) for oi, ni in zip(o, p.normalized())))


class TestIntegerRoute:
    """Fraction sides and weights take blundon's cleared-denominator route."""

    def test_legs_and_parts_match_the_kernel(self):
        rng = random.Random(20261018)
        kinds = ("uniform", "near_equilateral", "integer", "scaled")
        for i in range(400):
            sides = _exact_triangle(rng, kinds[i % len(kinds)])
            p, q = _exact_point(rng, sides), _exact_point(rng, sides)
            r_sq = kernel.circumradius_sq(sides)
            op_sq = r_sq - kernel.circum_power(p, sides)
            oq_sq = r_sq - kernel.circum_power(q, sides)
            pq_sq = kernel.dist_sq_between(p, q, sides)
            parts = blundon.general_cos_parts(p, q, sides)
            assert parts == (op_sq + oq_sq - pq_sq, 4 * op_sq * oq_sq)
            assert all(type(v) is Fraction for v in parts)
            try:
                report = blundon.cos_angle_at_circumcenter(p, q, sides)
            except DegenerateTriangle:  # legs past the float range at sides 1e+-150
                continue
            assert (report.op_sq, report.oq_sq, report.pq_sq) == (op_sq, oq_sq, pq_sq)
            assert report.bounds.middle == parts[0]

    def test_mirror_and_halfway_points_are_exactly_collinear(self):
        rng = random.Random(7)
        for i in range(60):
            sides = _exact_triangle(rng, ("uniform", "integer", "near_equilateral")[i % 3])
            p = _exact_point(rng, sides)
            if blundon.cos_angle_at_circumcenter(p, p, sides).cos_value is None:
                continue  # P at O
            mirror = blundon.cos_angle_at_circumcenter(p, _through_o(sides, p, Fraction(-1)), sides)
            half = blundon.cos_angle_at_circumcenter(p, _through_o(sides, p, Fraction(1, 2)), sides)
            assert mirror.classification == blundon.CLASS_COLLINEAR_OPPOSITE_SIDE
            assert half.classification == blundon.CLASS_COLLINEAR_SAME_SIDE

    def test_near_collinear_is_generic_only_when_exact(self):
        third = Fraction(1, 100000)
        exact = blundon.cos_angle_at_circumcenter(
            BaryPoint(Fraction(1), Fraction(0), Fraction(0)),
            BaryPoint(Fraction(3), Fraction(1), third), EXACT_RIGHT)
        assert exact.classification == blundon.CLASS_GENERIC
        assert exact.cos_value > 1.0 - blundon.EPS_COLLINEAR  # the float rule would say collinear
        floats = blundon.cos_angle_at_circumcenter(
            BaryPoint(1.0, 0.0, 0.0), BaryPoint(3.0, 1.0, float(third)), RIGHT)
        assert floats.classification == blundon.CLASS_COLLINEAR_SAME_SIDE


_WEIGHT = st.integers(-10**6, 10**6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(1, 10**9)] * 3), st.tuples(*[_WEIGHT] * 3),
       st.tuples(*[_WEIGHT] * 3))
def test_clear_matches_the_quadratic_form(gaps, p, q):
    """_clear's N_P, N_Q, F_D and M equal their definitions in the _Cleared
    docstring, each written here through kernel._quadratic_form alone."""
    assume(sum(p) != 0 and sum(q) != 0)
    u, v, w = gaps  # the sides v + w, w + u, u + v always make a triangle
    x, y, z = v + w, w + u, u + v
    sides = TriangleSides(Fraction(x), Fraction(y), Fraction(z))
    p, q = BaryPoint(*map(Fraction, p)), BaryPoint(*map(Fraction, q))
    cleared = blundon._clear(p, q, sides)
    (p1, p2, p3), (q1, q2, q3) = p.ints, q.ints
    sp, sq = p1 + p2 + p3, q1 + q2 + q3
    form = lambda n: kernel._quadratic_form(n, x, y, z)  # noqa: E731
    n_p = sides.abc_sq * sp * sp - sides.h * form(p.ints)
    n_q = sides.abc_sq * sq * sq - sides.h * form(q.ints)
    f_d = form((sq * p1 - sp * q1, sq * p2 - sp * q2, sq * p3 - sp * q3))
    assert (cleared.n_p, cleared.n_q, cleared.f_d) == (n_p, n_q, f_d)
    assert cleared.m == n_p * sq * sq + n_q * sp * sp + sides.h * f_d


def _outcome(route, *args):
    """repr of the report, or the type and message of what it raised."""
    try:
        return repr(route(*args))
    except Exception as exc:  # noqa: BLE001 - both routes must raise alike
        return type(exc), str(exc)


_NUMBER = {
    "int": st.integers(-40, 40),
    "Fraction": st.builds(Fraction, st.integers(-4000, 4000), st.integers(1, 999)),
    "float": st.floats(-2.0, 2.0),
}


@st.composite
def _typed_input(draw):
    """(sides, three weight triples): int, Fraction or float sides from gaps u, v, w,
    and weights of any of those types, so that int sides, int, Fraction and mixed
    weights on Fraction sides, float weights on Fraction sides and Fraction
    weights on float sides all occur."""
    kind = draw(st.sampled_from(sorted(_NUMBER)))
    u, v, w = (abs(draw(_NUMBER[kind])) + 1 for _ in range(3))
    weights = [tuple(draw(_NUMBER[draw(st.sampled_from(sorted(_NUMBER)))]) for _ in range(3))
               for _ in range(3)]
    return (v + w, w + u, u + v), weights


def _converted_call(call, abc, weights):
    """call on the input converted by hand: every side and weight a Fraction when
    none is a float, else every one a float."""
    convert = float if float in {type(v) for v in (*abc, *sum(weights, ()))} else Fraction
    return call(*(BaryPoint(*map(convert, triple)) for triple in weights),
                TriangleSides(*map(convert, abc)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_typed_input(), st.sampled_from(["cos_angle_at_circumcenter", "general_cos_parts",
                                        "triple_cevian_cos", "triple_cevian_cos_variant"]))
@example(((Fraction(3), Fraction(4), Fraction(5)), [(3, 4, 5), (Fraction(3), 2, 1), (1, 1, 1)]),
         "cos_angle_at_circumcenter")  # int weights on Fraction sides are exact
@example(((3.0, 4.0, 5.0), [(Fraction(1, 3), 1, 1), (3, 4, 5), (1.0, 1.0, 1.0)]),
         "general_cos_parts")
@example(((Fraction(3), Fraction(4), Fraction(5)), [(Fraction(1, 3), 1, 1), (1.0, 2.0, 3.0),
                                                    (3, 1, 1)]), "triple_cevian_cos_variant")
def test_mixed_input_equals_the_call_in_one_mode(drawn, name):
    """Input that is neither all Fractions nor all floats gives the same repr, or
    the same exception and message, as the same call on the input converted by
    hand to its one number mode."""
    abc, weights = drawn
    weights = weights if name.startswith("triple") else weights[:2]
    call = getattr(blundon, name)
    try:
        sides, points = TriangleSides(*abc), [BaryPoint(*triple) for triple in weights]
    except GeometryError:
        assume(False)
    assert _outcome(call, *points, sides) == _outcome(_converted_call, call, abc, weights)


@st.composite
def _float_triangle(draw):
    """Float sides v + w, w + u, u + v, some nearly degenerate, scaled by 10**-50 .. 10**60."""
    u, v, w = (draw(st.floats(1e-9, 1.0)) for _ in range(3))
    scale = 10.0 ** draw(st.integers(-50, 60))
    return ((v + w) * scale, (w + u) * scale, (u + v) * scale)


@st.composite
def _float_weights(draw):
    """Float weights: plain, nearly cancelling, near 1e200, with a zero, or with two
    weights near 1e200 that cancel, which puts the legs past the float range."""
    kind = draw(st.integers(0, 4))
    w = [draw(st.floats(-2.0, 2.0)) for _ in range(3)]
    if kind == 1:
        w[2] = draw(st.floats(-1e-9, 1e-9)) - (w[0] + w[1])
    elif kind == 2:
        w = [x * 1e200 for x in w]
    elif kind == 3:
        w[draw(st.integers(0, 2))] = 0.0
    elif kind == 4:
        w[0] *= 1e200
        w[1] = -w[0] * (1.0 + draw(st.floats(-1e-12, 1e-12)))
    return tuple(w)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_float_triangle(), _float_weights(), _float_weights())
@example((3.0, 4.0, 5.0), (1e200, -1e200, 1.0), (3.0, 4.0, 5.0))  # OP^2 past the float range
@example((3e-50, 4e-50, 5e-50), (1e154, -1e154, 1.0), (-1e154, 1e154, 1.0))  # PQ^2 past it
@example((3.0, 4.0, 5.0), (1e100, -1e100, 1.0), (1e100, -1e100, 1.0))  # OP^2 OQ^2 past it
@example((3.0, 4.0, 5.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))  # a vertex with itself
@example((2.0, 2.0, 2.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0))  # O itself: undefined
def test_all_float_report_equals_the_legs_route(abc, p, q):
    """The all-float pass of cos_angle_at_circumcenter is bit for bit the reference
    _legs_report below: the same repr, or the same exception and message."""
    try:
        sides, p, q = TriangleSides(*abc), BaryPoint(*p), BaryPoint(*q)
    except GeometryError:
        assume(False)
    assert _outcome(blundon.cos_angle_at_circumcenter, p, q, sides) == _outcome(
        _legs_report, p, q, sides)


def _legs_report(p, q, sides):
    """The float report from the legs of kernel.circum_power and kernel.dist_sq_between,
    with the float pass's guards in their order and with their messages."""
    op_sq = sides.r_sq - kernel.circum_power(p, sides)
    oq_sq = sides.r_sq - kernel.circum_power(q, sides)
    pq_sq = kernel.dist_sq_between(p, q, sides)
    middle, product = op_sq + oq_sq - pq_sq, op_sq * oq_sq
    if not (abs(product) < math.inf and abs(middle) < math.inf):
        raise DegenerateTriangle("OP^2, OQ^2 or PQ^2 exceeds the float range")
    if abs(product) < sys.float_info.min and op_sq and oq_sq:
        raise DegenerateTriangle("OP^2 OQ^2 underflows the float range")
    upper = 2.0 * math.sqrt(max(product, 0.0))
    bounds = blundon.BoundTriple(-upper, middle, upper)
    if product <= blundon.EPS_ANGLE * blundon.EPS_ANGLE * sides.r_sq * sides.r_sq:
        return blundon.AngleReport(None, op_sq, oq_sq, pq_sq, bounds, blundon.CLASS_UNDEFINED)
    cos_value = max(-1.0, min(1.0, middle / upper))
    if 1.0 - cos_value <= blundon.EPS_COLLINEAR:
        classification = blundon.CLASS_COLLINEAR_SAME_SIDE
    elif 1.0 + cos_value <= blundon.EPS_COLLINEAR:
        classification = blundon.CLASS_COLLINEAR_OPPOSITE_SIDE
    else:
        classification = blundon.CLASS_GENERIC
    return blundon.AngleReport(cos_value, op_sq, oq_sq, pq_sq, bounds, classification)


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the count list."""
    calls, original = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_all_float_report_skips_the_kernel_metrics(monkeypatch):
    powers = _counted(monkeypatch, kernel, "circum_power")
    distances = _counted(monkeypatch, kernel, "dist_sq_between")
    blundon.cos_angle_at_circumcenter(INCENTER, NAGEL, RIGHT)
    assert (len(powers), len(distances)) == (0, 0)
    blundon.cos_angle_at_circumcenter(BaryPoint(3, 4, 5), NAGEL, RIGHT)  # int weights: floats
    assert (len(powers), len(distances)) == (0, 0)


HUGE_EQUILATERAL = TriangleSides(*[Fraction(10**200)] * 3)
HUGE_SCALENE = TriangleSides(Fraction(3 * 10**200), Fraction(4 * 10**200), Fraction(6 * 10**200))
# R^2 (about 1e200) fits a float; 4 eps^2 R^4 and the radicand 4 OP^2 OQ^2 do not.
LARGE_SCALENE = TriangleSides(Fraction(3 * 10**100), Fraction(4 * 10**100), Fraction(6 * 10**100))
R_SQ_OVERFLOW = DegenerateTriangle("R^2 exceeds the float range")


@pytest.mark.parametrize("sides, call, outcome", [
    (HUGE_EQUILATERAL, lambda s: blundon.cos_angle_at_circumcenter(
        centers.incenter(s), centers.nagel_point(s), s).classification, blundon.CLASS_UNDEFINED),
    (HUGE_EQUILATERAL, lambda s: blundon.blundon_bounds(
        centers.incenter(s), centers.nagel_point(s), s), (0.0, 0, 0.0)),
    (HUGE_SCALENE, lambda s: blundon.rank_pair_cos(0, 1, s), R_SQ_OVERFLOW),
    (HUGE_EQUILATERAL, lambda s: blundon.triple_cevian_cos(
        centers.incenter(s), centers.centroid(s), centers.lemoine_point(s), s), R_SQ_OVERFLOW),
    (LARGE_SCALENE, lambda s: blundon.rank_pair_cos(0, 1, s),
     DegenerateTriangle("OP^2 OQ^2 exceeds the float range")),
    (LARGE_SCALENE, lambda s: blundon.cos_angle_at_circumcenter(
        centers.centroid(s), centers.incenter(s), s),
     DegenerateTriangle("OP^2 OQ^2 exceeds the float range")),
    (HUGE_EQUILATERAL, lambda s: blundon.triple_cevian_cos_variant(
        centers.incenter(s), centers.centroid(s), centers.lemoine_point(s), s), R_SQ_OVERFLOW),
], ids=["cos_angle_at_circumcenter", "blundon_bounds", "rank_pair_cos", "triple_cevian_cos",
        "rank_pair_cos_radicand", "cos_angle_at_circumcenter_radicand",
        "triple_cevian_cos_variant"])
def test_exact_r_sq_past_the_float_range(sides, call, outcome):
    """An exact R^2, or an OP^2 OQ^2, that cannot be a float makes the vanishing-leg
    threshold infinite, or else raises DegenerateTriangle with the same message on
    every route, never UndefinedAngle or a bare OverflowError."""
    if isinstance(outcome, DegenerateTriangle):
        with pytest.raises(DegenerateTriangle, match=re.escape(str(outcome))):
            call(sides)
    else:
        assert call(sides) == outcome


def _tiny(scale):
    return TriangleSides(*(Fraction(v, scale) for v in (3, 4, 5)))


def _triple(function, first=centers.incenter):
    return lambda s: function(first(s), centers.centroid(s), centers.nagel_point(s), s)


_HALF_RANK = lambda s: centers.cevian_rank(Fraction(1, 2), 0, 0, s)  # noqa: E731  float weights
_UNDERFLOW = "OP^2 OQ^2 underflows the float range"
_FLOAT_IMAGE = "leave abc^2 or 16 area^2 outside the float range"
_DISTANCE_OVERFLOW = "a squared distance between the points exceeds the float range"
_PRODUCT_UNDERFLOW = "the product of two squared distances underflows the float range"


@pytest.mark.parametrize("sides, call, message", [
    (_tiny(10**200), lambda s: blundon.rank_pair_cos(0, 1, s), _UNDERFLOW),
    (_tiny(10**81), lambda s: blundon.rank_pair_cos(0, 1, s), _UNDERFLOW),  # a subnormal radicand
    (_tiny(10**150), _triple(blundon.triple_cevian_cos), _PRODUCT_UNDERFLOW),
    (_tiny(10**80), _triple(blundon.triple_cevian_cos, centers.lemoine_point), _PRODUCT_UNDERFLOW),
    (_tiny(10**150), _triple(blundon.triple_cevian_cos_variant), _PRODUCT_UNDERFLOW),
    # float weights on Fraction sides: the float image of the sides fails
    (HUGE_SCALENE, lambda s: blundon.general_cos_parts(_HALF_RANK(s), centers.incenter(s), s),
     _FLOAT_IMAGE),
    (HUGE_SCALENE, lambda s: blundon.cos_angle_at_circumcenter(
        _HALF_RANK(s), centers.incenter(s), s), _FLOAT_IMAGE),
    (_tiny(10**100), lambda s: blundon.cos_angle_at_circumcenter(
        BaryPoint(1, 0, 0), BaryPoint(0, 1, 0), s), _UNDERFLOW),
    (_tiny(10**100), lambda s: blundon.cos_angle_at_circumcenter(
        BaryPoint(Fraction(1), 0, 0), BaryPoint(0, Fraction(1), 0), s), _UNDERFLOW),
    (_tiny(10**80), lambda s: blundon.cos_angle_at_circumcenter(
        BaryPoint(1, 2, 3), BaryPoint(3, 1, 1), s), _UNDERFLOW),
    (_tiny(10**80), lambda s: blundon.cos_angle_at_circumcenter(
        BaryPoint(Fraction(1), 2, 3), BaryPoint(Fraction(3), 1, 1), s), _UNDERFLOW),
    (LARGE_SCALENE, _triple(blundon.triple_cevian_cos_variant), _DISTANCE_OVERFLOW),
    (LARGE_SCALENE, _triple(blundon.triple_cevian_cos), _DISTANCE_OVERFLOW),
], ids=["rank_pair_cos", "rank_pair_cos subnormal", "triple_cevian_cos", "triple subnormal",
        "triple_cevian_cos_variant", "general_cos_parts", "cos_angle_at_circumcenter",
        "int weights", "fraction weights", "int weights subnormal", "mixed weights subnormal",
        "variant_overflow", "triple_overflow"])
def test_calls_near_the_float_range_raise(sides, call, message):
    """Exact sides whose legs or distances leave the normal float range once they
    become floats raise DegenerateTriangle naming it, never a bare arithmetic
    error, a wrong 'undefined' or a value built from inf, 0.0 or a subnormal."""
    with pytest.raises(DegenerateTriangle, match=re.escape(message)):
        call(sides)


def test_vanishing_legs_and_coincident_points_come_first_near_the_float_range():
    tiny_equilateral = TriangleSides(*[Fraction(1, 10**200)] * 3)
    with pytest.raises(UndefinedAngle):  # its radicand is exactly 0
        blundon.rank_pair_cos(0, 1, tiny_equilateral)
    for function in (blundon.triple_cevian_cos, blundon.triple_cevian_cos_variant):
        with pytest.raises(DegenerateVertexAngle):
            _triple(function, centers.centroid)(_tiny(10**150))


class TestClassicalClosedForm:
    def test_right_triangle_value(self):
        assert blundon.classical_cos_ION(RIGHT_EL) == pytest.approx(
            0.4472135954999579, abs=1e-14
        )

    def test_matches_general_path(self):
        rng = random.Random(5)
        for _ in range(200):
            sides = random_sides(rng)
            el = kernel.derive_elements(sides)
            if el.is_equilateral:
                continue
            report = blundon.cos_angle_at_circumcenter(
                centers.incenter(sides), centers.nagel_point(sides), sides
            )
            if report.classification == blundon.CLASS_UNDEFINED:
                continue
            if min(float(report.op_sq), float(report.oq_sq)) < 1e-5 * el.circumradius**2:
                continue
            assert blundon.classical_cos_ION(el) == pytest.approx(report.cos_value, abs=1e-10)

    def test_isosceles_is_collinear_equality(self):
        el = kernel.derive_elements(TriangleSides(5.0, 5.0, 6.0))
        assert blundon.classical_cos_ION(el) == pytest.approx(1.0, abs=1e-12)

    def test_near_equilateral_raises(self):
        el = kernel.derive_elements(TriangleSides(1.0, 1.0, 1.0 + 1e-9))
        with pytest.raises(EquilateralDegenerate):
            blundon.classical_cos_ION(el)

    def test_cancelled_radicand_raises(self):
        # Not flagged by is_equilateral, yet the float radicand cancels to 0.0.
        sides = TriangleSides(0.6666902889603944, 0.6666668989870022, 0.6666428120526035)
        el = kernel.derive_elements(sides)
        assert not el.is_equilateral
        assert blundon.classical_cos_parts(sides)[1] <= 0
        with pytest.raises(EquilateralDegenerate):
            blundon.classical_cos_ION(el)

    @pytest.mark.parametrize("closed_form, parts", [
        ("classical_cos_ION", "classical_cos_parts"),
        ("centroid_incenter_cos", "centroid_incenter_cos_parts"),
        ("incenter_lemoine_cos", "incenter_lemoine_cos_parts"),
    ])
    @pytest.mark.parametrize("radicand", [0.0, -1e-30])
    def test_every_closed_form_rejects_nonpositive_radicand(
        self, monkeypatch, closed_form, parts, radicand
    ):
        monkeypatch.setattr(blundon, parts, lambda sides: (1e-9, radicand))
        with pytest.raises(EquilateralDegenerate):
            getattr(blundon, closed_form)(RIGHT_EL)

    def test_exact_parts_match_general_parts(self):
        num, radicand = blundon.classical_cos_parts(EXACT_RIGHT)
        assert num == Fraction(1, 2)
        assert radicand == Fraction(5, 4)
        p = BaryPoint(Fraction(3), Fraction(4), Fraction(5))
        q = BaryPoint(Fraction(3), Fraction(2), Fraction(1))
        gen_num, gen_radicand = blundon.general_cos_parts(p, q, EXACT_RIGHT)
        assert num == gen_num
        assert radicand == gen_radicand


class TestFundamentalInequality:
    def test_right_triangle_residual(self):
        expected = 2.0 * 0.5 * math.sqrt(1.25) - 0.5
        assert blundon.fundamental_residual(RIGHT_EL) == pytest.approx(expected)

    def test_equilateral_residual_is_zero(self):
        el = kernel.derive_elements(TriangleSides(1.0, 1.0, 1.0))
        assert blundon.fundamental_residual(el) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_residual_nonnegative(self, seed):
        el = kernel.derive_elements(random_sides(random.Random(seed)))
        assert blundon.fundamental_residual(el) >= -1e-10 * el.semiperimeter**2

    def test_exact_slack_right_triangle(self):
        assert blundon.fundamental_slack_sq(EXACT_RIGHT) == Fraction(1)

    def test_exact_slack_decays_like_d_to_the_sixth(self):
        # sides (1, 1 + d/2, 1 + d) with d = 10^-k approach the equilateral limit
        def slack(k):
            d = Fraction(1, 10 ** k)
            return blundon.fundamental_slack_sq(TriangleSides(Fraction(1), 1 + d / 2, 1 + d))

        slacks = [slack(k) for k in range(3, 14)]
        for k, (wider, narrower) in enumerate(zip(slacks, slacks[1:]), start=3):
            assert abs(math.log10(wider / narrower) - 6) <= 0.004, k

    def test_exact_slack_nonnegative(self):
        rng = random.Random(31)
        for _ in range(50):
            sides = random_sides(rng)
            exact = TriangleSides(*(Fraction(round(v, 6)).limit_denominator(10**7) for v in sides.as_tuple()))
            assert blundon.fundamental_slack_sq(exact) >= 0


class TestDualFamily:
    def test_right_triangle_cosines(self):
        assert blundon.excenter_adjoint_cos("A", RIGHT_EL) == pytest.approx(
            -0.9636544764238504, abs=1e-13
        )
        assert blundon.excenter_adjoint_cos("B", RIGHT_EL) == pytest.approx(
            -0.9634264450181494, abs=1e-13
        )
        assert blundon.excenter_adjoint_cos("C", RIGHT_EL) == pytest.approx(
            -0.9994093954812155, abs=1e-13
        )

    def test_matches_general_path_all_vertices(self):
        rng = random.Random(17)
        for _ in range(100):
            sides = random_sides(rng)
            el = kernel.derive_elements(sides)
            for vertex in ("A", "B", "C"):
                report = blundon.cos_angle_at_circumcenter(
                    centers.excenter(vertex, sides),
                    centers.adjoint_nagel(vertex, sides),
                    sides,
                )
                closed = blundon.excenter_adjoint_cos(vertex, el)
                assert closed == pytest.approx(report.cos_value, abs=1e-10)

    def test_leg_identities(self):
        # squared legs are R^2 + 2 R r_v and (R + 2 r_v)^2
        report = blundon.cos_angle_at_circumcenter(
            centers.excenter("A", RIGHT), centers.adjoint_nagel("A", RIGHT), RIGHT
        )
        assert report.op_sq == pytest.approx(6.25 + 10.0)
        assert report.oq_sq == pytest.approx(6.5**2)

    def test_bound_residual_right_triangle(self):
        residual = blundon.dual_bound_residual("A", RIGHT_EL)
        assert residual == pytest.approx(6.5 * math.sqrt(16.25) - 12.75 - 12.5)
        assert residual > 0.0

    def test_bound_residual_nonnegative_all_vertices(self):
        rng = random.Random(23)
        for _ in range(200):
            el = kernel.derive_elements(random_sides(rng))
            for vertex in ("A", "B", "C"):
                assert blundon.dual_bound_residual(vertex, el) >= -1e-9 * el.circumradius**2

    def test_exact_slack_values(self):
        assert blundon.dual_slack_sq("A", EXACT_RIGHT) == Fraction(49)
        for vertex in ("A", "B", "C"):
            assert blundon.dual_slack_sq(vertex, EXACT_RIGHT) >= 0

    def test_equilateral_slack_is_exactly_zero(self):
        sides = TriangleSides(Fraction(1), Fraction(1), Fraction(1))
        for vertex in ("A", "B", "C"):
            assert blundon.dual_slack_sq(vertex, sides) == 0

    def test_exradii_identity_fixture(self):
        lhs, rhs = blundon.exradii_identity_parts(RIGHT)
        assert lhs == pytest.approx(9.0)
        assert rhs == pytest.approx(9.0)
        assert blundon.exradii_identity_residual(RIGHT) == pytest.approx(0.0, abs=1e-12)

    def test_exradii_identity_exact_zero(self):
        assert blundon.exradii_identity_residual(EXACT_RIGHT) == 0
        rng = random.Random(47)
        for _ in range(20):
            sides = random_sides(rng)
            exact = TriangleSides(*(Fraction(v).limit_denominator(10**5) for v in sides.as_tuple()))
            assert blundon.exradii_identity_residual(exact) == 0


class TestRankPairs:
    def test_rank_circum_power_matches_kernel(self):
        assert blundon._rank_point(1, RIGHT)[1] == pytest.approx(5.0)
        assert blundon._rank_point(0, RIGHT)[1] == pytest.approx(50.0 / 9.0)
        assert blundon._rank_point(2, RIGHT)[1] == pytest.approx(4.32)

    def test_rank_zero_one_fixture(self):
        assert blundon.rank_pair_cos(0, 1, RIGHT) == pytest.approx(0.9838699100999075, abs=1e-12)
        assert blundon.centroid_incenter_cos(RIGHT_EL) == pytest.approx(
            0.9838699100999075, abs=1e-12
        )

    def test_rank_one_two_fixture(self):
        assert blundon.rank_pair_cos(1, 2, RIGHT) == pytest.approx(0.9979253089679092, abs=1e-11)
        assert blundon.incenter_lemoine_cos(RIGHT_EL) == pytest.approx(
            0.9979253089679092, abs=1e-11
        )

    def test_same_rank_gives_unit_cos(self):
        assert blundon.rank_pair_cos(1.5, 1.5, RIGHT) == pytest.approx(1.0)

    def test_equilateral_raises(self):
        with pytest.raises(UndefinedAngle):
            blundon.rank_pair_cos(0, 1, TriangleSides(1.0, 1.0, 1.0))

    def test_matches_general_path_for_random_ranks(self):
        rng = random.Random(29)
        for _ in range(100):
            sides = random_sides(rng)
            k1 = rng.uniform(-3.0, 3.0)
            k2 = rng.uniform(-3.0, 3.0)
            p = centers.cevian_rank(k1, 0.0, 0.0, sides)
            q = centers.cevian_rank(k2, 0.0, 0.0, sides)
            report = blundon.cos_angle_at_circumcenter(p, q, sides)
            r_sq = kernel.circumradius_sq(sides)
            if report.classification == blundon.CLASS_UNDEFINED:
                continue
            if min(float(report.op_sq), float(report.oq_sq)) < 1e-5 * r_sq:
                continue
            assert blundon.rank_pair_cos(k1, k2, sides) == pytest.approx(
                report.cos_value, abs=1e-9
            )

    @pytest.mark.parametrize("k1, k2, sides, message", [
        (1100, 0, TriangleSides(0.627892047155789, 0.6679021651038586, 0.7042057877403525),
         "S_k^2 of rank 1100 underflows the float range"),
        (-400, 0, TriangleSides(Fraction(3), 4.0, 5),
         "S_k^2 of rank -400 underflows the float range"),
        (-400.5, 0, TriangleSides(3, 4, 5),  # exact sides, float powers of a non-integral rank
         "S_k^2 of rank -400.5 underflows the float range"),
        (1100, 0, TriangleSides(0.4, 0.45, 0.5), "S_k of rank 1100 leaves the float range"),
    ], ids=["float sides", "mixed sides", "int sides", "every power underflows"])
    def test_rank_points_past_the_float_range_raise(self, k1, k2, sides, message):
        # these once ended in a bare ZeroDivisionError or OverflowError
        with pytest.raises(DegenerateTriangle, match=re.escape(message)):
            blundon.rank_pair_cos(k1, k2, sides)

    def test_matches_oracle(self):
        got = blundon.rank_pair_cos(0, 2, RIGHT)
        expected = oracle_cos_at_o(CENTROID, LEMOINE, RIGHT)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_exact_parts_for_integer_ranks(self):
        num, radicand = blundon.rank_pair_parts(1, 2, EXACT_RIGHT)
        assert isinstance(num, Fraction)
        assert isinstance(radicand, Fraction)
        gen_num, gen_radicand = blundon.general_cos_parts(
            BaryPoint(Fraction(3), Fraction(4), Fraction(5)),
            BaryPoint(Fraction(9), Fraction(16), Fraction(25)),
            EXACT_RIGHT,
        )
        assert num == gen_num
        assert radicand == gen_radicand


class TestDiagnosticVariants:
    def test_halved_variant_is_half(self):
        assert blundon.incenter_lemoine_cos_halved(RIGHT_EL) == pytest.approx(
            0.4989626544839546, abs=1e-11
        )
        rng = random.Random(37)
        for _ in range(50):
            el = kernel.derive_elements(random_sides(rng))
            if el.is_equilateral:
                continue
            full = blundon.incenter_lemoine_cos(el)
            half = blundon.incenter_lemoine_cos_halved(el)
            assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_centroid_lemoine_variant_is_broken_both_ways(self):
        # the fixture triangle (and most others) hit the negative radicand;
        # flat triangles make it positive but push the value outside [-1, 1]
        _, _, rad_two = blundon.centroid_lemoine_variant_parts(RIGHT_EL)
        assert rad_two < 0.0
        assert blundon.centroid_lemoine_cos_variant(RIGHT_EL) is None
        rng = random.Random(41)
        real_values = 0
        for _ in range(2000):
            el = kernel.derive_elements(random_sides(rng))
            value = blundon.centroid_lemoine_cos_variant(el)
            if value is not None:
                real_values += 1
                assert abs(value) > 1.0
        assert real_values > 0

    def test_triple_variant_disagrees_when_sign_group_active(self):
        trusted = blundon.triple_cevian_cos(INCENTER, LEMOINE, CENTROID, RIGHT)
        variant = blundon.triple_cevian_cos_variant(INCENTER, LEMOINE, CENTROID, RIGHT)
        assert trusted != pytest.approx(variant, abs=1e-3)


class TestTripleCevian:
    def test_nagel_line_angle_at_centroid(self):
        got = blundon.triple_cevian_cos(INCENTER, CENTROID, NAGEL, RIGHT)
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_nagel_line_angle_at_incenter(self):
        got = blundon.triple_cevian_cos(CENTROID, INCENTER, NAGEL, RIGHT)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_for_center_triple(self):
        placement = oracle.place_triangle(3.0, 4.0, 5.0)
        apex = oracle.barycentric_to_cartesian(LEMOINE.as_tuple(), placement)
        p = oracle.barycentric_to_cartesian(INCENTER.as_tuple(), placement)
        q = oracle.barycentric_to_cartesian(CENTROID.as_tuple(), placement)
        expected = oracle.angle_cos(apex, p, q)
        got = blundon.triple_cevian_cos(INCENTER, LEMOINE, CENTROID, RIGHT)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateVertexAngle):
            blundon.triple_cevian_cos(INCENTER, BaryPoint(6.0, 8.0, 10.0), CENTROID, RIGHT)
        with pytest.raises(DegenerateVertexAngle):
            blundon.triple_cevian_cos_variant(INCENTER, INCENTER, NAGEL, RIGHT)

    @pytest.mark.parametrize("sides, p1", [
        (RIGHT, BaryPoint(1e200, -1e200, 1.0)),
        (RIGHT, BaryPoint(1e308, -1e308, 1.0)),
        (EXACT_RIGHT, BaryPoint(Fraction(10**200), Fraction(-10**200), Fraction(1))),
        (EXACT_RIGHT, BaryPoint(Fraction(10**200), -(10**200), 1)),
    ], ids=["float", "float nan", "exact", "mixed"])
    def test_distances_outside_float_range_raise(self, sides, p1):
        with pytest.raises(DegenerateTriangle, match="float range"):
            blundon.triple_cevian_cos(p1, centers.incenter(sides), centers.centroid(sides), sides)

    def test_matches_oracle_for_random_triples(self):
        rng = random.Random(53)
        checked = 0
        while checked < 60:
            sides = random_sides(rng)
            points = [BaryPoint(*(rng.uniform(-1.5, 1.5) for _ in range(3))) for _ in range(3)]
            if any(abs(sum(p.as_tuple())) < 1e-3 for p in points):
                continue
            try:
                got = blundon.triple_cevian_cos(*points, sides)
            except DegenerateVertexAngle:
                continue
            placement = oracle.place_triangle(*sides.as_tuple())
            xys = [oracle.barycentric_to_cartesian(p.as_tuple(), placement) for p in points]
            expected = oracle.angle_cos(xys[1], xys[0], xys[2])
            assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)
            checked += 1

    def test_reversal_symmetry_is_exact(self):
        rng = random.Random(59)
        for _ in range(50):
            sides = random_sides(rng)
            points = [BaryPoint(*(rng.uniform(0.2, 2.0) for _ in range(3))) for _ in range(3)]
            try:
                one = blundon.triple_cevian_cos(points[0], points[1], points[2], sides)
                two = blundon.triple_cevian_cos(points[2], points[1], points[0], sides)
            except DegenerateVertexAngle:
                continue
            assert one == two
