"""Kernel tests: derived scalars, barycentric metrics, exact-rational path.

Numeric fixtures for the (3, 4, 5) triangle were frozen from the Cartesian
oracle: circumcenter (1.5, 2), incenter (2, 1), squared circumradius 6.25.
"""

import dataclasses
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tribary import blundon, centers, kernel, oracle, verify
from tribary.errors import (
    DegenerateTriangle,
    GeometryError,
    NonPositiveWeights,
    PointAtInfinity,
)
from tribary.kernel import BaryPoint, TriangleSides

RIGHT = TriangleSides(3.0, 4.0, 5.0)
INCENTER = BaryPoint(3.0, 4.0, 5.0)
NAGEL = BaryPoint(3.0, 2.0, 1.0)
CENTROID = BaryPoint(1.0, 1.0, 1.0)


def random_sides(rng: random.Random) -> TriangleSides:
    while True:
        x, y, z = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        if x + y > z * (1.0 + 1e-9):
            scale = 2.0 / (x + y + z)
            return TriangleSides(x * scale, y * scale, z * scale)


def random_point(rng: random.Random) -> BaryPoint:
    while True:
        t = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        if abs(sum(t)) >= 1e-6:
            return BaryPoint(*t)


class TestValidation:
    @pytest.mark.parametrize("sides", [
        (1, 1, 2), (1, 2, 8), (-1, 2, 2), (0, 1, 1),
        # abc^2 or 16 area^2 leaves the float range
        (1e200, 1e200, 1e200), (1e60, 1e60, 1.5e60), (1e-200, 1e-200, 1.5e-200),
        # an exact perimeter past the float range
        (Fraction(10**400), Fraction(10**400), Fraction(10**400)),
    ])
    def test_degenerate_rejected(self, sides):
        with pytest.raises(DegenerateTriangle):
            TriangleSides(*sides)

    @pytest.mark.parametrize("sides", [
        (10**400, 10**400, 10**400),  # int sides are exact: the perimeter is no float
        (10**400, Fraction(10**400), 10**400),  # so are int and Fraction sides
    ])
    def test_sides_past_the_float_range_say_so(self, sides):
        with pytest.raises(DegenerateTriangle, match="sides exceed the float range"):
            TriangleSides(*sides)

    @pytest.mark.parametrize("sides, message", [
        ((Fraction(3 * 10**200), Fraction(4 * 10**200), 5e200),  # abc overflows
         "leave abc^2 or 16 area^2 outside the float range"),
        ((Fraction(10**400), 1.0, 1.0), "side values exceed the float range"),
    ])
    def test_mixed_sides_are_their_float_images(self, sides, message):
        with pytest.raises(DegenerateTriangle, match=re.escape(message)):
            TriangleSides(*sides)

    def test_messages_survive_the_int_string_digit_limit(self):
        tiny = Fraction(1, 10**5000)
        with pytest.raises(DegenerateTriangle, match="triangle inequality fails"):
            TriangleSides(tiny, 1, 1)
        with pytest.raises(DegenerateTriangle, match="non-positive side"):
            TriangleSides(-tiny, 1, 1)
        with pytest.raises(PointAtInfinity, match="sum to zero"):
            BaryPoint(tiny, -tiny, Fraction(0))

    def test_zero_sum_point_rejected(self):
        with pytest.raises(PointAtInfinity):
            BaryPoint(1.0, -1.0, 0.0)

    def test_overflowing_weight_sum_rejected(self):
        with pytest.raises(GeometryError):
            BaryPoint(1e308, 1e308, 1e308)

    def test_overflowing_mixed_weight_sum_says_so(self):
        # mixed weights are stored as floats, and this Fraction has no float image
        weights = (Fraction(10**400), 1.0, 1.0)
        message = "weights ({!r}, {!r}, {!r}) have no float image".format(*weights)
        with pytest.raises(GeometryError) as info:
            BaryPoint(*weights)
        assert str(info.value) == message

    def test_weight_without_float_image_in_float_mode_says_so(self):
        exact_sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        huge = BaryPoint(Fraction(10**400), Fraction(1), Fraction(1))
        assert kernel.one_mode(huge, sides=exact_sides) == (huge, exact_sides)  # exact mode
        message = "weights ({!r}, {!r}, {!r}) have no float image".format(*huge.as_tuple())
        with pytest.raises(GeometryError) as info:
            kernel.one_mode(huge, BaryPoint(1.0, 1.0, 1.0), sides=exact_sides)
        assert str(info.value) == message

    def test_zero_sum_integer_weights_rejected(self):
        with pytest.raises(PointAtInfinity, match="sum to zero"):
            BaryPoint.from_ints(Fraction(2), Fraction(-2), Fraction(0), (1, -1, 0))

    def test_rational_sides_accepted(self):
        sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        assert sides.s == Fraction(6)


class TestDerivedElements:
    def test_right_triangle_values(self):
        el = kernel.derive_elements(RIGHT)
        assert el.semiperimeter == pytest.approx(6.0)
        assert el.area == pytest.approx(6.0)
        assert el.circumradius == pytest.approx(2.5)
        assert el.inradius == pytest.approx(1.0)
        assert (el.exradius_a, el.exradius_b, el.exradius_c) == pytest.approx((2.0, 3.0, 6.0))
        assert not el.is_equilateral

    def test_equilateral_values(self):
        el = kernel.derive_elements(TriangleSides(1.0, 1.0, 1.0))
        assert el.area == pytest.approx(math.sqrt(3.0) / 4.0)
        assert el.circumradius == pytest.approx(1.0 / math.sqrt(3.0))
        assert el.inradius == pytest.approx(0.5 / math.sqrt(3.0))
        assert el.circumradius == pytest.approx(2.0 * el.inradius)
        assert el.is_equilateral

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_product_identities(self, seed):
        sides = random_sides(random.Random(seed))
        el = kernel.derive_elements(sides)
        a, b, c = sides.as_tuple()
        s, big_r, r = el.semiperimeter, el.circumradius, el.inradius
        assert a * b * c == pytest.approx(4.0 * big_r * r * s, rel=1e-12)
        assert (s - a) * (s - b) * (s - c) == pytest.approx(r * r * s, rel=1e-11)
        assert big_r >= 2.0 * r * (1.0 - 1e-12)

    def test_fields_equal_the_float_expressions(self):
        rng = random.Random(14)
        floats = [random_sides(rng) for _ in range(100)]
        cases = floats + [
            TriangleSides(*(Fraction(v).limit_denominator(10**6) for v in sides.as_tuple()))
            for sides in floats[:20]
        ] + [
            TriangleSides(3, 4, 5), TriangleSides(7, 8, 13), TriangleSides(10**40, 10**40, 10**40),
            TriangleSides(Fraction(3), 4, 5.5), TriangleSides(Fraction(1, 3), Fraction(1, 2), 0.75),
        ]
        for sides in cases:
            # the expressions derive_elements evaluated before it read a context
            a, b, c = float(sides.a), float(sides.b), float(sides.c)
            s = (a + b + c) / 2.0
            area = math.sqrt(s * (s - a) * (s - b) * (s - c))
            want = (s, area, a * b * c / (4.0 * area), area / s,
                    area / (s - a), area / (s - b), area / (s - c))
            el = kernel.derive_elements(sides)
            got = el[1:]  # every field after sides
            assert got == want and all(type(v) is float for v in got)
            assert el.sides is sides

    @pytest.mark.parametrize("scale", [Fraction(10**200), Fraction(1, 10**200)])
    def test_exact_sides_without_a_float_image_are_degenerate(self, scale):
        sides = TriangleSides(3 * scale, 4 * scale, 6 * scale)
        with pytest.raises(DegenerateTriangle):
            kernel.derive_elements(sides)

    def test_squared_scalars_match_oracle(self):
        placement = oracle.place_triangle(3.0, 4.0, 5.0)
        assert kernel.circumradius_sq(RIGHT) == pytest.approx(oracle.circumradius_sq(placement))
        assert RIGHT.area2 == pytest.approx(36.0)
        assert kernel.euler_terms(RIGHT) == pytest.approx((6.0, 6.25, 2.5, 1.0))
        exradii_sq = [kernel.euler_terms(RIGHT, side)[3] for side in RIGHT.as_tuple()]
        assert exradii_sq == pytest.approx([4.0, 9.0, 36.0])


class TestPowerSum:
    def test_counting_case(self):
        assert kernel.power_sum(RIGHT, 0) == 3

    def test_exact_power_past_the_digit_limit_refused(self):
        assert kernel.pow_keep_exact(Fraction(1), 10**9) == 1
        assert kernel.pow_keep_exact(Fraction(5), 1000) == 5**1000
        with pytest.raises(GeometryError):
            kernel.pow_keep_exact(Fraction(4), 10**9)
        with pytest.raises(GeometryError):
            kernel.pow_keep_exact(Fraction(1, 4), -10**4)
        with pytest.raises(GeometryError, match="exponent ... would pass"):
            kernel.pow_keep_exact(Fraction(2), Fraction(10**4300))

    def test_first_and_second_moments(self):
        assert kernel.power_sum(RIGHT, 1) == pytest.approx(12.0)
        assert kernel.power_sum(RIGHT, 2) == pytest.approx(50.0)

    def test_second_moment_elements_identity(self):
        el = kernel.derive_elements(RIGHT)
        s, big_r, r = el.semiperimeter, el.circumradius, el.inradius
        expected = 2.0 * (s * s - r * r - 4.0 * big_r * r)
        assert kernel.power_sum(RIGHT, 2) == pytest.approx(expected)

    def test_negative_exponent(self):
        assert kernel.power_sum(RIGHT, -1) == pytest.approx(47.0 / 60.0)


class TestCircumPower:
    def test_vertex_lies_on_circle(self):
        assert kernel.circum_power(BaryPoint(1.0, 0.0, 0.0), RIGHT) == pytest.approx(0.0)

    def test_frozen_center_values(self):
        assert kernel.circum_power(INCENTER, RIGHT) == pytest.approx(5.0)
        assert kernel.circum_power(NAGEL, RIGHT) == pytest.approx(6.0)
        assert kernel.circum_power(CENTROID, RIGHT) == pytest.approx(50.0 / 9.0)
        assert kernel.circum_power(BaryPoint(9.0, 16.0, 25.0), RIGHT) == pytest.approx(4.32)
        assert kernel.circum_power(BaryPoint(-3.0, 4.0, 5.0), RIGHT) == pytest.approx(-10.0)
        assert kernel.circum_power(BaryPoint(6.0, -1.0, -2.0), RIGHT) == pytest.approx(-36.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        sides = random_sides(rng)
        point = random_point(rng)
        placement = oracle.place_triangle(*sides.as_tuple())
        xy = oracle.barycentric_to_cartesian(point.as_tuple(), placement)
        expected = oracle.circumradius_sq(placement) - oracle.dist_sq(
            xy, oracle.circumcenter_xy(placement)
        )
        got = kernel.circum_power(point, sides)
        scale = max(1.0, abs(got), abs(expected))
        assert abs(got - expected) <= 1e-9 * scale


_FAR = BaryPoint(1e200, -1e200, 1.0)  # finite weights with a squared leg past the float range


_HUGE = BaryPoint(Fraction(10**400), Fraction(-10**400), Fraction(1))
_FAR_SIDES = TriangleSides(*(Fraction(k * 10**200) for k in (3, 4, 5)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: kernel.circum_power(BaryPoint(1e308, -1e308, 1e-300), RIGHT), DegenerateTriangle,
     "float range"),
    (lambda: kernel.dist_sq_between(_FAR, INCENTER, RIGHT), DegenerateTriangle, "float range"),
    (lambda: kernel.lagrange_point_dist_sq(_FAR, 1.0, 1.0, 1.0, RIGHT), DegenerateTriangle,
     "float range"),
    (lambda: kernel.circum_power(BaryPoint(10**400, -10**400, 1), RIGHT), GeometryError,
     "no float image"),
    (lambda: kernel.circum_power(_HUGE, RIGHT), GeometryError, "no float image"),
    (lambda: kernel.dist_sq_between(_HUGE, INCENTER, RIGHT), GeometryError, "no float image"),
    (lambda: kernel.circum_power(BaryPoint(1.0, 2.0, 3.0), _FAR_SIDES), DegenerateTriangle,
     "outside the float range"),
], ids=["circum_power nan", "dist_sq_between inf", "lagrange inf", "int weights",
        "circum_power exact point", "dist_sq_between exact point", "circum_power exact sides"])
def test_metrics_past_the_float_range_raise(call, error, message):
    """A float metric that is not finite raises, never returns nan or inf.  A point
    and a triangle in different modes meet as their float images, so an exact
    object without a valid one raises a GeometryError, not a bare OverflowError."""
    with pytest.raises(error, match=message):
        call()


class TestDistances:
    def test_proportional_points_coincide(self):
        p = BaryPoint(1.0, 2.0, 3.0)
        q = BaryPoint(2.0, 4.0, 6.0)
        assert kernel.dist_sq_between(p, q, RIGHT) == 0.0

    def test_frozen_center_distances(self):
        assert kernel.dist_sq_between(INCENTER, NAGEL, RIGHT) == pytest.approx(1.0)
        assert kernel.dist_sq_between(INCENTER, CENTROID, RIGHT) == pytest.approx(1.0 / 9.0)
        lemoine = BaryPoint(9.0, 16.0, 25.0)
        assert kernel.dist_sq_between(INCENTER, lemoine, RIGHT) == pytest.approx(0.08)
        ex_a = BaryPoint(-3.0, 4.0, 5.0)
        adj_a = BaryPoint(6.0, -1.0, -2.0)
        assert kernel.dist_sq_between(ex_a, adj_a, RIGHT) == pytest.approx(109.0)

    def test_vertex_to_vertex_recovers_sides(self):
        va, vb, vc = BaryPoint(1, 0, 0), BaryPoint(0, 1, 0), BaryPoint(0, 0, 1)
        assert kernel.dist_sq_between(vb, vc, RIGHT) == pytest.approx(9.0)
        assert kernel.dist_sq_between(vc, va, RIGHT) == pytest.approx(16.0)
        assert kernel.dist_sq_between(va, vb, RIGHT) == pytest.approx(25.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        sides = random_sides(rng)
        p, q = random_point(rng), random_point(rng)
        placement = oracle.place_triangle(*sides.as_tuple())
        expected = oracle.dist_sq(
            oracle.barycentric_to_cartesian(p.as_tuple(), placement),
            oracle.barycentric_to_cartesian(q.as_tuple(), placement),
        )
        got = kernel.dist_sq_between(p, q, sides)
        scale = max(1.0, abs(expected))
        assert abs(got - expected) <= 1e-9 * scale
        assert got >= -1e-12 * kernel.circumradius_sq(sides)


class TestLagrange:
    def test_point_at_reference_vertex(self):
        t = BaryPoint(1.0, 0.0, 0.0)
        assert kernel.lagrange_point_dist_sq(t, 0.0, 25.0, 16.0, RIGHT) == pytest.approx(0.0)

    def test_incenter_distance_from_vertex(self):
        got = kernel.lagrange_point_dist_sq(INCENTER, 0.0, 25.0, 16.0, RIGHT)
        assert got == pytest.approx(10.0)

    def test_circumcenter_reference_equals_circum_power(self):
        rng = random.Random(99)
        for _ in range(50):
            sides = random_sides(rng)
            point = random_point(rng)
            r_sq = kernel.circumradius_sq(sides)
            via_lagrange = r_sq - kernel.lagrange_point_dist_sq(point, r_sq, r_sq, r_sq, sides)
            direct = kernel.circum_power(point, sides)
            assert via_lagrange == pytest.approx(direct, rel=1e-9, abs=1e-9)


class TestBergstrom:
    def test_equality_at_side_proportional_weights(self):
        bound = kernel.bergstrom_bound(INCENTER, RIGHT)
        assert bound == pytest.approx(5.0)
        assert bound == pytest.approx(kernel.circum_power(INCENTER, RIGHT))

    def test_centroid_bound_is_loose(self):
        bound = kernel.bergstrom_bound(CENTROID, RIGHT)
        assert bound == pytest.approx(16.0 / 3.0)
        assert kernel.circum_power(CENTROID, RIGHT) >= bound

    def test_sign_flipped_interior_weights_accepted(self):
        assert kernel.bergstrom_bound(BaryPoint(-3.0, -4.0, -5.0), RIGHT) == pytest.approx(5.0)

    def test_boundary_weight_rejected(self):
        with pytest.raises(NonPositiveWeights):
            kernel.bergstrom_bound(BaryPoint(1.0, -1.0, 3.0), RIGHT)
        with pytest.raises(NonPositiveWeights):
            kernel.bergstrom_bound(BaryPoint(1.0, 0.0, 3.0), RIGHT)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_bound_below_circum_power(self, seed):
        rng = random.Random(seed)
        sides = random_sides(rng)
        t = BaryPoint(*(rng.uniform(1e-3, 2.0) for _ in range(3)))
        slack = kernel.circum_power(t, sides) - kernel.bergstrom_bound(t, sides)
        assert slack >= -1e-12 * kernel.circumradius_sq(sides)


class TestScaleInvariance:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from([2.0, -1.0, 1e-6]),
    )
    # Draws whose weights nearly cancel: rounding lam * p moves the exact value
    # by more than 1e-12, so the float results at p and at fl(lam p) differ too.
    @example(1412, 1e-6)
    @example(18865, 1e-6)
    def test_float_mode(self, seed, lam):
        """The float kernel at p and at fl(lam p) each match an exact evaluation
        of its own input; exact invariance is test_rational_mode_is_exact's."""
        rng = random.Random(seed)
        sides = random_sides(rng)
        p, q = random_point(rng), random_point(rng)
        exact_sides = TriangleSides(*map(Fraction, sides.as_tuple()))
        exact_q = BaryPoint(*map(Fraction, q.as_tuple()))
        for x in (p, BaryPoint(lam * p.t1, lam * p.t2, lam * p.t3)):
            exact_x = BaryPoint(*map(Fraction, x.as_tuple()))
            assert kernel.circum_power(x, sides) == pytest.approx(
                kernel.circum_power(exact_x, exact_sides), rel=1e-12, abs=1e-15)
            assert kernel.dist_sq_between(x, q, sides) == pytest.approx(
                kernel.dist_sq_between(exact_x, exact_q, exact_sides), rel=1e-12, abs=1e-15)

    def test_rational_mode_is_exact(self):
        sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        p = BaryPoint(Fraction(3), Fraction(4), Fraction(5))
        q = BaryPoint(Fraction(1), Fraction(1), Fraction(1))
        for lam in (Fraction(2), Fraction(-1), Fraction(1, 10**6)):
            scaled = BaryPoint(lam * p.t1, lam * p.t2, lam * p.t3)
            assert kernel.circum_power(scaled, sides) == kernel.circum_power(p, sides)
            assert kernel.dist_sq_between(scaled, q, sides) == kernel.dist_sq_between(
                p, q, sides
            )


class TestRationalBackend:
    def test_exact_right_triangle_values(self):
        sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        assert sides.area2 == Fraction(36)
        assert kernel.circumradius_sq(sides) == Fraction(25, 4)
        assert kernel.euler_terms(sides) == (6, Fraction(25, 4), Fraction(5, 2), 1)
        assert [kernel.euler_terms(sides, side)[3] for side in sides.as_tuple()] == [4, 9, 36]
        p = BaryPoint(Fraction(3), Fraction(4), Fraction(5))
        q = BaryPoint(Fraction(3), Fraction(2), Fraction(1))
        assert kernel.circum_power(p, sides) == Fraction(5)
        assert kernel.dist_sq_between(p, q, sides) == Fraction(1)
        assert kernel.bergstrom_bound(p, sides) == Fraction(5)

    def test_exact_matches_float_closely(self):
        rng = random.Random(4242)
        for _ in range(25):
            raw = random_sides(rng)
            exact_sides = TriangleSides(*(Fraction(v).limit_denominator(10**6) for v in raw.as_tuple()))
            f_sides = TriangleSides(*(float(v) for v in exact_sides.as_tuple()))
            exact = kernel.circum_power(
                BaryPoint(Fraction(1), Fraction(2), Fraction(3)), exact_sides
            )
            approx = kernel.circum_power(BaryPoint(1.0, 2.0, 3.0), f_sides)
            assert float(exact) == pytest.approx(approx, rel=1e-12)


def _old_rule(a, b, c):
    """The side check as written before the integer context, in Fraction and
    float arithmetic: None when the sides pass, else the start of the message."""
    if min(a, b, c) <= 0:
        return "non-positive side"
    perimeter = a + b + c
    gap = min(a + b - c, b + c - a, c + a - b)
    try:
        thin = gap <= kernel.EPS_TRIANGLE * perimeter
    except OverflowError:
        return "sides exceed the float range"
    return "triangle inequality fails" if thin else None


def _boundary_sides(scale: Fraction) -> tuple:
    """Sides of perimeter 2 whose smallest gap is fl(EPS_TRIANGLE * 2.0) times scale."""
    gap = Fraction(kernel.EPS_TRIANGLE * 2.0) * scale
    return ((1 + gap / 2) / 2, (1 + gap / 2) / 2, 1 - gap / 2)


EXACT = TriangleSides(Fraction(7, 3), Fraction(5, 2), Fraction(13, 6))


class TestContexts:
    @pytest.mark.parametrize("sides", [RIGHT, EXACT, TriangleSides(3, 4, 5)])
    def test_context_stays_out_of_eq_hash_repr(self, sides):
        a, b, c = sides.as_tuple()
        assert [f.name for f in dataclasses.fields(sides)] == ["a", "b", "c"]
        assert repr(sides) == f"TriangleSides(a={a!r}, b={b!r}, c={c!r})"
        twin = TriangleSides(a, b, c)
        assert twin == sides and hash(twin) == hash(sides) == hash((a, b, c))
        assert dataclasses.astuple(sides) == (a, b, c)

    @pytest.mark.parametrize("point", [INCENTER, BaryPoint(Fraction(2, 3), Fraction(-1), 4)])
    def test_point_context_stays_out_of_eq_hash_repr(self, point):
        t1, t2, t3 = point.as_tuple()
        assert [f.name for f in dataclasses.fields(point)] == ["t1", "t2", "t3"]
        assert repr(point) == f"BaryPoint(t1={t1!r}, t2={t2!r}, t3={t3!r})"
        assert BaryPoint(t1, t2, t3) == point and hash(BaryPoint(t1, t2, t3)) == hash(point)

    @pytest.mark.parametrize("obj", [RIGHT, EXACT, INCENTER,
                                     BaryPoint(Fraction(3), Fraction(-4, 7), Fraction(5))])
    def test_pickle_round_trip_keeps_the_context(self, obj):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and repr(copy) == repr(obj)
        assert vars(copy) == vars(obj)

    def test_replace_rebuilds_the_context(self):
        changed = dataclasses.replace(EXACT, c=Fraction(3))
        fresh = TriangleSides(EXACT.a, EXACT.b, Fraction(3))
        assert changed == fresh and vars(changed) == vars(fresh)
        point = BaryPoint(Fraction(1), Fraction(2), Fraction(3))
        moved = dataclasses.replace(point, t3=Fraction(6))
        assert moved.ints == (1, 2, 6)
        assert dataclasses.replace(RIGHT, a=4.0).r_sq == TriangleSides(4.0, 4.0, 5.0).r_sq

    @pytest.mark.parametrize("sides", [RIGHT, TriangleSides(0.7, 0.6, 0.7),
                                       TriangleSides(3, 4, 5.0), TriangleSides(Fraction(3), 4, 5.5)])
    def test_non_exact_context_uses_the_plain_expressions(self, sides):
        a, b, c = sides.as_tuple()
        s = (a + b + c) / 2
        area2 = s * (s - a) * (s - b) * (s - c)
        abc = a * b * c
        assert (sides.s, sides.gaps) == (s, (s - a, s - b, s - c))
        assert (sides.abc, sides.area2) == (abc, area2)
        assert sides.r_sq == abc * abc / (16 * area2)
        assert sides.ints is sides.lam is sides.h is sides.abc_sq is None

    def test_exact_context_equals_fraction_evaluation(self):
        rng = random.Random(11)
        for _ in range(40):
            raw = random_sides(rng)
            sides = TriangleSides(*(Fraction(v).limit_denominator(10**5) for v in raw.as_tuple()))
            a, b, c = sides.as_tuple()
            s = (a + b + c) / 2
            area2 = s * (s - a) * (s - b) * (s - c)
            assert (sides.s, sides.gaps, sides.abc) == (s, (s - a, s - b, s - c), a * b * c)
            assert sides.area2 == area2 and sides.r_sq == (a * b * c) ** 2 / (16 * area2)
            lam = sides.lam
            assert sides.ints == (a * lam, b * lam, c * lam)
            assert all(type(v) is int for v in sides.ints)
            assert sides.h == 16 * area2 * lam**4
            assert sides.abc_sq == (a * b * c * lam**3) ** 2
            assert all(type(v) is Fraction
                       for v in (sides.s, *sides.gaps, sides.abc, sides.area2, sides.r_sq))

    @pytest.mark.parametrize("sides", [
        _boundary_sides(Fraction(1)),  # gap exactly at the bound: rejected
        _boundary_sides(1 + Fraction(1, 10**30)),
        _boundary_sides(1 - Fraction(1, 10**30)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(-1, 3), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(10**308), Fraction(10**308), Fraction(10**308)),  # perimeter past the float range
        (Fraction(5 * 10**307), Fraction(5 * 10**307), Fraction(5 * 10**307)),
        (Fraction(1, 10**400), Fraction(1, 10**400), Fraction(1, 10**400)),
        (Fraction(3), Fraction(4), Fraction(5)),
    ])
    def test_integer_validation_keeps_the_rule(self, sides):
        expected = _old_rule(*sides)
        if expected is None:
            TriangleSides(*sides)
        else:
            with pytest.raises(DegenerateTriangle, match=expected):
                TriangleSides(*sides)

    def test_boundary_cases_split_as_expected(self):
        assert _old_rule(*_boundary_sides(Fraction(1))) == "triangle inequality fails"
        assert _old_rule(*_boundary_sides(1 + Fraction(1, 10**30))) is None

    def test_exact_point_keeps_coprime_integer_weights(self):
        point = BaryPoint(Fraction(2, 3), Fraction(-4, 9), Fraction(8, 3))
        assert point.ints == (3, -2, 12)
        assert point.normalized() == (Fraction(3, 13), Fraction(-2, 13), Fraction(12, 13))
        assert all(type(v) is Fraction for v in point.normalized())
        assert BaryPoint(Fraction(-2), Fraction(-4), Fraction(12, 1)).ints == (-1, -2, 6)
        assert BaryPoint(1, 2, 3).ints == BaryPoint(Fraction(1), 2, 3).ints == (1, 2, 3)
        assert BaryPoint(Fraction(1), 2, 3.0).ints is None

    @pytest.mark.parametrize("point, keys", [
        (BaryPoint(3.0, 4.0, 5.0), ["t1", "t2", "t3"]),
        (BaryPoint(3, Fraction(1, 2), 5.0), ["t1", "t2", "t3"]),
        (BaryPoint(Fraction(3), Fraction(1, 2), Fraction(5)), ["t1", "t2", "t3", "ints"]),
        (BaryPoint.from_ints(Fraction(3), Fraction(1, 2), Fraction(5), (6, 1, 10)),
         ["t1", "t2", "t3", "ints"]),
    ])
    def test_hand_written_init_sets_the_generated_key_order(self, point, keys):
        assert list(vars(point)) == keys
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.t1 = 1.0

    @pytest.mark.parametrize("weights", [
        (Fraction(1, 3), Fraction(-1, 3), Fraction(0)),
        (Fraction(2, 7), Fraction(5, 14), Fraction(-9, 14)),
    ])
    def test_zero_sum_fraction_weights_keep_the_message(self, weights):
        message = "weights ({!r}, {!r}, {!r}) sum to zero".format(*weights)
        with pytest.raises(PointAtInfinity) as info:
            BaryPoint(*weights)
        assert str(info.value) == message


_VALUE = {
    "int": st.integers(-40, 40),
    "Fraction": st.builds(Fraction, st.integers(-4000, 4000), st.integers(1, 999)),
    "float": st.floats(-40.0, 40.0),
}


@st.composite
def _values(draw):
    """Three values, each an int, a Fraction or a float."""
    return tuple(draw(_VALUE[draw(st.sampled_from(sorted(_VALUE)))]) for _ in range(3))


def _report(abc, p, q):
    """repr of the angle report, or the type and message of what it raised."""
    try:
        return repr(blundon.cos_angle_at_circumcenter(BaryPoint(*p), BaryPoint(*q),
                                                      TriangleSides(*abc)))
    except GeometryError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_values(), _values(), _values())
@example((3, 4, 5), (1, 2, 3), (-1, 4, 0))  # all ints
@example((1, Fraction(3, 2), 2), (1, 1, 1), (Fraction(1, 2), 3, 0))  # ints and Fractions
@example((3, 4.0, 5), (1, 2, 3), (Fraction(1, 2), 2.0, 3))  # mixed with floats
def test_constructors_decide_one_mode(abc, p, q):
    """Three values that are each an int or a Fraction are stored as Fractions, any
    other three as floats; the context has the fields' type, ints is None exactly in
    float mode, a twin from the same values is equal with the same hash, and input
    without a float gives the report of its all-Fraction twin."""
    abc = tuple(abs(v) for v in abc)
    try:
        sides, points = TriangleSides(*abc), (BaryPoint(*p), BaryPoint(*q))
    except GeometryError:
        assume(False)
    context = (sides.s, *sides.gaps, sides.abc, sides.area2, sides.r_sq)
    for built, values, extra in ((sides, abc, context), (points[0], p, ()), (points[1], q, ())):
        kinds = {type(v) for v in (*built.as_tuple(), *extra)}
        assert kinds == ({float} if float in {type(v) for v in values} else {Fraction})
        assert (built.ints is None) == (kinds == {float})
        twin = type(built)(*values)
        assert twin == built and hash(twin) == hash(built)
    if float not in {type(v) for v in (*abc, *p, *q)}:
        assert _report(abc, p, q) == _report(*(tuple(map(Fraction, v)) for v in (abc, p, q)))


@pytest.mark.parametrize("k", range(3, 9))
def test_int_and_fraction_sides_take_the_exact_route(k):
    """The sides (1, 1 + d/2, 1 + d) of the fundamental-slack trend are exact."""
    d = Fraction(1, 10**k)
    sides = TriangleSides(1, 1 + d / 2, 1 + d)
    assert sides.ints is not None and sides.a == 1 and type(sides.a) is Fraction
    report = blundon.cos_angle_at_circumcenter(centers.incenter(sides),
                                               centers.nagel_point(sides), sides)
    assert all(type(v) is Fraction
               for v in (report.op_sq, report.oq_sq, report.pq_sq, report.bounds.middle))


def _verification_report():
    check = verify.CheckAccumulator("kernel_power_vs_oracle", "kernel", 1e-9)
    return verify.VerificationReport(verify.FuzzConfig(count=1), [check], 5)


# Plain value records are NamedTuples: tuples with named fields, a keyword repr,
# value equality and hash, and pickling by value.
@pytest.mark.parametrize("build, fields, text, hashable", [
    (lambda: blundon.cos_angle_at_circumcenter(INCENTER, NAGEL, RIGHT),
     ("cos_value", "op_sq", "oq_sq", "pq_sq", "bounds", "classification"),
     "AngleReport(cos_value=0.4472135954999579, op_sq=1.25, oq_sq=0.2500000000000009, "
     "pq_sq=1.0, bounds=BoundTriple(lower=-1.118033988749897, middle=0.5000000000000009, "
     "upper=1.118033988749897), classification='generic')", True),
    (lambda: kernel.derive_elements(RIGHT),
     ("sides", "semiperimeter", "area", "circumradius", "inradius",
      "exradius_a", "exradius_b", "exradius_c"),
     "TriangleElements(sides=TriangleSides(a=3.0, b=4.0, c=5.0), semiperimeter=6.0, area=6.0, "
     "circumradius=2.5, inradius=1.0, exradius_a=2.0, exradius_b=3.0, exradius_c=6.0)", True),
    (lambda: oracle.place_triangle(3.0, 4.0, 5.0), ("a_xy", "b_xy", "c_xy"),
     "Placement(a_xy=(3.0, 4.0), b_xy=(0.0, 0.0), c_xy=(3.0, 0.0))", True),
    # its checks are a list of mutable accumulators, so it was never hashable
    (_verification_report, ("config", "checks", "contexts"), None, False),
], ids=["AngleReport", "TriangleElements", "Placement", "VerificationReport"])
def test_value_records_are_named_tuples(build, fields, text, hashable):
    record, twin = build(), build()
    assert isinstance(record, tuple) and type(record)._fields == fields
    if text is not None:
        assert repr(record) == text
    assert record == twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record
