"""Tests for the Cartesian reference implementation.

The (3, 4, 5) right triangle is used as the hand-checkable fixture: with
B at the origin and C at (3, 0) the placement puts A at (3, 4), the
circumcenter at the hypotenuse midpoint (1.5, 2), and the incenter at (2, 1).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribary import oracle
from tribary.errors import DegenerateTriangle, PointAtInfinity, UndefinedAngle

RIGHT = oracle.place_triangle(3.0, 4.0, 5.0)


def triangle_sides(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        if x + y > z * (1.0 + 1e-9):
            scale = 2.0 / (x + y + z)
            return (x * scale, y * scale, z * scale)


class TestPlacement:
    def test_right_triangle_vertices(self):
        assert RIGHT.b_xy == (0.0, 0.0)
        assert RIGHT.c_xy == (3.0, 0.0)
        assert RIGHT.a_xy == pytest.approx((3.0, 4.0), abs=1e-15)

    def test_side_lengths_reproduced(self):
        assert oracle.dist_sq(RIGHT.b_xy, RIGHT.c_xy) == pytest.approx(9.0)
        assert oracle.dist_sq(RIGHT.c_xy, RIGHT.a_xy) == pytest.approx(16.0)
        assert oracle.dist_sq(RIGHT.a_xy, RIGHT.b_xy) == pytest.approx(25.0)

    @pytest.mark.parametrize("sides", [(1.0, 1.0, 2.0), (1.0, 2.0, 8.0), (0.0, 1.0, 1.0)])
    def test_degenerate_rejected(self, sides):
        with pytest.raises(DegenerateTriangle):
            oracle.place_triangle(*sides)

    def test_just_inside_tolerance_accepted(self):
        oracle.place_triangle(1.0, 1.0, 2.0 - 1e-9)


class TestConversions:
    def test_incenter_cartesian(self):
        xy = oracle.barycentric_to_cartesian((3.0, 4.0, 5.0), RIGHT)
        assert xy == pytest.approx((2.0, 1.0), abs=1e-14)

    def test_centroid_cartesian(self):
        xy = oracle.barycentric_to_cartesian((1.0, 1.0, 1.0), RIGHT)
        assert xy == pytest.approx((2.0, 4.0 / 3.0), abs=1e-14)

    def test_scaling_weights_is_a_no_op(self):
        base = oracle.barycentric_to_cartesian((3.0, 4.0, 5.0), RIGHT)
        scaled = oracle.barycentric_to_cartesian((-3.0, -4.0, -5.0), RIGHT)
        assert scaled == pytest.approx(base, abs=1e-14)

    def test_zero_sum_weights_rejected(self):
        with pytest.raises(PointAtInfinity):
            oracle.barycentric_to_cartesian((1.0, -1.0, 0.0), RIGHT)

    def test_round_trip_incenter_is_exact(self):
        w = oracle.cartesian_to_barycentric((2.0, 1.0), RIGHT)
        assert w == (3.0, 4.0, 5.0)

    def test_round_trip_random_points(self):
        rng = random.Random(20260823)
        for _ in range(200):
            placement = oracle.place_triangle(*triangle_sides(rng))
            weights = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
            if abs(sum(weights)) < 1e-6:
                continue
            xy = oracle.barycentric_to_cartesian(weights, placement)
            back = oracle.cartesian_to_barycentric(xy, placement)
            again = oracle.barycentric_to_cartesian(back, placement)
            assert again == pytest.approx(xy, rel=1e-9, abs=1e-9)


class TestCircumcenter:
    def test_right_triangle_hypotenuse_midpoint(self):
        assert oracle.circumcenter_xy(RIGHT) == pytest.approx((1.5, 2.0), abs=1e-14)
        assert oracle.circumradius_sq(RIGHT) == pytest.approx(6.25, abs=1e-14)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_equidistant_from_vertices(self, seed):
        placement = oracle.place_triangle(*triangle_sides(random.Random(seed)))
        center = oracle.circumcenter_xy(placement)
        da = oracle.dist_sq(center, placement.a_xy)
        db = oracle.dist_sq(center, placement.b_xy)
        dc = oracle.dist_sq(center, placement.c_xy)
        assert db == pytest.approx(da, rel=1e-9, abs=1e-12)
        assert dc == pytest.approx(da, rel=1e-9, abs=1e-12)


class TestDistancesAndAngles:
    def test_incenter_to_nagel_distance(self):
        incenter = oracle.barycentric_to_cartesian((3.0, 4.0, 5.0), RIGHT)
        nagel = oracle.barycentric_to_cartesian((3.0, 2.0, 1.0), RIGHT)
        assert oracle.dist_sq(incenter, nagel) == pytest.approx(1.0, abs=1e-13)

    def test_angle_incenter_nagel_at_circumcenter(self):
        center = oracle.circumcenter_xy(RIGHT)
        incenter = oracle.barycentric_to_cartesian((3.0, 4.0, 5.0), RIGHT)
        nagel = oracle.barycentric_to_cartesian((3.0, 2.0, 1.0), RIGHT)
        value = oracle.angle_cos(center, incenter, nagel)
        assert value == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-13)

    def test_zero_leg_raises(self):
        with pytest.raises(UndefinedAngle):
            oracle.angle_cos((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))

    def test_min_leg_threshold_raises(self):
        with pytest.raises(UndefinedAngle):
            oracle.angle_cos((0.0, 0.0), (1e-4, 0.0), (1.0, 1.0), min_leg_sq=1e-6)

    def test_reflection_gives_opposite_ray(self):
        center = (0.3, -0.7)
        point = (1.1, 2.2)
        mirrored = oracle.reflect_through(point, center)
        assert oracle.angle_cos(center, point, mirrored) == pytest.approx(-1.0)

    def test_same_ray_cosine_is_one(self):
        assert oracle.angle_cos((0.0, 0.0), (1.0, 2.0), (2.0, 4.0)) == pytest.approx(1.0)

    def test_cosine_clamped_to_unit_interval(self):
        rng = random.Random(7)
        for _ in range(500):
            apex = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            q = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if oracle.dist_sq(apex, p) == 0.0 or oracle.dist_sq(apex, q) == 0.0:
                continue
            assert -1.0 <= oracle.angle_cos(apex, p, q) <= 1.0
