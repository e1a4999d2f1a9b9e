"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test is independent and seeded, so a pass here is reproducible
anywhere.  Tolerances are absolute contract values, not tuned numbers; a
failure means the library broke a guarantee, not that a constant drifted.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tribary import oracle
from tribary.blundon import (
    CLASS_COLLINEAR_OPPOSITE_SIDE,
    CLASS_COLLINEAR_SAME_SIDE,
    centroid_incenter_cos,
    centroid_incenter_cos_parts,
    classical_cos_ION,
    classical_cos_parts,
    cos_angle_at_circumcenter,
    dual_cos_parts,
    excenter_adjoint_cos,
    exradii_identity_parts,
    exradii_identity_residual,
    fundamental_residual,
    fundamental_slack_sq,
    general_cos_parts,
    incenter_lemoine_cos,
    incenter_lemoine_cos_parts,
    rank_pair_parts,
    triple_cevian_cos,
)
from tribary.centers import (
    VERTICES,
    adjoint_nagel,
    centroid,
    excenter,
    incenter,
    lemoine_point,
    nagel_point,
)
from tribary.errors import DegenerateVertexAngle, UndefinedAngle
from tribary.kernel import (
    BaryPoint,
    TriangleSides,
    bergstrom_bound,
    circum_power,
    circumradius_sq,
    derive_elements,
    dist_sq_between,
    power_sum,
)
from tribary.verify import (
    VALID_STRATA,
    FuzzConfig,
    _parts_agree,
    _sample_exact_sides,
    run_fuzz,
)

GUARD = 1e-5  # squared-leg comparison guard, as a fraction of R^2


def float_triangle(rng: random.Random) -> TriangleSides:
    """A perimeter-2 triangle with sorted sides drawn uniformly."""
    while True:
        trip = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        x, y, z = trip
        total = x + y + z
        if x + y - z > total * 1e-9:
            scale = 2.0 / total
            return TriangleSides(x * scale, y * scale, z * scale)


def float_point(rng: random.Random) -> BaryPoint:
    while True:
        coords = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        if rng.random() < 0.10:
            coords[rng.randrange(3)] = 0.0
        if abs(coords[0] + coords[1] + coords[2]) >= 1e-6:
            return BaryPoint(*coords)


def rational_triangle(rng: random.Random) -> TriangleSides:
    """Exact rational sides with small denominators (not rescaled)."""
    while True:
        trip = sorted(Fraction(rng.randint(50_000, 10 ** 6), 10 ** 6) for _ in range(3))
        x, y, z = trip
        if x + y - z > (x + y + z) * Fraction(1, 10 ** 10):
            return TriangleSides(*trip)


REFERENCE = TriangleSides(3.0, 4.0, 5.0)
REFERENCE_EXACT = TriangleSides(Fraction(3), Fraction(4), Fraction(5))


def test_criterion_01_cos_matches_oracle_over_1e5_samples():
    started = time.monotonic()
    worst = 0.0
    compared = 0
    for index in range(100_000):
        rng = random.Random(f"acceptance-1:{index}")
        sides = float_triangle(rng)
        p = float_point(rng)
        q = float_point(rng)
        r_sq = circumradius_sq(sides)
        min_leg = GUARD * r_sq
        report = cos_angle_at_circumcenter(p, q, sides)
        if report.cos_value is None or min(report.op_sq, report.oq_sq) < min_leg:
            continue
        placement = oracle.place_triangle(*sides.as_tuple())
        center_xy = oracle.circumcenter_xy(placement)
        try:
            expected = oracle.angle_cos(
                center_xy,
                oracle.barycentric_to_cartesian(p.as_tuple(), placement),
                oracle.barycentric_to_cartesian(q.as_tuple(), placement),
                min_leg_sq=min_leg,
            )
        except UndefinedAngle:
            continue
        compared += 1
        worst = max(worst, abs(report.cos_value - expected))
    elapsed = time.monotonic() - started
    assert compared > 90_000
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_02_closed_forms_cohere_with_general_path():
    worst = 0.0
    for index in range(10_000):
        rng = random.Random(f"acceptance-2:{index}")
        sides = float_triangle(rng)
        el = derive_elements(sides)
        r_sq = circumradius_sq(sides)
        min_leg = GUARD * r_sq

        inc = incenter(sides)
        nag = nagel_point(sides)
        rep = cos_angle_at_circumcenter(inc, nag, sides)
        if (rep.cos_value is not None and not el.is_equilateral
                and min(rep.op_sq, rep.oq_sq) >= min_leg):
            worst = max(worst, abs(classical_cos_ION(el) - rep.cos_value))

        for vertex in VERTICES:
            rep = cos_angle_at_circumcenter(
                excenter(vertex, sides), adjoint_nagel(vertex, sides), sides)
            worst = max(worst, abs(excenter_adjoint_cos(vertex, el) - rep.cos_value))

        cen = centroid(sides)
        rep = cos_angle_at_circumcenter(cen, inc, sides)
        if (rep.cos_value is not None and not el.is_equilateral
                and min(rep.op_sq, rep.oq_sq) >= min_leg):
            worst = max(worst, abs(centroid_incenter_cos(el) - rep.cos_value))

        rep = cos_angle_at_circumcenter(inc, lemoine_point(sides), sides)
        if (rep.cos_value is not None and not el.is_equilateral
                and min(rep.op_sq, rep.oq_sq) >= min_leg):
            worst = max(worst, abs(incenter_lemoine_cos(el) - rep.cos_value))

        if index % 10 == 0:
            exact = rational_triangle(random.Random(f"acceptance-2-exact:{index}"))
            inc_e, nag_e, cen_e = incenter(exact), nagel_point(exact), centroid(exact)
            assert _parts_agree(general_cos_parts(inc_e, nag_e, exact),
                                classical_cos_parts(exact))
            assert _parts_agree(general_cos_parts(cen_e, inc_e, exact),
                                centroid_incenter_cos_parts(exact))
            assert _parts_agree(rank_pair_parts(0, 1, exact),
                                centroid_incenter_cos_parts(exact))
            assert _parts_agree(rank_pair_parts(1, 2, exact),
                                incenter_lemoine_cos_parts(exact))
            assert _parts_agree(
                general_cos_parts(excenter("A", exact), adjoint_nagel("A", exact), exact),
                dual_cos_parts("A", exact))
    assert worst <= 1e-10


def test_criterion_03_fundamental_inequality_all_strata_and_trend():
    config = FuzzConfig()
    for stratum in VALID_STRATA:
        for index in range(300):
            rng = random.Random(f"acceptance-3:{stratum}:{index}")
            exact = _sample_exact_sides(stratum, index, rng, config)
            sides = TriangleSides(*(float(v) for v in exact.as_tuple()))
            el = derive_elements(sides)
            tolerance = 1e-10 * el.semiperimeter ** 2
            if stratum == "near_degenerate":
                tolerance *= max(1.0, el.circumradius / el.inradius)
            assert fundamental_residual(el) >= -tolerance, (stratum, sides)

    # The slack vanishes monotonically as the triangle approaches
    # equilateral; exact arithmetic keeps the trend visible at every decade.
    exact_slacks = []
    for k in range(3, 9):
        d = Fraction(1, 10 ** k)
        exact_slacks.append(fundamental_slack_sq(TriangleSides(1, 1 + d / 2, 1 + d)))
    assert all(s > 0 for s in exact_slacks)
    assert all(a > b for a, b in zip(exact_slacks, exact_slacks[1:]))

    # The float residual shows the same decay until it reaches rounding
    # noise (around the 1e-5 decade); below that only its magnitude is
    # checked against the stated tolerance.
    float_residuals = []
    for k in range(3, 9):
        d = 10.0 ** -k
        el = derive_elements(TriangleSides(1.0, 1.0 + d / 2, 1.0 + d))
        float_residuals.append(fundamental_residual(el))
    assert float_residuals[0] > float_residuals[1] > 0.0
    for residual in float_residuals[2:]:
        assert abs(residual) <= 1e-10 * 1.5 ** 2


def test_criterion_04_dual_bounds_all_vertices_and_fixture():
    for index in range(10_000):
        rng = random.Random(f"acceptance-4:{index}")
        sides = float_triangle(rng)
        el = derive_elements(sides)
        r_sq = circumradius_sq(sides)
        condition = max(1.0, el.circumradius / el.inradius)
        for vertex in VERTICES:
            numerator, radicand = dual_cos_parts(vertex, sides)
            reach = math.sqrt(float(radicand))
            scale = max(r_sq, reach)
            tolerance = 1e-9 * scale * condition
            assert reach - numerator >= -tolerance, (sides, vertex)
            assert reach + numerator >= -tolerance, (sides, vertex)

    fixture = excenter_adjoint_cos("A", derive_elements(REFERENCE))
    assert fixture == pytest.approx(-0.96366, abs=1e-5)


def test_criterion_05_reference_triangle_fixtures():
    el = derive_elements(REFERENCE)
    r_sq = circumradius_sq(REFERENCE)
    inc = incenter(REFERENCE)
    nag = nagel_point(REFERENCE)

    oi_sq = r_sq - circum_power(inc, REFERENCE)
    on_sq = r_sq - circum_power(nag, REFERENCE)
    in_sq = dist_sq_between(inc, nag, REFERENCE)
    assert oi_sq == pytest.approx(1.25, rel=1e-12)
    assert math.sqrt(on_sq) == pytest.approx(0.5, rel=1e-12)
    assert in_sq == pytest.approx(1.0, rel=1e-12)

    report = cos_angle_at_circumcenter(inc, nag, REFERENCE)
    assert report.cos_value == pytest.approx(0.4472135954999579, rel=1e-12)

    bound = bergstrom_bound(inc, REFERENCE)
    assert bound == pytest.approx(5.0, rel=1e-12)
    assert r_sq - oi_sq == pytest.approx(bound, rel=1e-12)

    r_sq_e = circumradius_sq(REFERENCE_EXACT)
    inc_e = incenter(REFERENCE_EXACT)
    nag_e = nagel_point(REFERENCE_EXACT)
    assert r_sq_e - circum_power(inc_e, REFERENCE_EXACT) == Fraction(5, 4)
    assert r_sq_e - circum_power(nag_e, REFERENCE_EXACT) == Fraction(1, 4)
    assert dist_sq_between(inc_e, nag_e, REFERENCE_EXACT) == 1
    assert bergstrom_bound(inc_e, REFERENCE_EXACT) == 5
    assert r_sq_e - Fraction(5, 4) == bergstrom_bound(inc_e, REFERENCE_EXACT)


def test_criterion_06_power_identity_audit():
    worst = 0.0
    worst_exradii = 0.0
    for index in range(10_000):
        rng = random.Random(f"acceptance-6:{index}")
        sides = float_triangle(rng)
        el = derive_elements(sides)
        r_sq = circumradius_sq(sides)
        big_r, in_r = el.circumradius, el.inradius
        floor = GUARD * r_sq
        abc = sides.a * sides.b * sides.c
        s2 = power_sum(sides, 2)
        exradii = {"A": el.exradius_a, "B": el.exradius_b, "C": el.exradius_c}

        expectations = [
            (circum_power(incenter(sides), sides), 2.0 * big_r * in_r),
            (circum_power(centroid(sides), sides), s2 / 9.0),
            (circum_power(nagel_point(sides), sides),
             4.0 * big_r * in_r - 4.0 * in_r * in_r),
            (circum_power(lemoine_point(sides), sides), 3.0 * abc * abc / (s2 * s2)),
        ]
        for vertex in VERTICES:
            r_v = exradii[vertex]
            expectations.append(
                (circum_power(excenter(vertex, sides), sides), -2.0 * big_r * r_v))
            expectations.append(
                (circum_power(adjoint_nagel(vertex, sides), sides),
                 -4.0 * big_r * r_v - 4.0 * r_v * r_v))
        for got, expected in expectations:
            rel = abs(got - expected) / max(abs(expected), floor)
            worst = max(worst, rel)

        lhs, rhs = exradii_identity_parts(sides)
        worst_exradii = max(worst_exradii, abs(lhs - rhs) / abs(rhs))

        if index % 20 == 0:
            exact = rational_triangle(random.Random(f"acceptance-6-exact:{index}"))
            assert exradii_identity_residual(exact) == 0
    assert worst <= 1e-9
    assert worst_exradii <= 1e-10


def test_criterion_07_collinear_equality_characterization():
    checked = 0
    for index in range(2_000):
        rng = random.Random(f"acceptance-7:{index}")
        sides = float_triangle(rng)
        el = derive_elements(sides)
        if el.circumradius / el.inradius > 1e5:
            continue
        r_sq = circumradius_sq(sides)
        placement = oracle.place_triangle(*sides.as_tuple())
        center_xy = oracle.circumcenter_xy(placement)
        p = BaryPoint(*(rng.uniform(0.2, 2.0) for _ in range(3)))
        p_xy = oracle.barycentric_to_cartesian(p.as_tuple(), placement)
        if oracle.dist_sq(p_xy, center_xy) < 4.0 * GUARD * r_sq:
            continue
        checked += 1

        mirrored = oracle.reflect_through(p_xy, center_xy)
        q = BaryPoint(*oracle.cartesian_to_barycentric(mirrored, placement))
        rep = cos_angle_at_circumcenter(p, q, sides)
        assert rep.cos_value is not None
        assert abs(rep.cos_value + 1.0) <= 1e-8
        assert abs(float(rep.bounds.middle) - rep.bounds.lower) <= 1e-8 * r_sq

        halfway = (0.5 * (p_xy[0] + center_xy[0]), 0.5 * (p_xy[1] + center_xy[1]))
        q = BaryPoint(*oracle.cartesian_to_barycentric(halfway, placement))
        rep = cos_angle_at_circumcenter(p, q, sides)
        assert rep.cos_value is not None
        assert abs(rep.cos_value - 1.0) <= 1e-8
        assert abs(float(rep.bounds.middle) - rep.bounds.upper) <= 1e-8 * r_sq

        inc, cen, nag = incenter(sides), centroid(sides), nagel_point(sides)
        try:
            assert abs(triple_cevian_cos(inc, cen, nag, sides) + 1.0) <= 1e-8
            assert abs(triple_cevian_cos(cen, inc, nag, sides) - 1.0) <= 1e-8
        except DegenerateVertexAngle:
            pass
    assert checked > 1_000

    for sides in (TriangleSides(3.0, 4.0, 5.0), TriangleSides(5.0, 5.0, 6.0),
                  TriangleSides(6.0, 7.0, 8.0)):
        placement = oracle.place_triangle(*sides.as_tuple())
        center_xy = oracle.circumcenter_xy(placement)
        p = incenter(sides)
        p_xy = oracle.barycentric_to_cartesian(p.as_tuple(), placement)
        mirrored = oracle.reflect_through(p_xy, center_xy)
        q = BaryPoint(*oracle.cartesian_to_barycentric(mirrored, placement))
        assert (cos_angle_at_circumcenter(p, q, sides).classification
                == CLASS_COLLINEAR_OPPOSITE_SIDE)
        halfway = (0.5 * (p_xy[0] + center_xy[0]), 0.5 * (p_xy[1] + center_xy[1]))
        q = BaryPoint(*oracle.cartesian_to_barycentric(halfway, placement))
        assert (cos_angle_at_circumcenter(p, q, sides).classification
                == CLASS_COLLINEAR_SAME_SIDE)


def test_criterion_08_homogeneous_scale_invariance():
    for index in range(1_000):
        rng = random.Random(f"acceptance-8:{index}")
        sides = float_triangle(rng)
        p = float_point(rng)
        q = float_point(rng)
        base_cp = circum_power(p, sides)
        base_d = dist_sq_between(p, q, sides)
        base_rep = cos_angle_at_circumcenter(p, q, sides)
        for lam in (2.0, -1.0, 1e-6):
            scaled = BaryPoint(p.t1 * lam, p.t2 * lam, p.t3 * lam)
            assert circum_power(scaled, sides) == pytest.approx(
                base_cp, rel=1e-12, abs=1e-12)
            assert dist_sq_between(scaled, q, sides) == pytest.approx(
                base_d, rel=1e-12, abs=1e-12)
            rep = cos_angle_at_circumcenter(scaled, q, sides)
            if base_rep.cos_value is not None and rep.cos_value is not None:
                assert rep.cos_value == pytest.approx(
                    base_rep.cos_value, rel=1e-12, abs=1e-12)

    for index in range(200):
        rng = random.Random(f"acceptance-8-exact:{index}")
        sides = rational_triangle(rng)
        p = BaryPoint(Fraction(3, 7), Fraction(-1, 5), Fraction(1, 2))
        q = BaryPoint(Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)),
                      Fraction(rng.randint(1, 9)))
        base_cp = circum_power(p, sides)
        base_d = dist_sq_between(p, q, sides)
        for lam in (Fraction(2), Fraction(-1), Fraction(1, 10 ** 6)):
            scaled = BaryPoint(p.t1 * lam, p.t2 * lam, p.t3 * lam)
            assert circum_power(scaled, sides) == base_cp
            assert dist_sq_between(scaled, q, sides) == base_d


def test_criterion_09_verify_reports_byte_identical():
    command = [sys.executable, "-m", "tribary.cli", "verify",
               "--count", "10000", "--seed", "7", "--format", "json"]
    # the child finds tribary in src even when it is not installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    first = subprocess.run(command, capture_output=True, check=False, env=env)
    second = subprocess.run(command, capture_output=True, check=False, env=env)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["summary"]["pass"] is True
    assert report["config"]["count"] == 10000
    assert report["config"]["seed"] == 7


def test_criterion_10_variant_diagnostics_reported():
    report = run_fuzz(FuzzConfig(count=150, seed=7))
    data = report.to_data()
    by_name = {check["name"]: check for check in data["checks"]}

    radicand = by_name["diag_centroid_lemoine_radicand"]
    assert radicand["advisory"] is True
    counters = radicand["counters"]
    assert counters["radicand_positive"] + counters["radicand_nonpositive"] > 0

    sign_flip = by_name["diag_triple_expansion_sign"]
    assert sign_flip["advisory"] is True
    assert sign_flip["samples"] > 0
    assert sign_flip["max_abs_residual"] > 0.0

    halved = by_name["diag_incenter_lemoine_halved"]
    assert halved["advisory"] is True

    text = report.to_json()
    assert "diag_centroid_lemoine_radicand" in text
    assert "diag_triple_expansion_sign" in text
