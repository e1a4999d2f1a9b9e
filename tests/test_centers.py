"""Center catalog tests, with Cartesian cross-checks for the derived points.

Frozen oracle facts for the (3, 4, 5) triangle: the excenter opposite A sits
at (1, -2) and its distance to line BC equals the exradius 2; the incenter
cevian foot on BC splits it 5 : 4 from B.
"""

import pickle
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tribary import centers, cli, kernel, oracle
from tribary.centers import CenterSpec, parse_center_spec, resolve
from tribary.errors import (
    CenterSpecError,
    DegenerateTriangle,
    GeometryError,
    InputError,
    PointAtInfinity,
)
from tribary.kernel import BaryPoint, TriangleSides

RIGHT = TriangleSides(3.0, 4.0, 5.0)
PLACED = oracle.place_triangle(3.0, 4.0, 5.0)


def as_xy(point: BaryPoint, placement=PLACED):
    return oracle.barycentric_to_cartesian(point.as_tuple(), placement)


class TestNamedCenters:
    def test_incenter_weights(self):
        assert centers.incenter(RIGHT).as_tuple() == (3.0, 4.0, 5.0)

    def test_centroid_weights(self):
        assert centers.centroid(RIGHT).as_tuple() == (1.0, 1.0, 1.0)

    def test_nagel_weights(self):
        assert centers.nagel_point(RIGHT).as_tuple() == (3.0, 2.0, 1.0)

    def test_lemoine_weights(self):
        assert centers.lemoine_point(RIGHT).as_tuple() == (9.0, 16.0, 25.0)

    def test_circumcenter_maps_to_oracle_circumcenter(self):
        xy = as_xy(centers.circumcenter_point(RIGHT))
        assert xy == pytest.approx((1.5, 2.0), abs=1e-13)

    def test_excenter_a_cartesian(self):
        ex = centers.excenter("A", RIGHT)
        assert ex.as_tuple() == (-3.0, 4.0, 5.0)
        xy = as_xy(ex)
        assert xy == pytest.approx((1.0, -2.0), abs=1e-13)
        # distance to line BC (the x-axis) equals the exradius opposite A
        assert abs(xy[1]) == pytest.approx(2.0)

    def test_excenters_equidistant_from_sidelines(self):
        el = kernel.derive_elements(RIGHT)
        for vertex, expected in (("A", el.exradius_a), ("B", el.exradius_b), ("C", el.exradius_c)):
            xy = as_xy(centers.excenter(vertex, RIGHT))
            # |y| is the distance to sideline BC, which the placement puts on the x-axis
            assert abs(xy[1]) == pytest.approx(expected, rel=1e-12)

    def test_adjoint_nagel_weights_and_sums(self):
        s = 6.0
        adj_a = centers.adjoint_nagel("A", RIGHT)
        adj_b = centers.adjoint_nagel("B", RIGHT)
        adj_c = centers.adjoint_nagel("C", RIGHT)
        assert adj_a.as_tuple() == (6.0, -1.0, -2.0)
        assert adj_b.as_tuple() == (-1.0, 6.0, -3.0)
        assert adj_c.as_tuple() == (-2.0, -3.0, 6.0)
        assert sum(adj_a.as_tuple()) == pytest.approx(s - 3.0)
        assert sum(adj_b.as_tuple()) == pytest.approx(s - 4.0)
        assert sum(adj_c.as_tuple()) == pytest.approx(s - 5.0)

    @pytest.mark.parametrize("generator", [centers.excenter, centers.adjoint_nagel])
    @pytest.mark.parametrize("sides", [RIGHT, TriangleSides(Fraction(3), Fraction(4), Fraction(5))],
                             ids=["float", "exact"])
    def test_unknown_vertex_rejected(self, generator, sides):
        with pytest.raises(CenterSpecError, match="vertex must be A, B, or C, got 'D'"):
            generator("D", sides)

    def test_excenter_to_adjoint_distance(self):
        ex = centers.excenter("A", RIGHT)
        adj = centers.adjoint_nagel("A", RIGHT)
        assert kernel.dist_sq_between(ex, adj, RIGHT) == pytest.approx(109.0)
        expected = oracle.dist_sq(as_xy(ex), as_xy(adj))
        assert kernel.dist_sq_between(ex, adj, RIGHT) == pytest.approx(expected, rel=1e-12)


class TestCevianRank:
    def test_rank_zero_is_centroid(self):
        assert centers.cevian_rank(0, 0, 0, RIGHT).as_tuple() == (1.0, 1.0, 1.0)

    def test_rank_one_is_incenter(self):
        assert centers.cevian_rank(1, 0, 0, RIGHT).as_tuple() == (3.0, 4.0, 5.0)

    def test_rank_two_is_lemoine(self):
        assert centers.cevian_rank(2, 0, 0, RIGHT).as_tuple() == (9.0, 16.0, 25.0)

    def test_middle_exponent_gives_nagel(self):
        assert centers.cevian_rank(0, 1, 0, RIGHT).as_tuple() == (3.0, 2.0, 1.0)

    def test_fractional_exponents(self):
        point = centers.cevian_rank(0.5, 0.0, -1.5, RIGHT)
        a, b, c = 3.0, 4.0, 5.0
        assert point.t1 == pytest.approx(a**0.5 * (b + c) ** -1.5)
        assert point.t2 == pytest.approx(b**0.5 * (a + c) ** -1.5)
        assert point.t3 == pytest.approx(c**0.5 * (a + b) ** -1.5)

    def test_one_underflowing_weight_is_kept(self):
        # (1e-9)^40 underflows to 0.0, but the largest weight is a normal float
        point = centers.cevian_rank(40, 0, 0, TriangleSides(1.0, 1.0, 1e-9))
        assert point.as_tuple() == (1.0, 1.0, 0.0)

    def test_integer_exponents_stay_rational(self):
        sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        point = centers.cevian_rank(1.0, 2.0, -1.0, sides)
        assert isinstance(point.t1, Fraction)
        assert point.t1 == Fraction(3) * Fraction(9) / Fraction(9)

    def test_rational_centroid_normalizes_exactly(self):
        sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        assert centers.centroid(sides).normalized() == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )


def _per_factor_cevian(k, l, m, sides: TriangleSides) -> BaryPoint:
    """cevian_rank on float sides with one pow_keep_exact per factor: the route
    the single-expression weights must equal."""
    (a, b, c), gaps, power = sides.as_tuple(), sides.gaps, kernel.pow_keep_exact
    weights = [power(side, k) * power(gap, l) * power(rest, m)
               for side, gap, rest in zip((a, b, c), gaps, (b + c, a + c, a + b))]
    if all(w < sys.float_info.min for w in weights):
        raise GeometryError("cevian weights leave the float range")
    return BaryPoint(*weights)


_RANK = st.one_of(st.integers(-3, 3), st.floats(-40.0, 40.0),
                  st.fractions(-40, 40, max_denominator=4))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(*[st.floats(1e-6, 1.0)] * 3), st.integers(-60, 60),
       st.tuples(_RANK, _RANK, _RANK))
@example((1.0, 1.0, 1.0), 60, (6, 0, 0))  # 1e360: the power of a side overflows
@example((1.0, 1.0, 1.0), -60, (0, 0, 6))  # every weight underflows
@example((1.0, 2.0, 3.0), 0, (Fraction(1, 2), -1.5, 3))
def test_float_cevian_rank_equals_the_per_factor_powers(gaps, exponent, rank):
    """Float sides form each weight in one expression: the same repr, or the same
    exception and message, as one pow_keep_exact per factor."""
    u, v, w = gaps
    scale = 10.0 ** exponent
    try:
        sides = TriangleSides((v + w) * scale, (w + u) * scale, (u + v) * scale)
    except GeometryError:
        return
    outcomes = []
    for route in (centers.cevian_rank, _per_factor_cevian):
        try:
            outcomes.append(repr(route(*rank, sides)))
        except GeometryError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_float_cevian_rank_calls_no_pow_keep_exact(monkeypatch):
    calls = []

    def counted(base, exponent):
        calls.append((base, exponent))
        return kernel.pow_keep_exact(base, exponent)

    monkeypatch.setattr(centers, "pow_keep_exact", counted)
    for rank in ((2, -1, 3), (0.5, 0.0, -1.5), (Fraction(1, 3), 2, Fraction(-2))):
        centers.cevian_rank(*rank, RIGHT)
    centers.cevian_rank(1, 0, 0, TriangleSides(Fraction(3), 4.0, 5.0))  # mixed sides are floats
    assert calls == []
    centers.cevian_rank(1, 0.5, 0, TriangleSides(3, 4, 5))  # exact sides, a float rank: per factor
    assert len(calls) == 9


class TestCevianTriangle:
    def test_centroid_gives_medial_triangle(self):
        d, e, f = centers.cevian_triangle(BaryPoint(1.0, 1.0, 1.0))
        assert d.as_tuple() == (0.0, 1.0, 1.0)
        assert e.as_tuple() == (1.0, 0.0, 1.0)
        assert f.as_tuple() == (1.0, 1.0, 0.0)
        mid_bc = oracle.barycentric_to_cartesian((0.0, 1.0, 1.0), PLACED)
        assert mid_bc == pytest.approx((1.5, 0.0), abs=1e-14)

    def test_incenter_foot_splits_base_by_bisector_ratio(self):
        d, _, _ = centers.cevian_triangle(centers.incenter(RIGHT))
        d_xy = as_xy(d)
        bd = oracle.dist_sq(d_xy, PLACED.b_xy) ** 0.5
        dc = oracle.dist_sq(d_xy, PLACED.c_xy) ** 0.5
        assert bd / dc == pytest.approx(5.0 / 4.0, rel=1e-12)

    def test_foot_at_infinity_raises(self):
        with pytest.raises(PointAtInfinity):
            centers.cevian_triangle(BaryPoint(1.0, -1.0, 2.0))

    def test_feet_lie_on_their_sidelines(self):
        rng = random.Random(2024)
        for _ in range(50):
            weights = tuple(rng.uniform(0.1, 2.0) for _ in range(3))
            d, e, f = centers.cevian_triangle(BaryPoint(*weights))
            assert d.t1 == 0.0 and e.t2 == 0.0 and f.t3 == 0.0


class TestParsing:
    def test_simple_kinds(self):
        assert parse_center_spec("incenter") == CenterSpec("incenter")
        assert parse_center_spec("  Centroid ") == CenterSpec("centroid")
        assert parse_center_spec("NAGEL") == CenterSpec("nagel")
        assert parse_center_spec("lemoine") == CenterSpec("lemoine")

    def test_vertex_kinds(self):
        assert parse_center_spec("excenter:B") == CenterSpec("excenter", vertex="B")
        assert parse_center_spec("ADJNAGEL:c") == CenterSpec("adjnagel", vertex="C")

    def test_parametric_kinds(self):
        spec = parse_center_spec("cevian: 1 , 0.5 , -2")
        assert spec == CenterSpec("cevian", params=(1.0, 0.5, -2.0))
        spec = parse_center_spec("raw:0.3,-1,2")
        assert spec == CenterSpec("raw", params=(0.3, -1.0, 2.0))

    def test_exact_mode_reads_rationals(self):
        spec = parse_center_spec("raw:1/3,2/3,1", exact=True)
        assert spec.params == (Fraction(1, 3), Fraction(2, 3), Fraction(1))
        spec = parse_center_spec("cevian:1.5,0,1", exact=True)
        assert spec.params == (Fraction(3, 2), Fraction(0), Fraction(1))

    @pytest.mark.parametrize(
        "text",
        [
            "orthocenter",
            "incenter:A",
            "excenter",
            "excenter:D",
            "cevian:1,2",
            "raw:1,nan,3",
            "raw:1,inf,3",
            "cevian:x,y,z",
            "raw:1;2;3",
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(CenterSpecError):
            parse_center_spec(text)

    def test_spec_validation_on_construction(self):
        with pytest.raises(CenterSpecError):
            CenterSpec("excenter")
        with pytest.raises(CenterSpecError):
            CenterSpec("incenter", vertex="A")
        with pytest.raises(CenterSpecError):
            CenterSpec("cevian", params=(1.0, 2.0))
        with pytest.raises(CenterSpecError):
            CenterSpec("orthocenter")


class TestResolve:
    def test_named_round_trips(self):
        for text, expected in [
            ("incenter", (3.0, 4.0, 5.0)),
            ("centroid", (1.0, 1.0, 1.0)),
            ("nagel", (3.0, 2.0, 1.0)),
            ("lemoine", (9.0, 16.0, 25.0)),
            ("excenter:A", (-3.0, 4.0, 5.0)),
            ("adjnagel:A", (6.0, -1.0, -2.0)),
            ("cevian:1,0,0", (3.0, 4.0, 5.0)),
            ("raw:1,2,3", (1.0, 2.0, 3.0)),
        ]:
            point = resolve(parse_center_spec(text), RIGHT)
            assert point.as_tuple() == pytest.approx(expected)

    def test_raw_at_infinity_raises(self):
        with pytest.raises(PointAtInfinity):
            resolve(parse_center_spec("raw:1,-1,0"), RIGHT)

    def test_exact_resolution(self):
        sides = TriangleSides(Fraction(3), Fraction(4), Fraction(5))
        point = resolve(parse_center_spec("cevian:2,0,0", exact=True), sides)
        assert point.as_tuple() == (Fraction(9), Fraction(16), Fraction(25))


# (3/2, 2, 5/2) has the integer sides of (3, 4, 5) with lam = 2; the thin, the
# near-equilateral and the equilateral triangle (whose cevian ranks keep the
# Fraction powers) close the list.
EXACT_SIDES = [
    TriangleSides(Fraction(3), Fraction(4), Fraction(5)),
    TriangleSides(Fraction(7, 3), Fraction(5, 2), Fraction(13, 6)),
    TriangleSides(Fraction(2, 3), Fraction(1000001, 1500000), Fraction(1, 1)),
    TriangleSides(Fraction(3, 2), Fraction(2), Fraction(5, 2)),
    TriangleSides(Fraction(7), Fraction(8), Fraction(13)),
    TriangleSides(Fraction(1), Fraction(1), Fraction(199999, 100000)),
    TriangleSides(Fraction(1), Fraction(1000001, 1000000), Fraction(999999, 1000000)),
    TriangleSides(Fraction(2), Fraction(2), Fraction(2)),
]


def _documented_weights(spec: CenterSpec, sides: TriangleSides) -> tuple:
    """Each kind's weights written from its definition, in plain Fraction arithmetic."""
    a, b, c = sides.as_tuple()
    s = (a + b + c) / 2
    if spec.kind == "cevian":
        k, l, m = spec.params
        return tuple(kernel.pow_keep_exact(side, k) * kernel.pow_keep_exact(s - side, l)
                     * kernel.pow_keep_exact(2 * s - side, m) for side in (a, b, c))
    vertex_weights = {
        "excenter": {"A": (-a, b, c), "B": (a, -b, c), "C": (a, b, -c)},
        "adjnagel": {"A": (s, c - s, b - s), "B": (c - s, s, a - s), "C": (b - s, a - s, s)},
    }
    if spec.kind in vertex_weights:
        return vertex_weights[spec.kind][spec.vertex]
    return {"incenter": (a, b, c), "centroid": (Fraction(1),) * 3, "nagel": (s - a, s - b, s - c),
            "lemoine": (a * a, b * b, c * c), "raw": spec.params}[spec.kind]


class TestExactResolve:
    """Exact generators build their points from the triangle's integer context;
    each must be indistinguishable from the constructor's point of its weights."""

    SPECS = [CenterSpec(kind) for kind in ("incenter", "centroid", "nagel", "lemoine")] + [
        CenterSpec(kind, vertex=v) for kind in ("excenter", "adjnagel") for v in "ABC"
    ] + [CenterSpec("raw", params=(Fraction(-2, 7), Fraction(5, 3), Fraction(1)))]

    @pytest.mark.parametrize("sides", EXACT_SIDES)
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.kind}{spec.vertex or ''}")
    def test_every_kind_equals_its_formula(self, spec, sides):
        self._check(spec, sides)

    @pytest.mark.parametrize("sides", EXACT_SIDES)
    def test_cevian_ranks_equal_their_formula(self, sides):
        grid = [(k, l, m) for k in range(-3, 4) for l in range(-3, 4) for m in range(-3, 4)]
        for rank in grid + [tuple(map(Fraction, rank)) for rank in grid]:  # --exact reads Fractions
            self._check(CenterSpec("cevian", params=rank), sides)

    @staticmethod
    def _check(spec, sides):
        expected = _documented_weights(spec, sides)
        point, reference = resolve(spec, sides), BaryPoint(*expected)
        assert point.as_tuple() == expected
        assert all(type(v) is Fraction for v in point.as_tuple())
        assert repr(point) == repr(reference) and point.ints == reference.ints
        assert point == reference and hash(point) == hash(reference)
        assert list(vars(point)) == list(vars(reference)) == ["t1", "t2", "t3", "ints"]
        assert pickle.dumps(point) == pickle.dumps(reference)
        total = sum(expected)
        assert point.normalized() == tuple(v / total for v in expected)

    def test_huge_exact_rank_is_refused(self):
        for rank in (Fraction(10**4), 10**4):
            with pytest.raises(GeometryError, match="digit limit"):
                resolve(CenterSpec("cevian", params=(rank, 0, 0)), EXACT_SIDES[1])

    @pytest.mark.parametrize("rank", [(10**4, 0, 0), (0, 0, -10**4), (2, 3000, 10**4),
                                      (1, 10**5, 10**4), (3000, 0, 10**4)])
    @pytest.mark.parametrize("sides", EXACT_SIDES[3:5], ids=["3/2,2,5/2", "7,8,13"])
    def test_refusals_match_the_fraction_powers(self, rank, sides):
        spec = CenterSpec("cevian", params=rank)
        with pytest.raises(GeometryError) as expected:
            _documented_weights(spec, sides)
        with pytest.raises(GeometryError, match=re.escape(str(expected.value))):
            resolve(spec, sides)

    @pytest.mark.parametrize("sides, rank", [
        (TriangleSides(Fraction(1), Fraction(1), Fraction(1)), (10**6, 0, 0)),  # a = 1
        (TriangleSides(Fraction(2), Fraction(2), Fraction(2)), (0, -10**6, 0)),  # s - a = 1
        (TriangleSides(*[Fraction(1, 2)] * 3), (0, 0, 10**6)),  # b + c = 1
    ])
    def test_unit_bases_take_any_rank(self, monkeypatch, sides, rank):
        # Each unit Fraction base has the integer base 1 or 2, and 2 ** 10**6 is
        # what the digit limit exists to refuse: equilateral ranks keep the Fractions.
        monkeypatch.setattr(centers, "_integer_cevian_rank", None)
        point = resolve(CenterSpec("cevian", params=rank), sides)
        assert point.as_tuple() == (Fraction(1),) * 3 and point.ints == (1, 1, 1)


class TestReader:
    def test_numbers_in_both_modes(self):
        assert centers.parse_number(" 1.5 ") == 1.5
        assert centers.parse_number("15e-1", exact=True) == Fraction(3, 2)
        assert centers.parse_number("3/2", exact=True) == Fraction(3, 2)
        assert centers.parse_number("1e4300", exact=True) == 10**4300

    @pytest.mark.parametrize("text, exact", [
        ("x", False), ("1/3", False), ("inf", False), ("nan", False), ("", False),
        ("nan", True), ("1/0", True), ("abce99999", True), ("1/3e99999", True),
        ("1e" + "9" * 5000, True),
    ])
    def test_malformed_raises_input_error(self, text, exact):
        with pytest.raises(InputError):
            centers.parse_number(text, exact)

    @pytest.mark.parametrize("text", ["1e4301", "1e-10000000", "0e99999", " -2.5E+99999 "])
    def test_exact_exponent_past_the_digit_limit_refused(self, text):
        with pytest.raises(GeometryError, match="exponent past the"):
            centers.parse_number(text, exact=True)

    @pytest.mark.parametrize("cells", [["1", "2"], ["3", "4", "5", "6"]])
    def test_sides_count_checked(self, cells):
        with pytest.raises(InputError, match=f"expected three side lengths, got {len(cells)}"):
            centers.parse_sides(cells)

    def test_exact_sides_checked_as_floats_first(self):
        assert centers.parse_sides(["3", "4", "5"], exact=True) == TriangleSides(
            Fraction(3), Fraction(4), Fraction(5))
        with pytest.raises(DegenerateTriangle, match=r"\(1\.0, 1\.0, 2\.0\)"):
            centers.parse_sides(["1", "1", "2"], exact=True)
        with pytest.raises(DegenerateTriangle, match="float range"):
            centers.parse_sides(["1e400", "1e400", "1e400"], exact=True)


def test_readme_point_specs_parse():
    """Every spec in the README's point-grammar paragraph parses, and together
    they cover every point kind the parser knows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"Points are named centers.*?\n\n", readme, re.S).group(0)
    specs = re.findall(r"`([^`]+)`", paragraph)
    kinds = {parse_center_spec(spec).kind for spec in specs}
    assert kinds == set(centers._KINDS)


def test_center_help_names_every_kind(capsys):
    assert cli.main(["center", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert all(kind in help_text for kind in centers._KINDS)
