"""Angles subtended at the circumcenter and the inequalities they generate.

The general path builds everything from the kernel's squared distances: for
points P and Q it reports cos of the angle POQ together with the bound triple

    -2 sqrt(OP^2 OQ^2)  <=  OP^2 + OQ^2 - PQ^2  <=  2 sqrt(OP^2 OQ^2),

whose middle member is 2 OP OQ cos.  Equality on either side means O, P, Q
are collinear.  Specializing P and Q to named centers collapses the middle
member into closed forms in s, R, r and the exradii; those closed forms and
their slack terms live here too, each in a float flavor (taking derived
elements) and a squared-level flavor that is a rational function of the sides
and therefore exact for rational input.

Three widely circulated closed-form variants disagree with the verified
general path: one evaluates to exactly half the true cosine, one mixes
length^2 and length^4 terms in a radicand (negative for typical triangles,
and yielding values outside [-1, 1] for flat ones), and one three-point
expansion has a sign flipped on its c^2 group.  They are kept, suffixed
``_variant`` or ``_halved``, solely so verification reports can quantify the
disagreement; nothing else calls them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from . import kernel
from .centers import vertex_index
from .errors import DegenerateTriangle, DegenerateVertexAngle, EquilateralDegenerate, UndefinedAngle
from .kernel import BaryPoint, TriangleElements, TriangleSides

# Relative threshold (against R^2) below which a leg OP is numerically zero
# and the angle at O carries no information.
EPS_ANGLE = 1e-12
_EPS_SQ = EPS_ANGLE * EPS_ANGLE
_EPS_SQ_NUM, _EPS_SQ_DEN = _EPS_SQ.as_integer_ratio()  # the exact route's eps^2
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_INF = math.inf
_tuple_new = tuple.__new__

# Threshold on 1 - |cos| for flagging the collinear equality cases.
EPS_COLLINEAR = 1e-9

# Relative threshold (against R^2) for treating two points as coincident.
EPS_DISTINCT = 1e-12

CLASS_GENERIC = "generic"
CLASS_COLLINEAR_SAME_SIDE = "collinear_same_side"
CLASS_COLLINEAR_OPPOSITE_SIDE = "collinear_opposite_side"
CLASS_UNDEFINED = "undefined"


class BoundTriple(NamedTuple):
    lower: float
    middle: float
    upper: float


class AngleReport(NamedTuple):
    """Cosine, squared legs, and inequality bounds for one angle at O.

    cos_value is None exactly when classification is "undefined".  In exact
    mode the squared fields and the middle bound stay rational; the cosine
    and the outer bounds always involve a square root and stay float.
    """

    cos_value: Optional[float]
    op_sq: object
    oq_sq: object
    pq_sq: object
    bounds: BoundTriple
    classification: str


def _clamp(value: float) -> float:
    return max(-1.0, min(1.0, value))


def _to_float(value, name: str) -> float:
    """float(value); DegenerateTriangle when the exact value exceeds the float range."""
    try:
        return float(value)
    except OverflowError as exc:
        raise DegenerateTriangle(f"{name} exceeds the float range") from exc


class _Cleared(NamedTuple):
    """Theorem 3.1 over the integers, for exact sides and weights.

    Every squared length is homogeneous in the sides and in each point's
    weights, so it reads the kernel's integer contexts: (A, B, C) = lam (a, b, c),
    H = 16 area^2 of (A, B, C), (ABC)^2, and each point's coprime weights with
    sum sigma.  F is the displacement form of Schindler and Chen over (A, B, C):

        OP^2 = N_P / (H lam^2 sigma_P^2),   N_P = (ABC)^2 sigma_P^2 - H F(P),
        PQ^2 = -F_D / (lam^2 sigma_P^2 sigma_Q^2),   F_D = F(sigma_Q P - sigma_P Q),
        OP^2 + OQ^2 - PQ^2 = M / (H lam^2 sigma_P^2 sigma_Q^2),
        M = N_P sigma_Q^2 + N_Q sigma_P^2 + H F_D.

    Every field is a Python int; only the reported values become Fractions.
    """

    abc_sq: int  # (ABC)^2
    leg_den: int  # H lam^2
    lam_sq: int
    sp_sq: int
    sq_sq: int
    n_p: int
    n_q: int
    f_d: int
    m: int

    def report(self) -> AngleReport:
        """cos_angle_at_circumcenter's report, with its guards in the same order; Theorem
        3.2's equality case is decided exactly, and upper is rounded outward."""
        abc_sq, leg_den, lam_sq, sp_sq, sq_sq, n_p, n_q, f_d, m = self
        op_sq = Fraction(n_p, leg_den * sp_sq)
        oq_sq = Fraction(n_q, leg_den * sq_sq)
        pq_sq = Fraction(-f_d, lam_sq * sp_sq * sq_sq)
        middle = Fraction(m, leg_den * sp_sq * sq_sq)  # OP^2 + OQ^2 - PQ^2
        product, product_den = n_p * n_q, leg_den * leg_den * sp_sq * sq_sq
        try:  # int / int is correctly rounded, as float(Fraction) is
            quotient = product / product_den
        except OverflowError as exc:
            raise DegenerateTriangle("OP^2 OQ^2 exceeds the float range") from exc
        upper = nearest = 2.0 * math.sqrt(max(quotient, 0.0))
        num, den = upper.as_integer_ratio()  # rounded outward: upper^2 >= 4 OP^2 OQ^2, exactly
        while quotient >= _FLOAT_MIN and num * num * product_den < 4 * product * den * den:
            upper = math.nextafter(upper, math.inf)
            num, den = upper.as_integer_ratio()
        bounds = BoundTriple(-upper, middle, upper)
        # OP^2 OQ^2 <= eps^2 R^4 exactly, both sides times (H lam^2)^2 sigma_P^2 sigma_Q^2
        if product * _EPS_SQ_DEN <= _EPS_SQ_NUM * abc_sq * abc_sq * sp_sq * sq_sq:
            return AngleReport(None, op_sq, oq_sq, pq_sq, bounds, CLASS_UNDEFINED)
        if quotient < _FLOAT_MIN:  # upper could not be rounded outward
            raise DegenerateTriangle("OP^2 OQ^2 underflows the float range")
        cos_value = _clamp(float(middle) / nearest)
        # middle^2 == 4 OP^2 OQ^2, both sides times (H lam^2 sigma_P^2 sigma_Q^2)^2
        if m * m != 4 * product * sp_sq * sq_sq:
            classification = CLASS_GENERIC
        elif m > 0:
            classification = CLASS_COLLINEAR_SAME_SIDE
        else:
            classification = CLASS_COLLINEAR_OPPOSITE_SIDE
        return AngleReport(cos_value, op_sq, oq_sq, pq_sq, bounds, classification)


def _clear(p: BaryPoint, q: BaryPoint, sides: TriangleSides) -> _Cleared:
    """The integers of _Cleared, for exact sides and points."""
    h, abc_sq, lam, (a, b, c) = sides.h, sides.abc_sq, sides.lam, sides.ints
    diff, sp, sq = kernel._displacement_ints(p, q)
    sp_sq, sq_sq = sp * sp, sq * sq
    form = kernel._quadratic_form
    n_p = abc_sq * sp_sq - h * form(p.ints, a, b, c)
    n_q = abc_sq * sq_sq - h * form(q.ints, a, b, c)
    f_d = form(diff, a, b, c)
    m = n_p * sq_sq + n_q * sp_sq + h * f_d
    return _Cleared(abc_sq, h * lam * lam, lam * lam, sp_sq, sq_sq, n_p, n_q, f_d, m)


def general_cos_parts(p: BaryPoint, q: BaryPoint, sides: TriangleSides):
    """Numerator and squared denominator of cos POQ, as rational expressions.

    Returns (numerator, radicand) with cos = numerator / sqrt(radicand); both
    stay exact in exact mode (kernel.one_mode), and in float mode they are the
    float report's middle and 4 OP^2 OQ^2.
    """
    if sides.ints is None or p.ints is None or q.ints is None:  # not all exact
        report = cos_angle_at_circumcenter(p, q, sides)
        return report.bounds.middle, 4 * (report.op_sq * report.oq_sq)
    c = _clear(p, q, sides)
    den = c.leg_den * c.sp_sq * c.sq_sq
    return Fraction(c.m, den), Fraction(4 * c.n_p * c.n_q, den * c.leg_den)


def cos_angle_at_circumcenter(p: BaryPoint, q: BaryPoint, sides: TriangleSides) -> AngleReport:
    """Full angle report for P and Q as seen from the circumcenter.

    A numerically vanishing leg is reported as classification "undefined"
    rather than raised, since degenerate requests are ordinary data here.
    The call runs in the number mode of kernel.one_mode.  Exact mode takes the
    integer route of _Cleared, which decides the collinear classifications
    exactly and rounds the outer bounds outward; float mode classifies with
    the EPS_COLLINEAR threshold.
    """
    if sides.ints is not None and p.ints is not None and q.ints is not None:
        return _clear(p, q, sides).report()
    if not (sides.ints is None and p.ints is None and q.ints is None):  # mixed modes
        p, q, sides = kernel.float_mode(p, q, sides=sides)
    a, b, c = sides.a, sides.b, sides.c
    p1, p2, p3 = p.t1, p.t2, p.t3
    q1, q2, q3 = q.t1, q.t2, q.t3
    # All floats, in one pass: each point normalised once and each side squared once.
    # An intentional duplicate of kernel.circum_power and kernel.dist_sq_between, held
    # bit for bit by the tests to a composition of the two.  -inf < x < inf is
    # abs(x) < inf without a call; a product in (0, min) has raised before the
    # undefined test, so nothing else can.
    total = p1 + p2 + p3
    n1, n2, n3 = p1 / total, p2 / total, p3 / total
    total = q1 + q2 + q3
    m1, m2, m3 = q1 / total, q2 / total, q3 / total
    a_sq, b_sq, c_sq = a * a, b * b, c * c
    r_sq = sides.r_sq
    power = n2 * n3 * a_sq + n3 * n1 * b_sq + n1 * n2 * c_sq
    if not -_INF < power < _INF:
        raise DegenerateTriangle("R^2 - OP^2 leaves the float range")
    op_sq = r_sq - power
    power = m2 * m3 * a_sq + m3 * m1 * b_sq + m1 * m2 * c_sq
    if not -_INF < power < _INF:
        raise DegenerateTriangle("R^2 - OP^2 leaves the float range")
    oq_sq = r_sq - power
    d1, d2, d3 = n1 - m1, n2 - m2, n3 - m3
    pq_sq = -(d2 * d3 * a_sq + d3 * d1 * b_sq + d1 * d2 * c_sq)
    if not -_INF < pq_sq < _INF:
        raise DegenerateTriangle("PQ^2 leaves the float range")
    middle, product = op_sq + oq_sq - pq_sq, op_sq * oq_sq
    if not (-_INF < product < _INF and -_INF < middle < _INF):
        raise DegenerateTriangle("OP^2, OQ^2 or PQ^2 exceeds the float range")
    if -_FLOAT_MIN < product < _FLOAT_MIN and op_sq and oq_sq:
        raise DegenerateTriangle("OP^2 OQ^2 underflows the float range")
    upper = 2.0 * math.sqrt(product) if product >= 0.0 else 0.0  # max(product, 0.0) keeps -0.0
    # tuple.__new__ skips the Python-level __new__ that AngleReport(...) and _make run
    bounds = _tuple_new(BoundTriple, (-upper, middle, upper))
    if product <= _EPS_SQ * r_sq * r_sq:
        return _tuple_new(AngleReport, (None, op_sq, oq_sq, pq_sq, bounds, CLASS_UNDEFINED))
    cos_value = middle / upper  # clamped as _clamp does, without its calls
    if cos_value > 1.0:
        cos_value = 1.0
    elif cos_value < -1.0:
        cos_value = -1.0
    if 1.0 - cos_value <= EPS_COLLINEAR:
        classification = CLASS_COLLINEAR_SAME_SIDE
    elif 1.0 + cos_value <= EPS_COLLINEAR:
        classification = CLASS_COLLINEAR_OPPOSITE_SIDE
    else:
        classification = CLASS_GENERIC
    return _tuple_new(AngleReport, (cos_value, op_sq, oq_sq, pq_sq, bounds, classification))


def blundon_bounds(p: BaryPoint, q: BaryPoint, sides: TriangleSides) -> BoundTriple:
    """The bound triple alone; always computable, even for vanishing legs."""
    return cos_angle_at_circumcenter(p, q, sides).bounds


# ---------------------------------------------------------------------------
# incenter / Nagel specialization and the fundamental inequality


def _closed_form_cos(parts, elements: TriangleElements, points: str) -> float:
    """cos from parts; a float radicand can cancel to <= 0 short of is_equilateral."""
    numerator, radicand = parts(elements.sides)
    if elements.is_equilateral or radicand <= 0:
        raise EquilateralDegenerate(f"{points} coincide with O")
    return _clamp(float(numerator) / math.sqrt(float(radicand)))


def classical_cos_parts(sides: TriangleSides):
    """(numerator, radicand) of cos ION as rational functions of the sides."""
    s, r_sq, rr, i_sq = kernel.euler_terms(sides)
    numerator = 2 * r_sq + 10 * rr - i_sq - s * s
    # (2 (R - 2r) sqrt(R^2 - 2Rr))^2, with (R - 2r)^2 expanded rationally
    radicand = 4 * (r_sq - 4 * rr + 4 * i_sq) * (r_sq - 2 * rr)
    return numerator, radicand


def classical_cos_ION(elements: TriangleElements) -> float:
    """Closed form for cos of the incenter-circumcenter-Nagel angle."""
    return _closed_form_cos(classical_cos_parts, elements, "incenter and Nagel point")


def fundamental_residual(elements: TriangleElements) -> float:
    """Slack of the fundamental inequality; nonnegative for every triangle.

    Value is 2 (R - 2r) sqrt(R^2 - 2Rr) - |s^2 - 2R^2 - 10Rr + r^2|, which is
    exactly (1 - |cos ION|) times the positive denominator of the closed form.
    """
    # Restates classical_cos_parts in R and r on purpose: the element-level
    # cross-check of fundamental_slack_sq.
    s = elements.semiperimeter
    big_r, r = elements.circumradius, elements.inradius
    gap = big_r - 2.0 * r
    lhs = 2.0 * gap * math.sqrt(max(big_r * gap, 0.0))
    rhs = abs(s * s - 2.0 * big_r * big_r - 10.0 * big_r * r + r * r)
    return lhs - rhs


def fundamental_slack_sq(sides: TriangleSides):
    """Squared-level fundamental slack, rational in the sides.

    Equals radicand - numerator^2 of the closed form, so it is nonnegative
    exactly when |cos ION| <= 1; zero only in the equilateral limit.
    """
    numerator, radicand = classical_cos_parts(sides)
    return radicand - numerator * numerator


# ---------------------------------------------------------------------------
# excenter / adjoint specialization (the dual inequality family)


def dual_cos_parts(vertex: str, sides: TriangleSides):
    """(numerator, radicand) of cos at O between the excenter and adjoint
    points opposite the given vertex, rational in the sides."""
    _, r_sq, rr_v, rv_sq = kernel.euler_terms(sides, sides.as_tuple()[vertex_index(vertex)])
    quarter = kernel.power_sum(sides, 2) / 4
    numerator = r_sq - 3 * rr_v - rv_sq - quarter
    # ((R + 2 r_v) sqrt(R^2 + 2 R r_v))^2 without individual square roots
    radicand = (r_sq + 4 * rr_v + 4 * rv_sq) * (r_sq + 2 * rr_v)
    return numerator, radicand


def excenter_adjoint_cos(vertex: str, elements: TriangleElements) -> float:
    """Closed form for cos of the excenter-circumcenter-adjoint angle.

    Always defined: both legs exceed R, so no degenerate case exists.
    """
    numerator, radicand = dual_cos_parts(vertex, elements.sides)
    return _clamp(float(numerator) / math.sqrt(float(radicand)))


def dual_bound_residual(vertex: str, elements: TriangleElements) -> float:
    """Slack of the upper dual bound on (a^2 + b^2 + c^2) / 4; nonnegative."""
    # Restates dual_cos_parts in R and r_v on purpose: the element-level
    # cross-check of dual_slack_sq.
    sides = elements.sides
    big_r = elements.circumradius
    r_v = (elements.exradius_a, elements.exradius_b, elements.exradius_c)[vertex_index(vertex)]
    quarter = float(kernel.power_sum(sides, 2)) / 4.0
    envelope = big_r * big_r - 3.0 * big_r * r_v - r_v * r_v
    reach = (big_r + 2.0 * r_v) * math.sqrt(big_r * big_r + 2.0 * big_r * r_v)
    return envelope + reach - quarter


def dual_slack_sq(vertex: str, sides: TriangleSides):
    """Squared-level dual slack (radicand - numerator^2), rational and >= 0."""
    numerator, radicand = dual_cos_parts(vertex, sides)
    return radicand - numerator * numerator


def exradii_identity_parts(sides: TriangleSides):
    """Both members of the exradii product identity used by the dual family.

    Returns (lhs, rhs) with lhs = -a^2/(r_b r_c) + b^2/(r r_b) + c^2/(r r_c)
    and rhs = 4 R / r_a + 4.  Both are rational in the sides, and the identity
    is algebraic, so exact input gives lhs == rhs exactly.
    """
    a, b, c = sides.as_tuple()
    s, (ua, ub, uc), area = sides.s, sides.gaps, sides.area2
    lhs = (-(a * a) * ub * uc + (b * b) * s * ub + (c * c) * s * uc) / area
    return lhs, sides.abc * ua / area + 4


def exradii_identity_residual(sides: TriangleSides):
    lhs, rhs = exradii_identity_parts(sides)
    return lhs - rhs


# ---------------------------------------------------------------------------
# rank-exponent points: cos at O between the points with weights (a^k : b^k : c^k)


def _rank_point(k, sides: TriangleSides):
    """(normalized weights, circum_power (abc)^k S_{2-k} / S_k^2) of the rank-k point."""
    powers = [kernel.pow_keep_exact(side, k) for side in sides.as_tuple()]
    s_k = powers[0] + powers[1] + powers[2]  # kernel.power_sum's order
    if not s_k:  # float powers that all underflow
        raise DegenerateTriangle(f"S_k of rank {k} leaves the float range")
    s_k_sq = s_k * s_k
    if not s_k_sq:  # float powers too small to square
        raise DegenerateTriangle(f"S_k^2 of rank {k} underflows the float range")
    weights = tuple(side_k / s_k for side_k in powers)
    power = kernel.pow_keep_exact(sides.abc, k) * kernel.power_sum(sides, 2 - k) / s_k_sq
    return weights, power


def rank_pair_parts(k1, k2, sides: TriangleSides):
    """(numerator, radicand) of cos at O for the rank-k1 and rank-k2 points.

    Built from power sums rather than BaryPoint plumbing, so it serves as an
    independent specialization of the general path.  The call runs in the number
    mode of kernel.rank_mode: exact for integral ranks on exact sides.
    """
    sides = kernel.rank_mode(sides, k1, k2)
    # Re-derives the legs and the quadratic form on purpose: an independent cross-check.
    r_sq = kernel.circumradius_sq(sides)
    (p1, p2, p3), p_power = _rank_point(k1, sides)
    op_sq = r_sq - p_power
    (q1, q2, q3), q_power = _rank_point(k2, sides)
    oq_sq = r_sq - q_power
    alpha, beta, gamma = p1 - q1, p2 - q2, p3 - q3
    a_sq, b_sq, c_sq = kernel.side_squares(sides)
    pq_sq = -(beta * gamma * a_sq + gamma * alpha * b_sq + alpha * beta * c_sq)
    return op_sq + oq_sq - pq_sq, 4 * op_sq * oq_sq


def rank_pair_cos(k1, k2, sides: TriangleSides) -> float:
    """cos at O between the rank-k1 and rank-k2 points.

    Raises UndefinedAngle when either point sits at O (equilateral triangles
    put every rank point there), DegenerateTriangle past the float range.
    """
    sides = kernel.rank_mode(sides, k1, k2)  # the threshold reads the parts' triangle
    numerator, radicand = rank_pair_parts(k1, k2, sides)
    r_sq = _to_float(sides.r_sq, "R^2")
    # Range first: past it 4 eps^2 R^4 is infinite too, and every radicand falls below it.
    float_radicand = _to_float(radicand, "OP^2 OQ^2")
    if radicand <= 4 * _EPS_SQ * r_sq * r_sq:
        raise UndefinedAngle(f"rank ({k1}, {k2}) legs vanish at the circumcenter")
    if float_radicand < _FLOAT_MIN:  # only an exact radicand gets here
        raise DegenerateTriangle("OP^2 OQ^2 underflows the float range")
    return _clamp(float(numerator) / math.sqrt(float_radicand))


# ---------------------------------------------------------------------------
# closed forms for specific rank pairs


def centroid_incenter_cos_parts(sides: TriangleSides):
    """(numerator, radicand) of the rank (0, 1) closed form (centroid vs incenter)."""
    s, r_sq, rr, i_sq = kernel.euler_terms(sides)
    numerator = 6 * r_sq - s * s - i_sq + 2 * rr
    radicand = 4 * (9 * r_sq - 2 * s * s + 2 * i_sq + 8 * rr) * (r_sq - 2 * rr)
    return numerator, radicand


def centroid_incenter_cos(elements: TriangleElements) -> float:
    return _closed_form_cos(centroid_incenter_cos_parts, elements, "centroid and incenter")


def incenter_lemoine_cos_parts(sides: TriangleSides):
    """(numerator, radicand) of the rank (1, 2) closed form, scaled by R.

    Multiplying numerator and denominator by R keeps both members rational:
    numerator R^2 S2 + R r S2 - 4 R r s^2, radicand R^2 (R^2 - 2Rr)
    (S2^2 - 48 r^2 s^2).
    """
    s, r_sq, rr, i_sq = kernel.euler_terms(sides)
    s2 = kernel.power_sum(sides, 2)
    numerator = r_sq * s2 + rr * s2 - 4 * rr * s * s
    radicand = r_sq * (r_sq - 2 * rr) * (s2 * s2 - 48 * i_sq * s * s)
    return numerator, radicand


def incenter_lemoine_cos(elements: TriangleElements) -> float:
    """Closed form for cos at O between the incenter and the Lemoine point."""
    return _closed_form_cos(incenter_lemoine_cos_parts, elements, "incenter and Lemoine point")


def incenter_lemoine_cos_halved(elements: TriangleElements) -> float:
    """Diagnostic variant: same expression with an extra factor 2 in the
    denominator, yielding exactly half the true cosine.  Kept only so
    verification reports can show the factor-of-two disagreement."""
    return 0.5 * incenter_lemoine_cos(elements)


def centroid_lemoine_variant_parts(elements: TriangleElements):
    """Pieces of the diagnostic closed-form variant for centroid vs Lemoine.

    Returns (numerator, first radicand, second radicand).  The second
    radicand mixes length^2 and length^4 terms, so its sign depends on the
    overall scale: negative for typical perimeter-normalized triangles, and
    where it turns positive (flat triangles) the quotient leaves [-1, 1].
    The trusted value comes from rank_pair_cos(0, 2).
    """
    s = elements.semiperimeter
    big_r, r = elements.circumradius, elements.inradius
    s2 = float(kernel.power_sum(elements.sides, 2))
    s4 = float(kernel.power_sum(elements.sides, 4))
    numerator = 6.0 * big_r * big_r * s2 - s2 * s2 + 4.0 * s4
    rad_one = 9.0 * big_r * big_r - s2
    rad_two = big_r * big_r - s2 * s2 - 48.0 * (big_r * r * s) ** 2
    return numerator, rad_one, rad_two


def centroid_lemoine_cos_variant(elements: TriangleElements) -> Optional[float]:
    """Evaluate the diagnostic variant; None when its radicand is negative.

    The returned value is not clamped: when real it usually falls outside
    [-1, 1], which is part of what the diagnostic documents."""
    numerator, rad_one, rad_two = centroid_lemoine_variant_parts(elements)
    product = rad_one * rad_two
    if product <= 0.0:
        return None
    return numerator / (2.0 * math.sqrt(product))


# ---------------------------------------------------------------------------
# angles of the triangle formed by three points (vertex at the middle point)


def triple_cevian_cos(p1: BaryPoint, p2: BaryPoint, p3: BaryPoint, sides: TriangleSides) -> float:
    """cos of the angle at p2 in the triangle p1 p2 p3, from squared distances.

    Raises DegenerateVertexAngle when any two of the points (nearly)
    coincide, measured against R^2.
    """
    p1, p2, p3, sides = kernel.one_mode(p1, p2, p3, sides=sides)
    d12 = kernel.dist_sq_between(p1, p2, sides)
    d23 = kernel.dist_sq_between(p2, p3, sides)
    d31 = kernel.dist_sq_between(p3, p1, sides)
    return _clamp(_vertex_cos(d12 + d23 - d31, d12, d23, min(d12, d23, d31), sides))


def _vertex_cos(numerator, d12, d23, closest, sides: TriangleSides) -> float:
    """numerator / (2 sqrt(d12 d23)) in floats.  Raises, in this order, past the float
    range, for a closest squared distance that vanishes, and when d12 d23 underflows."""
    try:
        numerator, product = float(numerator), float(d12) * float(d23)
    except OverflowError:  # an exact value past the float range
        numerator = product = math.inf
    if not (abs(product) < math.inf and abs(numerator) < math.inf):  # catches a non-finite leg too
        raise DegenerateTriangle("a squared distance between the points exceeds the float range")
    if closest <= EPS_DISTINCT * _to_float(sides.r_sq, "R^2"):
        raise DegenerateVertexAngle("two of the three points coincide")
    if product < _FLOAT_MIN:  # only exact legs, past the test above, get here
        raise DegenerateTriangle("the product of two squared distances underflows the float range")
    return numerator / (2.0 * math.sqrt(product))


def triple_cevian_cos_variant(
    p1: BaryPoint, p2: BaryPoint, p3: BaryPoint, sides: TriangleSides
) -> float:
    """Diagnostic variant of triple_cevian_cos with the widely printed
    expansion of the numerator, whose c^2 group carries a flipped sign;
    it disagrees with the Law of Cosines composition whenever that group
    is nonzero.  Kept only for verification reports."""
    p1, p2, p3, sides = kernel.one_mode(p1, p2, p3, sides=sides)
    # Re-derives the quadratic form on purpose: an independent cross-check.
    n1 = p1.normalized()
    n2 = p2.normalized()
    n3 = p3.normalized()
    al12, be12, ga12 = (n2[i] - n1[i] for i in range(3))
    al23, be23, ga23 = (n3[i] - n2[i] for i in range(3))
    al31, be31, ga31 = (n1[i] - n3[i] for i in range(3))
    a_sq, b_sq, c_sq = kernel.side_squares(sides)
    d12 = -(be12 * ga12 * a_sq + ga12 * al12 * b_sq + al12 * be12 * c_sq)
    d23 = -(be23 * ga23 * a_sq + ga23 * al23 * b_sq + al23 * be23 * c_sq)
    numerator = (
        -a_sq * (be12 * ga12 + be23 * ga23 - be31 * ga31)
        - b_sq * (ga12 * al12 + ga23 * al23 - ga31 * al31)
        + c_sq * (al12 * be12 + al23 * be23 - al31 * be31)
    )
    return _vertex_cos(numerator, d12, d23, min(d12, d23), sides)
