"""Catalog of triangle centers and related point generators.

Every generator returns homogeneous :class:`~tribary.kernel.BaryPoint`
weights in the number mode of its sides, except that a non-integral rank on
exact sides computes on their float image (:func:`~tribary.kernel.rank_mode`).
For exact sides each generator builds the point's integer weights
straight from the triangle's integer context (A, B, C), its gaps 2 lam (s - a)
and its perimeter, and its Fraction weights from those the triangle holds or
from their integers over a known denominator, so no point clears its own.
:func:`parse_center_spec` turns the CLI's textual descriptors into
:class:`CenterSpec` records, and :func:`resolve` evaluates those records.

This module is also the one reader of user text: :func:`parse_number` turns
every number (a side, a spec parameter, a corpus cell) into a float or a
Fraction, and :func:`parse_sides` turns three such cells into TriangleSides.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import CenterSpecError, GeometryError, InputError
from .kernel import (BaryPoint, TriangleSides, float_sides, past_digit_limit, pow_keep_exact,
                     rank_mode, refuse_huge_power)

VERTICES = ("A", "B", "C")


def vertex_index(vertex) -> int:
    """0, 1, 2 for the vertex A, B, C; CenterSpecError for anything else."""
    if vertex not in VERTICES:
        raise CenterSpecError(f"vertex must be A, B, or C, got {vertex!r}")
    return VERTICES.index(vertex)


_ONE = Fraction(1)
_FLOAT_MIN = sys.float_info.min  # the smallest normal float


@dataclass(frozen=True)
class CenterSpec:
    """Tagged descriptor of a point: a named center, a rank triple, or raw weights."""

    kind: str
    vertex: Optional[str] = None
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CenterSpecError(f"unknown point kind {self.kind!r}")
        _, takes_vertex, n_params = _KINDS[self.kind]
        if takes_vertex:
            vertex_index(self.vertex)
        elif self.vertex is not None:
            raise CenterSpecError(f"{self.kind} does not take a vertex")
        if len(self.params) != n_params:
            raise CenterSpecError(f"{self.kind} takes {n_params} numbers, got {len(self.params)}")


def incenter(sides: TriangleSides) -> BaryPoint:
    if sides.ints is not None:
        return BaryPoint.from_ints(sides.a, sides.b, sides.c, sides.ints)
    return BaryPoint(sides.a, sides.b, sides.c)


def centroid(sides: TriangleSides) -> BaryPoint:
    if sides.ints is not None:
        return BaryPoint.from_ints(_ONE, _ONE, _ONE, (1, 1, 1))
    return BaryPoint(1.0, 1.0, 1.0)


def nagel_point(sides: TriangleSides) -> BaryPoint:
    if sides.ints is not None:
        return BaryPoint.from_ints(*sides.gaps, sides.twice)
    return BaryPoint(*sides.gaps)  # s - a : s - b : s - c


def lemoine_point(sides: TriangleSides) -> BaryPoint:
    if sides.ints is not None:  # a^2 = A^2 / lam^2
        (x, y, z), lam_sq = sides.ints, sides.lam * sides.lam
        x, y, z = x * x, y * y, z * z
        return BaryPoint.from_ints(Fraction(x, lam_sq), Fraction(y, lam_sq), Fraction(z, lam_sq),
                                   (x, y, z))
    a, b, c = sides.as_tuple()
    return BaryPoint(a * a, b * b, c * c)


def circumcenter_point(sides: TriangleSides) -> BaryPoint:
    """Circumcenter weights a^2 (b^2 + c^2 - a^2) : ... (not a CLI kind)."""
    a_sq, b_sq, c_sq = sides.a * sides.a, sides.b * sides.b, sides.c * sides.c
    return BaryPoint(
        a_sq * (b_sq + c_sq - a_sq),
        b_sq * (c_sq + a_sq - b_sq),
        c_sq * (a_sq + b_sq - c_sq),
    )


def excenter(vertex: str, sides: TriangleSides) -> BaryPoint:
    a, b, c = sides.as_tuple()
    if sides.ints is not None:  # the negated weight straight from its integer
        (x, y, z), lam = sides.ints, sides.lam
        if vertex == "A":
            return BaryPoint.from_ints(Fraction(-x, lam), b, c, (-x, y, z))
        if vertex == "B":
            return BaryPoint.from_ints(a, Fraction(-y, lam), c, (x, -y, z))
        if vertex == "C":
            return BaryPoint.from_ints(a, b, Fraction(-z, lam), (x, y, -z))
    elif vertex == "A":
        return BaryPoint(-a, b, c)
    elif vertex == "B":
        return BaryPoint(a, -b, c)
    elif vertex == "C":
        return BaryPoint(a, b, -c)
    vertex_index(vertex)  # raises: A, B and C returned above


def adjoint_nagel(vertex: str, sides: TriangleSides) -> BaryPoint:
    """Reflection-style companions of the Nagel point, one per vertex.

    The A-point has weights (s, c - s, b - s); B and C are the cyclic
    relabelings.  Each weight sum collapses to s minus the named side.
    """
    s, (gap_a, gap_b, gap_c) = sides.s, sides.gaps
    if sides.ints is not None:  # 2 lam s and the negated gaps from 2 lam (s - a, ...)
        p, (g_a, g_b, g_c), half = sum(sides.ints), sides.twice, 2 * sides.lam
        if vertex == "A":
            return BaryPoint.from_ints(s, Fraction(-g_c, half), Fraction(-g_b, half),
                                       (p, -g_c, -g_b))
        if vertex == "B":
            return BaryPoint.from_ints(Fraction(-g_c, half), s, Fraction(-g_a, half),
                                       (-g_c, p, -g_a))
        if vertex == "C":
            return BaryPoint.from_ints(Fraction(-g_b, half), Fraction(-g_a, half), s,
                                       (-g_b, -g_a, p))
    elif vertex == "A":
        return BaryPoint(s, -gap_c, -gap_b)
    elif vertex == "B":
        return BaryPoint(-gap_c, s, -gap_a)
    elif vertex == "C":
        return BaryPoint(-gap_b, -gap_a, s)
    vertex_index(vertex)  # raises: A, B and C returned above


def cevian_rank(k, l, m, sides: TriangleSides) -> BaryPoint:
    """Weights a^k (s-a)^l (b+c)^m : b^k (s-b)^l (a+c)^m : c^k (s-c)^l (a+b)^m.

    Rank (0,0,0) is the centroid, (1,0,0) the incenter, (2,0,0) the Lemoine
    point, and (0,1,0) the Nagel point.  In kernel.rank_mode's number mode, exact
    sides of a scalene or isosceles triangle take :func:`_integer_cevian_rank`.
    """
    sides = rank_mode(sides, k, l, m)
    ints = sides.ints
    if ints is not None and not ints[0] == ints[1] == ints[2]:
        return _integer_cevian_rank(int(k), int(l), int(m), sides)
    a, b, c = sides.as_tuple()
    gap_a, gap_b, gap_c = sides.gaps
    if ints is not None:  # an equilateral triangle: equal weights of one set of Fraction powers
        p_k, p_l, p_m = pow_keep_exact(a, k), pow_keep_exact(gap_a, l), pow_keep_exact(b + c, m)
        # Three products, not one weight thrice: a shared object would change the pickle.
        return BaryPoint(p_k * p_l * p_m, p_k * p_l * p_m, p_k * p_l * p_m)
    try:
        w_a = a ** k * gap_a ** l * (b + c) ** m
        w_b = b ** k * gap_b ** l * (a + c) ** m
        w_c = c ** k * gap_c ** l * (a + b) ** m
    except OverflowError as exc:
        raise GeometryError("cevian weights leave the float range") from exc
    # Positive bases: float weights can only underflow, and subnormal ones lose digits.
    if w_a < _FLOAT_MIN and w_b < _FLOAT_MIN and w_c < _FLOAT_MIN:
        raise GeometryError("cevian weights leave the float range")
    return BaryPoint(w_a, w_b, w_c)


def _integer_cevian_rank(k: int, l: int, m: int, sides: TriangleSides) -> BaryPoint:
    """cevian_rank's point from the integer context, with the same fields.

    With A_i = lam a_i, G_i = 2 lam (s - a_i) and S_i = lam (a_j + a_k), weight i is
    N_i top / den with N_i = A_i^k G_i^l S_i^m, where a negative exponent moves
    to the other two vertices' bases, (A_j A_k)^|k|, and the common factor
    top / den = 1 / (lam^(k+l+m) 2^l) divided by (A_1 A_2 A_3)^|k| when k < 0,
    and likewise for l and m.  The triangle is not equilateral: there all three
    Fraction bases of an exponent can be 1, which the digit limit lets through
    at any exponent, while their integer base is 2.
    """
    x, y, z = sides.ints
    # Each Fraction base is an integer below the perimeter over a divisor of
    # 2 lam, so pow_keep_exact's digit-limit test refuses none below this bound.
    bound = max(x + y + z, 2 * sides.lam).bit_length() - 1
    if past_digit_limit(bound, max(abs(k), abs(l), abs(m))):
        for a, gap in zip(sides.as_tuple(), sides.gaps):  # its refusals, in its order
            refuse_huge_power(a, k)
            refuse_huge_power(gap, l)
            refuse_huge_power(2 * sides.s - a, m)  # b + c for a, and so on
    n_a = n_b = n_c = top = den = 1
    g_a, g_b, g_c = sides.twice
    for b_a, b_b, b_c, e in ((x, y, z, k), (g_a, g_b, g_c, l), (y + z, x + z, x + y, m)):
        if e > 0:
            n_a, n_b, n_c = n_a * b_a ** e, n_b * b_b ** e, n_c * b_c ** e
        elif e < 0:
            e = -e
            n_a, n_b, n_c = n_a * (b_b * b_c) ** e, n_b * (b_a * b_c) ** e, n_c * (b_a * b_b) ** e
            den *= (b_a * b_b * b_c) ** e
    lam, total = sides.lam, k + l + m
    if total > 0:
        den *= lam ** total
    else:
        top *= lam ** -total
    if l > 0:
        den <<= l
    else:
        top <<= -l
    return BaryPoint.from_ints(Fraction(n_a * top, den), Fraction(n_b * top, den),
                               Fraction(n_c * top, den), (n_a, n_b, n_c))


def _raw_point(t1, t2, t3, sides: TriangleSides) -> BaryPoint:
    return BaryPoint(t1, t2, t3)


# kind -> (generator, takes a vertex, number of numeric parameters)
_KINDS = {
    "incenter": (incenter, False, 0),
    "centroid": (centroid, False, 0),
    "nagel": (nagel_point, False, 0),
    "lemoine": (lemoine_point, False, 0),
    "excenter": (excenter, True, 0),
    "adjnagel": (adjoint_nagel, True, 0),
    "cevian": (cevian_rank, False, 3),
    "raw": (_raw_point, False, 3),
}


def cevian_triangle(p: BaryPoint) -> tuple[BaryPoint, BaryPoint, BaryPoint]:
    """Feet of the three cevians through p, on sides BC, CA, AB in that order.

    Raises PointAtInfinity when a foot's weights sum to zero (the cevian is
    parallel to that side).
    """
    t1, t2, t3 = p.as_tuple()
    zero = t1 - t1  # zero in the arithmetic of the weights
    return (
        BaryPoint(zero, t2, t3),
        BaryPoint(t1, zero, t3),
        BaryPoint(t1, t2, zero),
    )


def parse_center_spec(text: str, exact: bool = False) -> CenterSpec:
    """Parse descriptors like ``incenter``, ``excenter:B``, ``cevian:1,0,2``,
    or ``raw:0.3,-1,2``.  Case-insensitive; numbers are read by
    :func:`parse_number`.  Only the syntax is checked here; CenterSpec checks
    the kind's shape.
    """
    head, _, tail = text.strip().partition(":")
    kind = head.strip().lower()
    if kind not in _KINDS:
        raise CenterSpecError(f"unknown point kind {head.strip()!r}")
    tail = tail.strip()
    if _KINDS[kind][1]:
        return CenterSpec(kind, vertex=tail.upper())
    try:
        params = tuple(parse_number(piece, exact) for piece in tail.split(",")) if tail else ()
    except InputError as exc:
        raise CenterSpecError(str(exc)) from exc
    return CenterSpec(kind, params=params)


def parse_number(text: str, exact: bool = False):
    """The one reader of a number the user typed: a finite float, or in
    exact mode a Fraction (``1.5``, ``3/2`` and ``15e-1`` all work).

    Malformed or non-finite text raises InputError, and so does float text whose
    value is a nonzero subnormal, which has lost digits.  Exact text whose decimal
    exponent passes the interpreter's int-string digit limit raises
    GeometryError before ``Fraction`` expands ``10 ** exponent``, the digit
    rule :func:`~tribary.kernel.pow_keep_exact` applies to powers.
    """
    text = text.strip()
    if exact:
        _refuse_huge_exponent(text)
    try:
        value = Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad number {text!r}") from exc
    if not exact and not math.isfinite(value):
        raise InputError(f"non-finite number {text!r}")
    if not exact and 0 < abs(value) < _FLOAT_MIN:
        raise InputError(f"subnormal number {text!r}")
    return value


def _refuse_huge_exponent(text: str) -> None:
    """GeometryError for exact decimal text whose exponent passes the digit limit."""
    head, marker, tail = text.lower().rpartition("e")
    limit = sys.get_int_max_str_digits()
    if not (marker and limit):
        return
    try:
        if abs(int(tail)) <= limit:
            return
        Fraction(head + "e0")  # malformed text is left for Fraction(text) to report
    except ValueError:
        return
    raise GeometryError(f"exact number {text!r} has an exponent past the {limit}-digit limit")


def parse_sides(cells, exact: bool = False) -> TriangleSides:
    """TriangleSides from three number texts.  Exact sides must also make a
    valid float triangle, since every exact command still reports floats."""
    values = [parse_number(cell, exact) for cell in cells]
    if len(values) != 3:
        raise InputError(f"expected three side lengths, got {len(values)}")
    if exact:
        float_sides(values)
    return TriangleSides(*values)


def resolve(spec: CenterSpec, sides: TriangleSides) -> BaryPoint:
    """Evaluate a CenterSpec against concrete side lengths."""
    generator, takes_vertex, n_params = _KINDS[spec.kind]
    if takes_vertex:
        return generator(spec.vertex, sides)
    if n_params:
        return generator(*spec.params, sides)
    return generator(sides)
