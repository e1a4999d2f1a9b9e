"""Side-length validation, derived triangle scalars, and barycentric metrics.

The squared-level quantities here (area squared, squared circumradius, squared
distances, the circumcircle power) are rational functions of the side lengths,
so every function that stays at the squared level is written once with plain
arithmetic and works unchanged for ``float`` and ``fractions.Fraction``
inputs.  Only :func:`derive_elements` takes square roots and therefore always
produces floats: it reads the float context, the triangle's own for float sides,
else that of :func:`float_sides`, the validated float image of any sides.

Triangles and points build a context at construction, outside ``==``, ``hash``
and ``repr``.  :class:`TriangleSides` caches ``s``, ``gaps`` (s - a, s - b, s - c),
``abc``, ``area2`` and ``r_sq`` (R^2).  Three ``Fraction`` sides are validated
in, and cached from, the exact route's integers: ``ints`` (A, B, C) = ``lam``
(a, b, c) with lam the lcm of the denominators, ``h`` = 16 area^2 of (A, B, C),
``abc_sq`` = (ABC)^2 and ``twice`` = 2 lam (s - a, s - b, s - c) = (B + C - A,
C + A - B, A + B - C).  A :class:`BaryPoint` of three ``Fraction`` weights keeps
coprime integer weights in ``ints`` (else None); :meth:`BaryPoint.from_ints`
builds one from integer weights the caller already has, which is how the exact
center generators skip clearing the Fractions.  :func:`one_mode` decides once
whether an angle call is exact or float, and converts its input to that mode.

Records: a frozen dataclass only where construction validates or builds a
context (TriangleSides, BaryPoint, CenterSpec, FuzzConfig), a mutable one for
CheckAccumulator, and a NamedTuple for every other record (BoundTriple,
AngleReport, _Cleared, TriangleElements, Placement, VerificationReport).
BaryPoint's ``__init__`` is written by hand (``init=False``): it validates
before it sets the fields, and sets them with ``object.__setattr__``, never
through ``__dict__``, in the order the generated one would.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import DegenerateTriangle, GeometryError, NonPositiveWeights, PointAtInfinity

Scalar = Union[float, Fraction]

# A triangle is rejected when its smallest sideline gap is below this fraction
# of the perimeter; circumradius and closed forms blow up past that point.
EPS_TRIANGLE = 1e-12

# Relative width of the R - 2r gap below which a triangle counts as
# equilateral for closed forms that divide by that gap.
EPS_EQUILATERAL = 1e-12

_BITS_PER_DIGIT = math.log2(10)


def _message(pattern: str, *values) -> str:
    """pattern.format(*values), for an error message.  An exact value past the
    interpreter's int-string digit limit cannot be printed and shows as '...'."""
    try:
        return pattern.format(*values)
    except ValueError:
        return pattern.replace("!r", "").format(*["..."] * len(values))


def _cleared(x: Fraction, y: Fraction, z: Fraction):
    """((X, Y, Z), lcm): three Fractions scaled by the lcm of their denominators."""
    dx, dy, dz = x.denominator, y.denominator, z.denominator
    lcm = math.lcm(dx, dy, dz)
    return (x.numerator * (lcm // dx), y.numerator * (lcm // dy), z.numerator * (lcm // dz)), lcm


@dataclass(frozen=True)
class TriangleSides:
    """Side lengths a = BC, b = CA, c = AB of a strict triangle, and their context."""

    a: Scalar
    b: Scalar
    c: Scalar

    ints = lam = h = abc_sq = twice = None  # not fields: no integer context

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        exact = Fraction is type(a) is type(b) is type(c)
        (x, y, z), lam = _cleared(a, b, c) if exact else ((a, b, c), 1)
        if min(x, y, z) <= 0:
            raise DegenerateTriangle(_message("non-positive side in ({}, {}, {})", a, b, c))
        perimeter = x + y + z
        twice = (y + z - x, z + x - y, x + y - z)  # 2 lam (s - a, s - b, s - c)
        try:  # an int / int perimeter rounds as float(Fraction) does
            bound = EPS_TRIANGLE * (perimeter / lam)
        except OverflowError as exc:  # an exact perimeter past the float range
            raise DegenerateTriangle("sides exceed the float range") from exc
        if exact:  # min(twice) / lam <= bound, decided in integers
            num, den = bound.as_integer_ratio()
            thin = min(twice) * den <= num * lam
        else:
            thin = min(twice) <= bound
        if thin:
            raise DegenerateTriangle(
                _message("triangle inequality fails for ({}, {}, {})", a, b, c))
        if exact:
            h = perimeter * twice[0] * twice[1] * twice[2]  # Heron
            xyz, lam_sq, half = x * y * z, lam * lam, 2 * lam
            s, gaps = Fraction(perimeter, half), tuple(Fraction(g, half) for g in twice)
            abc, area2 = Fraction(xyz, lam_sq * lam), Fraction(h, 16 * lam_sq * lam_sq)
            r_sq = Fraction(xyz ** 2, h * lam_sq)
        else:
            s = perimeter / 2
            gaps = (s - a, s - b, s - c)
            try:  # int sides, or Fraction sides that meet a float one, past the float range
                abc = a * b * c
                area2 = s * gaps[0] * gaps[1] * gaps[2]
                if isinstance(perimeter, float):
                    if not (0 < abc * abc < math.inf and 0 < 16 * area2 < math.inf):
                        raise DegenerateTriangle(f"sides ({a}, {b}, {c}) leave abc^2 or "
                                                 "16 area^2 outside the float range")
                r_sq = abc * abc / (16 * area2)
            except OverflowError as exc:
                raise DegenerateTriangle("sides exceed the float range") from exc
        setattr_ = object.__setattr__  # a loop costs more; vars(self) slows every read
        setattr_(self, "s", s)
        setattr_(self, "gaps", gaps)
        setattr_(self, "abc", abc)
        setattr_(self, "area2", area2)
        setattr_(self, "r_sq", r_sq)
        if exact:  # after the shared names, in their order, so instances share keys
            for item in zip(("ints", "lam", "h", "abc_sq", "twice"),
                            ((x, y, z), lam, h, xyz ** 2, twice)):
                setattr_(self, *item)

    def as_tuple(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True, init=False)
class BaryPoint:
    """Homogeneous weights t1 : t2 : t3 with nonzero sum, and their context."""

    t1: Scalar
    t2: Scalar
    t3: Scalar

    ints = None  # not a field: no integer context

    def __init__(self, t1: Scalar, t2: Scalar, t3: Scalar):
        exact = Fraction is type(t1) is type(t2) is type(t3)
        if exact:
            (x, y, z), _ = _cleared(t1, t2, t3)
            total = x + y + z
        else:
            try:
                total = t1 + t2 + t3
            except OverflowError:  # a Fraction past the float range met a float
                total = math.inf
        if total == 0:
            raise PointAtInfinity(_message("weights ({!r}, {!r}, {!r}) sum to zero", t1, t2, t3))
        if not abs(total) < math.inf:
            raise GeometryError(_message(
                "weights ({!r}, {!r}, {!r}) overflow: their sum is not finite", t1, t2, t3))
        # The fields, then ints, each through object.__setattr__: writing
        # self.__dict__ would materialise it, and 3.11 then stops specialising
        # the attribute reads of every later use of the point.
        setattr_ = object.__setattr__
        setattr_(self, "t1", t1)
        setattr_(self, "t2", t2)
        setattr_(self, "t3", t3)
        if exact:
            g = math.gcd(x, y, z)
            setattr_(self, "ints", (x // g, y // g, z // g))

    @classmethod
    def from_ints(cls, t1: Fraction, t2: Fraction, t3: Fraction, ints) -> "BaryPoint":
        """BaryPoint(t1, t2, t3) for Fraction weights that are a positive multiple of
        the integers ``ints``, which spares clearing their denominators."""
        x, y, z = ints
        if x + y + z == 0:
            raise PointAtInfinity(_message("weights ({!r}, {!r}, {!r}) sum to zero", t1, t2, t3))
        g = math.gcd(x, y, z)
        point, setattr_ = object.__new__(cls), object.__setattr__
        setattr_(point, "t1", t1)  # the constructor's way and key order
        setattr_(point, "t2", t2)
        setattr_(point, "t3", t3)
        setattr_(point, "ints", (x // g, y // g, z // g))
        return point

    def as_tuple(self):
        return (self.t1, self.t2, self.t3)

    def normalized(self):
        """Coordinates divided by their sum; invariant under rescaling."""
        if self.ints is not None:
            total = sum(self.ints)
            return tuple(Fraction(t, total) for t in self.ints)
        total = self.t1 + self.t2 + self.t3
        try:  # an int or Fraction weight past the float range
            return (self.t1 / total, self.t2 / total, self.t3 / total)
        except OverflowError as exc:
            raise GeometryError("normalized weights leave the float range") from exc


class TriangleElements(NamedTuple):
    """Derived scalars of a triangle, in length units (always floats)."""

    sides: TriangleSides
    semiperimeter: float
    area: float
    circumradius: float
    inradius: float
    exradius_a: float
    exradius_b: float
    exradius_c: float

    @property
    def is_equilateral(self) -> bool:
        gap = self.circumradius - 2.0 * self.inradius
        return gap <= EPS_EQUILATERAL * self.circumradius


def side_squares(sides: TriangleSides):
    return (sides.a * sides.a, sides.b * sides.b, sides.c * sides.c)


def circumradius_sq(sides: TriangleSides):
    """R^2 = (abc)^2 / (16 area^2)."""
    return sides.r_sq


def euler_terms(sides: TriangleSides, side=0):
    """(s, R^2, R rho, rho^2), rational in the sides, with rho = area / (s - side):
    the inradius for side 0, else the exradius opposite that side."""
    gap = sides.s - side
    return sides.s, sides.r_sq, sides.abc / (4 * gap), sides.area2 / (gap * gap)


def pow_keep_exact(base, exponent):
    """base ** exponent, exact for integral exponents; GeometryError on float overflow.

    An exact (non-float) power that would have more digits than the
    interpreter's int-string limit is refused with GeometryError before it is
    computed, which bounds the time and memory an integral rank can cost.  The
    test uses a lower bound on the power's size, (bit_length - 1) * |n| bits,
    so a power it lets through is under about twice the limit.
    """
    try:
        if isinstance(base, float):  # int and Fraction exponents end in the same float power
            return base ** exponent
        if exponent % 1 == 0:
            n = int(exponent)
            refuse_huge_power(base, n)
            return base ** n
        return float(base) ** float(exponent)
    except OverflowError as exc:
        raise GeometryError(_message("{} ** {} leaves the float range", base, exponent)) from exc


def past_digit_limit(bits: int, n: int) -> bool:
    """Whether pow_keep_exact refuses an exact base with ``bits`` = max(bit length
    of its numerator and denominator) - 1 raised to the integer n."""
    digits = sys.get_int_max_str_digits()  # 0 and +-1 cannot grow the base
    return abs(n) > 1 and digits > 0 and bits * abs(n) > digits * _BITS_PER_DIGIT


def refuse_huge_power(base, n: int) -> None:
    """pow_keep_exact's digit-limit test of the exact power base ** n."""
    if past_digit_limit(max(base.numerator.bit_length(), base.denominator.bit_length()) - 1, n):
        raise GeometryError(_message(f"an exact power with exponent {{}} would pass the "
                                     f"{sys.get_int_max_str_digits()}-digit limit", n))


def power_sum(sides: TriangleSides, exponent):
    """Sum of the side lengths each raised to the given exponent."""
    return (
        pow_keep_exact(sides.a, exponent)
        + pow_keep_exact(sides.b, exponent)
        + pow_keep_exact(sides.c, exponent)
    )


def float_sides(values) -> TriangleSides:
    """Float image of side values, validated like float input."""
    try:
        return TriangleSides(*(float(v) for v in values))
    except OverflowError as exc:
        raise DegenerateTriangle("side values exceed the float range") from exc


def one_mode(*points: BaryPoint, sides: TriangleSides):
    """(*points, sides) in one number mode, decided before any arithmetic.  Exact
    when the three sides are Fractions and every weight is an int or a Fraction:
    int weights become Fractions.  Every other call is float_mode's."""
    if sides.ints is not None and all(type(t) is int or type(t) is Fraction
                                      for point in points for t in point.as_tuple()):
        return (*(BaryPoint(*map(Fraction, point.as_tuple())) for point in points), sides)
    return float_mode(*points, sides=sides)


def float_mode(*points: BaryPoint, sides: TriangleSides):
    """(*points, sides) as floats: the sides through float_sides, then each point's
    weights; GeometryError for a weight that has no float image."""
    floats = float_sides(sides.as_tuple())
    images = []
    for point in points:
        try:
            images.append(BaryPoint(*(float(t) for t in point.as_tuple())))
        except OverflowError as exc:
            raise GeometryError(_message(
                "weights ({!r}, {!r}, {!r}) have no float image", *point.as_tuple())) from exc
    return (*images, floats)


def derive_elements(sides: TriangleSides) -> TriangleElements:
    """Semiperimeter, area, circumradius, inradius and exradii: the square roots
    of the float context, the triangle's own for float sides, else its float
    image's (DegenerateTriangle when the sides have no valid float image)."""
    a, b, c = sides.as_tuple()
    context = sides if float is type(a) is type(b) is type(c) else float_sides((a, b, c))
    s, (gap_a, gap_b, gap_c) = context.s, context.gaps
    area = math.sqrt(context.area2)
    return TriangleElements(
        sides=sides,
        semiperimeter=s,
        area=area,
        circumradius=context.abc / (4.0 * area),
        inradius=area / s,
        exradius_a=area / gap_a,
        exradius_b=area / gap_b,
        exradius_c=area / gap_c,
    )


def _quadratic_form(n, a, b, c):
    """y z a^2 + z x b^2 + x y c^2 for n = (x, y, z): every squared distance."""
    x, y, z = n
    return y * z * (a * a) + z * x * (b * b) + x * y * (c * c)


def _in_float_range(value, name: str):
    """value; DegenerateTriangle when it is a float that is not finite."""
    if type(value) is float and not abs(value) < math.inf:
        raise DegenerateTriangle(f"{name} leaves the float range")
    return value


def circum_power(t: BaryPoint, sides: TriangleSides):
    """Power-like quantity R^2 - OP^2 for the point with weights t.

    Uses the cleared-denominator form, so zero weights (points on the
    sidelines) are fine.
    """
    return _in_float_range(_quadratic_form(t.normalized(), sides.a, sides.b, sides.c),
                           "R^2 - OP^2")


def dist_sq_between(p: BaryPoint, q: BaryPoint, sides: TriangleSides):
    """Squared distance between two finite barycentric points."""
    p1, p2, p3 = p.normalized()
    q1, q2, q3 = q.normalized()
    return _in_float_range(
        -_quadratic_form((p1 - q1, p2 - q2, p3 - q3), sides.a, sides.b, sides.c), "PQ^2")


def lagrange_point_dist_sq(t: BaryPoint, ma_sq, mb_sq, mc_sq, sides: TriangleSides):
    """Squared distance MP from a point M with known squared vertex distances.

    M is described only by its squared distances to the vertices A, B, C; P is
    the point weighted by t.  The combination below is the cleared-denominator
    form of the weighted-average identity, legal for zero weights.
    """
    n = t.normalized()
    return _in_float_range(
        n[0] * ma_sq + n[1] * mb_sq + n[2] * mc_sq - _quadratic_form(n, *sides.as_tuple()), "MP^2")


def bergstrom_bound(t: BaryPoint, sides: TriangleSides):
    """Lower bound 4 s^2 n1 n2 n3 for circum_power at an interior point.

    The normalized weights must all be positive; equality holds exactly when
    the weights are proportional to the side lengths.
    """
    n1, n2, n3 = t.normalized()
    if n1 <= 0 or n2 <= 0 or n3 <= 0:
        raise NonPositiveWeights(
            _message("weights ({!r}, {!r}, {!r}) are not all interior", *t.as_tuple()))
    s = sides.s
    return 4 * s * s * n1 * n2 * n3
