"""Side-length validation, derived triangle scalars, and barycentric metrics.

The squared-level quantities here (area squared, squared circumradius, squared
distances, the circumcircle power) are rational functions of the side lengths,
so every function that stays at the squared level is written once with plain
arithmetic and works unchanged for ``float`` and ``fractions.Fraction``
inputs.  Only :func:`derive_elements` takes square roots and therefore always
produces floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .errors import DegenerateTriangle, GeometryError, NonPositiveWeights, PointAtInfinity

Scalar = Union[float, "fractions.Fraction"]  # noqa: F821 - documentation alias

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


@dataclass(frozen=True)
class TriangleSides:
    """Side lengths a = BC, b = CA, c = AB of a strict triangle."""

    a: Scalar
    b: Scalar
    c: Scalar

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) <= 0:
            raise DegenerateTriangle(_message("non-positive side in ({}, {}, {})", a, b, c))
        perimeter = a + b + c
        gap = min(a + b - c, b + c - a, c + a - b)
        try:
            thin = gap <= EPS_TRIANGLE * perimeter
        except OverflowError as exc:  # an exact perimeter past the float range
            raise DegenerateTriangle("sides exceed the float range") from exc
        if thin:
            raise DegenerateTriangle(
                _message("triangle inequality fails for ({}, {}, {})", a, b, c))
        if isinstance(perimeter, float):
            abc = a * b * c
            if not (0 < abc * abc < math.inf and 0 < 16 * area_sq(self) < math.inf):
                raise DegenerateTriangle(
                    f"sides ({a}, {b}, {c}) leave abc^2 or 16 area^2 outside the float range")

    def as_tuple(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class BaryPoint:
    """Homogeneous weights t1 : t2 : t3 with nonzero sum."""

    t1: Scalar
    t2: Scalar
    t3: Scalar

    def __post_init__(self):
        total = self.t1 + self.t2 + self.t3
        if total == 0:
            raise PointAtInfinity(
                _message("weights ({!r}, {!r}, {!r}) sum to zero", *self.as_tuple()))
        if not abs(total) < math.inf:
            raise GeometryError(_message(
                "weights ({!r}, {!r}, {!r}) overflow: their sum is not finite", *self.as_tuple()))

    def as_tuple(self):
        return (self.t1, self.t2, self.t3)

    def normalized(self):
        """Coordinates divided by their sum; invariant under rescaling."""
        total = self.t1 + self.t2 + self.t3
        return (self.t1 / total, self.t2 / total, self.t3 / total)


@dataclass(frozen=True)
class TriangleElements:
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


def semiperimeter(sides: TriangleSides):
    return (sides.a + sides.b + sides.c) / 2


def side_squares(sides: TriangleSides):
    return (sides.a * sides.a, sides.b * sides.b, sides.c * sides.c)


def area_sq(sides: TriangleSides, s=None):
    """Squared area by Heron's formula; rational in the sides.

    s, when given, is the semiperimeter, so a caller that has it pays once.
    """
    if s is None:
        s = semiperimeter(sides)
    return s * (s - sides.a) * (s - sides.b) * (s - sides.c)


def circumradius_sq(sides: TriangleSides, area2=None):
    """R^2 = (abc)^2 / (16 area^2); area2, when given, is area_sq(sides)."""
    abc = sides.a * sides.b * sides.c
    if area2 is None:
        area2 = area_sq(sides)
    return abc * abc / (16 * area2)


def euler_terms(sides: TriangleSides, side=0):
    """(s, R^2, R rho, rho^2), rational in the sides, with rho = area / (s - side):
    the inradius for side 0, else the exradius opposite that side."""
    s = semiperimeter(sides)
    area2 = area_sq(sides, s)
    gap = s - side
    abc = sides.a * sides.b * sides.c
    return s, circumradius_sq(sides, area2), abc / (4 * gap), area2 / (gap * gap)


def pow_keep_exact(base, exponent):
    """base ** exponent, exact for integral exponents; GeometryError on float overflow.

    An exact (non-float) power that would have more digits than the
    interpreter's int-string limit is refused with GeometryError before it is
    computed, which bounds the time and memory an integral rank can cost.  The
    test uses a lower bound on the power's size, (bit_length - 1) * |n| bits,
    so a power it lets through is under about twice the limit.
    """
    try:
        if exponent % 1 == 0:
            n = int(exponent)
            if not isinstance(base, float) and abs(n) > 1:  # 0 and +-1 cannot grow the base
                bits = max(base.numerator.bit_length(), base.denominator.bit_length()) - 1
                digits = sys.get_int_max_str_digits()
                if digits and bits * abs(n) > digits * _BITS_PER_DIGIT:
                    raise GeometryError(
                        _message(f"an exact power with exponent {{}} would pass the "
                                 f"{digits}-digit limit", n))
            return base ** n
        return float(base) ** float(exponent)
    except OverflowError as exc:
        raise GeometryError(_message("{} ** {} leaves the float range", base, exponent)) from exc


def power_sum(sides: TriangleSides, exponent):
    """Sum of the side lengths each raised to the given exponent."""
    return (
        pow_keep_exact(sides.a, exponent)
        + pow_keep_exact(sides.b, exponent)
        + pow_keep_exact(sides.c, exponent)
    )


def derive_elements(sides: TriangleSides) -> TriangleElements:
    """Evaluate semiperimeter, area, circumradius, inradius, and exradii."""
    a, b, c = float(sides.a), float(sides.b), float(sides.c)
    s = (a + b + c) / 2.0
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    return TriangleElements(
        sides=sides,
        semiperimeter=s,
        area=area,
        circumradius=a * b * c / (4.0 * area),
        inradius=area / s,
        exradius_a=area / (s - a),
        exradius_b=area / (s - b),
        exradius_c=area / (s - c),
    )


def _quadratic_form(n, sides: TriangleSides):
    """y z a^2 + z x b^2 + x y c^2 for n = (x, y, z): every squared distance."""
    x, y, z = n
    a, b, c = sides.a, sides.b, sides.c
    return y * z * (a * a) + z * x * (b * b) + x * y * (c * c)


def circum_power(t: BaryPoint, sides: TriangleSides):
    """Power-like quantity R^2 - OP^2 for the point with weights t.

    Uses the cleared-denominator form, so zero weights (points on the
    sidelines) are fine.
    """
    return _quadratic_form(t.normalized(), sides)


def dist_sq_between(p: BaryPoint, q: BaryPoint, sides: TriangleSides):
    """Squared distance between two finite barycentric points."""
    p1, p2, p3 = p.normalized()
    q1, q2, q3 = q.normalized()
    return -_quadratic_form((p1 - q1, p2 - q2, p3 - q3), sides)


def lagrange_point_dist_sq(t: BaryPoint, ma_sq, mb_sq, mc_sq, sides: TriangleSides):
    """Squared distance MP from a point M with known squared vertex distances.

    M is described only by its squared distances to the vertices A, B, C; P is
    the point weighted by t.  The combination below is the cleared-denominator
    form of the weighted-average identity, legal for zero weights.
    """
    n = t.normalized()
    return n[0] * ma_sq + n[1] * mb_sq + n[2] * mc_sq - _quadratic_form(n, sides)


def bergstrom_bound(t: BaryPoint, sides: TriangleSides):
    """Lower bound 4 s^2 n1 n2 n3 for circum_power at an interior point.

    The normalized weights must all be positive; equality holds exactly when
    the weights are proportional to the side lengths.
    """
    n1, n2, n3 = t.normalized()
    if n1 <= 0 or n2 <= 0 or n3 <= 0:
        raise NonPositiveWeights(
            _message("weights ({!r}, {!r}, {!r}) are not all interior", *t.as_tuple()))
    s = semiperimeter(sides)
    return 4 * s * s * n1 * n2 * n3
