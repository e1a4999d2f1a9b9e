"""Side-length validation, derived triangle scalars, and barycentric metrics.

A triangle or point decides its number mode once, in its constructor: three
values that are each an ``int`` or a ``fractions.Fraction`` are stored as
Fractions (exact mode), any other three as floats (float mode), and a value
without a float image raises.  ``x.ints is None`` is the one mode test.  A call
stays exact when all its objects are (:func:`one_mode`, which the metrics here
inline) and its exponents are integral (:func:`rank_mode`), else it takes the
float images of :func:`float_mode` and :func:`float_sides`.

The squared-level quantities here (area squared, squared circumradius, squared
distances, the circumcircle power) are rational functions of the side lengths,
so each is written once with plain arithmetic.  Float mode evaluates it on the
float values.  Exact :func:`circum_power` and :func:`dist_sq_between` evaluate
the same quadratic form on the integer contexts below and divide once, as
``blundon._clear`` does; the other squared-level functions run unchanged on
the Fractions.  Only :func:`derive_elements` takes square roots and therefore
always produces floats: it reads the float context, the triangle's own in float
mode, else that of :func:`float_sides`, the validated float image of any sides.

Triangles and points build a context at construction, outside ``==``, ``hash``
and ``repr``.  :class:`TriangleSides` caches ``s``, ``gaps`` (s - a, s - b, s - c),
``abc``, ``area2`` and ``r_sq`` (R^2).  Exact sides are validated in, and cached
from, the exact route's integers: ``ints`` (A, B, C) = ``lam`` (a, b, c) with
lam the lcm of the denominators, ``h`` = 16 area^2 of (A, B, C), ``abc_sq`` =
(ABC)^2 and ``twice`` = 2 lam (s - a, s - b, s - c) = (B + C - A, C + A - B,
A + B - C).  An exact :class:`BaryPoint` keeps coprime integer weights in
``ints``; :meth:`BaryPoint.from_ints` builds one from integer weights the
caller already has, which is how the exact center generators skip clearing the
Fractions.

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

# An exact value with a numerator or denominator past this many bits (about 39
# digits) is named by its size in error messages, not printed.
_LONG_BITS = 128


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


def _floats(values, error, pattern: str):
    """The float images of values; error(pattern filled with them) when one has none."""
    try:
        return tuple(float(v) for v in values)
    except OverflowError as exc:
        raise error(_message(pattern, *values)) from exc


def _one_type(values, error, pattern: str):
    """(values, exact) for three values of mixed types: Fractions when each is an
    int or a Fraction, else their float images (see _floats)."""
    if all(type(v) is int or type(v) is Fraction for v in values):
        return tuple(map(Fraction, values)), True
    return _floats(values, error, pattern), False


_NO_FLOAT_SIDES = "side values exceed the float range"
_NO_FLOAT_WEIGHTS = "weights ({!r}, {!r}, {!r}) have no float image"


@dataclass(frozen=True)
class TriangleSides:
    """Side lengths a = BC, b = CA, c = AB of a strict triangle, and their context."""

    a: Scalar
    b: Scalar
    c: Scalar

    ints = lam = h = abc_sq = twice = None  # not fields: float mode

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        exact = not (float is type(a) is type(b) is type(c))
        if exact and not (Fraction is type(a) is type(b) is type(c)):  # mixed types
            (a, b, c), exact = _one_type((a, b, c), DegenerateTriangle, _NO_FLOAT_SIDES)
            for item in zip("abc", (a, b, c)):  # the stored values replace the given ones
                object.__setattr__(self, *item)
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
            xyz, lam_sq, half = x * y * z, lam * lam, 2 * lam
            h, abc_sq = perimeter * twice[0] * twice[1] * twice[2], xyz * xyz  # Heron, (ABC)^2
            s, gaps = Fraction(perimeter, half), tuple(Fraction(g, half) for g in twice)
            abc, area2 = Fraction(xyz, lam_sq * lam), Fraction(h, 16 * lam_sq * lam_sq)
            r_sq = Fraction(abc_sq, h * lam_sq)
        else:
            s = perimeter / 2
            gaps = (s - a, s - b, s - c)
            abc = a * b * c
            area2 = s * gaps[0] * gaps[1] * gaps[2]
            if not (0 < abc * abc < math.inf and 0 < 16 * area2 < math.inf):
                raise DegenerateTriangle(f"sides ({a}, {b}, {c}) leave abc^2 or "
                                         "16 area^2 outside the float range")
            r_sq = abc * abc / (16 * area2)
        setattr_ = object.__setattr__  # a loop costs more; vars(self) slows every read
        setattr_(self, "s", s)
        setattr_(self, "gaps", gaps)
        setattr_(self, "abc", abc)
        setattr_(self, "area2", area2)
        setattr_(self, "r_sq", r_sq)
        if exact:  # after the shared names, in their order, so instances share keys
            for item in zip(("ints", "lam", "h", "abc_sq", "twice"),
                            ((x, y, z), lam, h, abc_sq, twice)):
                setattr_(self, *item)

    def as_tuple(self):
        return (self.a, self.b, self.c)


@dataclass(frozen=True, init=False)
class BaryPoint:
    """Homogeneous weights t1 : t2 : t3 with nonzero sum, and their context."""

    t1: Scalar
    t2: Scalar
    t3: Scalar

    ints = None  # not a field: float mode

    def __init__(self, t1: Scalar, t2: Scalar, t3: Scalar):
        exact = not (float is type(t1) is type(t2) is type(t3))
        if exact and not (Fraction is type(t1) is type(t2) is type(t3)):  # mixed types
            (t1, t2, t3), exact = _one_type((t1, t2, t3), GeometryError, _NO_FLOAT_WEIGHTS)
        if exact:
            (x, y, z), _ = _cleared(t1, t2, t3)
            total = x + y + z
        else:
            total = t1 + t2 + t3
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
        return (self.t1 / total, self.t2 / total, self.t3 / total)


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
        # A float base or a non-integral exponent gives a float power; Fraction.__pow__
        # converts an exact base and the exponent to float itself.
        if isinstance(base, float) or exponent % 1:
            return base ** exponent
        n = int(exponent)
        refuse_huge_power(base, n)
        return base ** n
    except OverflowError as exc:
        raise GeometryError(f"{_sized(base, 'an exact base')} ** "
                            f"{_sized(exponent, 'an exact exponent')} leaves the float range") from exc


def _sized(value, name: str) -> str:
    """str(value), or name and size for an exact value past _LONG_BITS bits."""
    if isinstance(value, (int, Fraction)):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > _LONG_BITS:
            return f"{name} of {bits} bits"
    return str(value)


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
    return TriangleSides(*_floats(values, DegenerateTriangle, _NO_FLOAT_SIDES))


def one_mode(*points: BaryPoint, sides: TriangleSides):
    """(*points, sides) in one number mode: unchanged when all are exact or all
    are floats, else float_mode's."""
    exact = sides.ints is not None
    for point in points:
        if (point.ints is not None) != exact:
            return float_mode(*points, sides=sides)
    return (*points, sides)


def float_mode(*points: BaryPoint, sides: TriangleSides):
    """(*points, sides) as floats: each exact object replaced by its float image,
    the sides first; GeometryError for a weight that has no float image."""
    floats = sides if sides.ints is None else float_sides(sides.as_tuple())
    return (*(point if point.ints is None else
              BaryPoint(*_floats(point.as_tuple(), GeometryError, _NO_FLOAT_WEIGHTS))
              for point in points), floats)


def rank_mode(sides: TriangleSides, *ranks) -> TriangleSides:
    """sides, or their float image when they are exact and a rank is not integral."""
    if sides.ints is not None and any(rank % 1 for rank in ranks):
        return float_sides(sides.as_tuple())
    return sides


def derive_elements(sides: TriangleSides) -> TriangleElements:
    """Semiperimeter, area, circumradius, inradius and exradii: the square roots
    of the float context, the triangle's own in float mode, else its float
    image's (DegenerateTriangle when the sides have no valid float image)."""
    context = sides if sides.ints is None else float_sides(sides.as_tuple())
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


def _displacement_ints(p: BaryPoint, q: BaryPoint):
    """(sigma_Q P - sigma_P Q, sigma_P, sigma_Q) on the coprime weights of exact
    points: PQ^2 is -F of that vector over (A, B, C) / (sigma_P sigma_Q lam)^2."""
    (p1, p2, p3), (q1, q2, q3) = p.ints, q.ints
    sp, sq = p1 + p2 + p3, q1 + q2 + q3
    return (sq * p1 - sp * q1, sq * p2 - sp * q2, sq * p3 - sp * q3), sp, sq


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
    if (t.ints is None) != (sides.ints is None):  # one_mode's rule, inline on a hot path
        t, sides = float_mode(t, sides=sides)
    if sides.ints is not None:  # F(t) over (A, B, C), divided once by (sigma lam)^2
        den = sum(t.ints) * sides.lam
        return Fraction(_quadratic_form(t.ints, *sides.ints), den * den)
    return _in_float_range(_quadratic_form(t.normalized(), sides.a, sides.b, sides.c),
                           "R^2 - OP^2")


def dist_sq_between(p: BaryPoint, q: BaryPoint, sides: TriangleSides):
    """Squared distance between two finite barycentric points."""
    if not (p.ints is None) == (q.ints is None) == (sides.ints is None):  # as in circum_power
        p, q, sides = float_mode(p, q, sides=sides)
    if sides.ints is not None:  # -F(sigma_Q P - sigma_P Q) / (sigma_P sigma_Q lam)^2
        diff, sp, sq = _displacement_ints(p, q)
        den = sp * sq * sides.lam
        return Fraction(-_quadratic_form(diff, *sides.ints), den * den)
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
    t, sides = one_mode(t, sides=sides)
    n = t.normalized()
    return _in_float_range(
        n[0] * ma_sq + n[1] * mb_sq + n[2] * mc_sq - _quadratic_form(n, *sides.as_tuple()), "MP^2")


def bergstrom_bound(t: BaryPoint, sides: TriangleSides):
    """Lower bound 4 s^2 n1 n2 n3 for circum_power at an interior point.

    The normalized weights must all be positive; equality holds exactly when
    the weights are proportional to the side lengths.
    """
    t, sides = one_mode(t, sides=sides)
    n1, n2, n3 = t.normalized()
    if n1 <= 0 or n2 <= 0 or n3 <= 0:
        raise NonPositiveWeights(
            _message("weights ({!r}, {!r}, {!r}) are not all interior", *t.as_tuple()))
    s = sides.s
    return 4 * s * s * n1 * n2 * n3
