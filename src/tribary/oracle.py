"""Independent Cartesian reference implementation.

Everything in this module works on explicit planar coordinates and never calls
into the barycentric code, so it can serve as an oracle for it.  A triangle is
placed concretely in the plane, points are converted by weighted vertex
averaging, and distances and angles come from plain vector arithmetic.

Only :mod:`tribary.errors` is imported; the math here shares nothing with the
modules under test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateTriangle, PointAtInfinity, UndefinedAngle

# Relative slack below which the strict triangle inequality counts as violated.
EPS_SIDELINE = 1e-12

XY = tuple[float, float]


class Placement(NamedTuple):
    """Concrete Cartesian coordinates for the three triangle vertices."""

    a_xy: XY
    b_xy: XY
    c_xy: XY


def place_triangle(a: float, b: float, c: float) -> Placement:
    """Embed a triangle with side lengths a = BC, b = CA, c = AB in the plane.

    B goes to the origin and C to (a, 0); A lands in the upper half plane.
    """
    perimeter = a + b + c
    if min(a, b, c) <= 0.0:
        raise DegenerateTriangle(f"non-positive side in ({a}, {b}, {c})")
    gap = min(a + b - c, b + c - a, c + a - b)
    if gap <= EPS_SIDELINE * perimeter:
        raise DegenerateTriangle(f"triangle inequality fails for ({a}, {b}, {c})")
    x = (a * a + c * c - b * b) / (2.0 * a)
    y_sq = c * c - x * x
    if y_sq <= 0.0:
        raise DegenerateTriangle(f"flat placement for ({a}, {b}, {c})")
    return Placement(a_xy=(x, math.sqrt(y_sq)), b_xy=(0.0, 0.0), c_xy=(a, 0.0))


def dist_sq(p: XY, q: XY) -> float:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def barycentric_to_cartesian(weights, placement: Placement) -> XY:
    """Weighted average of the vertices; the weights need not be normalized."""
    t1, t2, t3 = weights
    total = t1 + t2 + t3
    if total == 0.0:
        raise PointAtInfinity(f"weights {weights!r} sum to zero")
    ax, ay = placement.a_xy
    bx, by = placement.b_xy
    cx, cy = placement.c_xy
    return (
        (t1 * ax + t2 * bx + t3 * cx) / total,
        (t1 * ay + t2 * by + t3 * cy) / total,
    )


def cartesian_to_barycentric(point: XY, placement: Placement):
    """Signed-area weights of the point with respect to the three vertices."""

    def twice_signed_area(p: XY, q: XY, r: XY) -> float:
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])

    a_xy, b_xy, c_xy = placement.a_xy, placement.b_xy, placement.c_xy
    return (
        twice_signed_area(point, b_xy, c_xy),
        twice_signed_area(a_xy, point, c_xy),
        twice_signed_area(a_xy, b_xy, point),
    )


def circumcenter_xy(placement: Placement) -> XY:
    """Circumcenter from the perpendicular-bisector determinant formula."""
    ax, ay = placement.a_xy
    bx, by = placement.b_xy
    cx, cy = placement.c_xy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise DegenerateTriangle("collinear vertices have no circumcenter")
    sa = ax * ax + ay * ay
    sb = bx * bx + by * by
    sc = cx * cx + cy * cy
    ux = (sa * (by - cy) + sb * (cy - ay) + sc * (ay - by)) / d
    uy = (sa * (cx - bx) + sb * (ax - cx) + sc * (bx - ax)) / d
    return (ux, uy)


def circumradius_sq(placement: Placement) -> float:
    return dist_sq(circumcenter_xy(placement), placement.a_xy)


def angle_cos(apex: XY, p: XY, q: XY, *, min_leg_sq: float = 0.0) -> float:
    """Cosine of the angle P-apex-Q from the normalized dot product.

    Raises UndefinedAngle when either leg is too short to carry a direction;
    ``min_leg_sq`` is an absolute squared-length threshold for that test.
    """
    vx, vy = p[0] - apex[0], p[1] - apex[1]
    wx, wy = q[0] - apex[0], q[1] - apex[1]
    leg_p = vx * vx + vy * vy
    leg_q = wx * wx + wy * wy
    if leg_p <= min_leg_sq or leg_q <= min_leg_sq:
        raise UndefinedAngle("a leg of the angle has (near-)zero length")
    value = (vx * wx + vy * wy) / math.sqrt(leg_p * leg_q)
    return max(-1.0, min(1.0, value))


def reflect_through(point: XY, center: XY) -> XY:
    """Point reflection; the image, center, and original are collinear."""
    return (2.0 * center[0] - point[0], 2.0 * center[1] - point[1])
