"""Independent reference for squared distances and angles at the circumcenter.

Shares no code with tribary and imports nothing from it, so the benchmark can
check the library's outputs against it.  Works unchanged on floats and on
``fractions.Fraction``; with rational input every squared quantity is exact.

Method: a displacement with normalized barycentric components (x, y, z),
x + y + z = 0, is the vector y AB + z AC measured from vertex A, so its
squared length is the Gram form

    |v|^2 = y^2 c^2 + z^2 b^2 + y z (b^2 + c^2 - a^2).

The circumcenter is built from its own weights a^2 (b^2 + c^2 - a^2) : ...,
and a leg OP^2 is the Gram form of P - O.  The library instead goes through
R^2 minus the circumcircle power, so agreement is a real cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction


def side_squares(sides):
    a, b, c = sides
    return a * a, b * b, c * c


def normalize(weights):
    total = weights[0] + weights[1] + weights[2]
    return (weights[0] / total, weights[1] / total, weights[2] / total)


def circumcenter(sides):
    """Normalized circumcenter coordinates."""
    a2, b2, c2 = side_squares(sides)
    return normalize((a2 * (b2 + c2 - a2), b2 * (c2 + a2 - b2), c2 * (a2 + b2 - c2)))


def gram_sq(u, v, sides):
    """Squared distance between two normalized points u and v."""
    a2, b2, c2 = side_squares(sides)
    y, z = u[1] - v[1], u[2] - v[2]
    return y * y * c2 + z * z * b2 + y * z * (b2 + c2 - a2)


def circumradius_sq(sides):
    a, b, c = sides
    abc = a * b * c
    return abc * abc / ((a + b + c) * (b + c - a) * (c + a - b) * (a + b - c))


def conditioning(sides) -> float:
    """max(1, R/r) in floats; R/r = abc s / (4 area^2)."""
    a, b, c = (float(v) for v in sides)
    s = (a + b + c) / 2.0
    area_sq = s * (s - a) * (s - b) * (s - c)
    return max(1.0, a * b * c * s / (4.0 * area_sq))


def point_weights(kind, sides, vertex=None, params=()):
    """Homogeneous weights of a point named as in tribary's center grammar.

    The A-adjoint Nagel point is written here as -s : s - c : s - b, the
    negative of the library's representation, so the comparison also
    exercises invariance under rescaling the weights.
    """
    a, b, c = sides
    s = (a + b + c) / 2
    if kind == "incenter":
        return (a, b, c)
    if kind == "centroid":
        return (a / a, a / a, a / a)
    if kind == "nagel":
        return (s - a, s - b, s - c)
    if kind == "lemoine":
        return (a * a, b * b, c * c)
    if kind == "excenter":
        return {"A": (-a, b, c), "B": (a, -b, c), "C": (a, b, -c)}[vertex]
    if kind == "adjnagel":
        return {"A": (-s, s - c, s - b), "B": (s - c, -s, s - a),
                "C": (s - b, s - a, -s)}[vertex]
    if kind == "cevian":
        k, l, m = params
        return (a ** k * (s - a) ** l * (b + c) ** m,
                b ** k * (s - b) ** l * (c + a) ** m,
                c ** k * (s - c) ** l * (a + b) ** m)
    if kind == "raw":
        return tuple(params)
    raise ValueError(f"unknown point kind {kind!r}")


def angle(p_weights, q_weights, sides):
    """(op_sq, oq_sq, pq_sq, middle, cos) for the angle POQ at the circumcenter.

    cos is a float, or None when a leg is exactly zero.
    """
    o = circumcenter(sides)
    p, q = normalize(p_weights), normalize(q_weights)
    op_sq, oq_sq, pq_sq = gram_sq(p, o, sides), gram_sq(q, o, sides), gram_sq(p, q, sides)
    middle = op_sq + oq_sq - pq_sq
    product = op_sq * oq_sq
    cos = None if product <= 0 else float(middle) / (2.0 * math.sqrt(float(product)))
    return op_sq, oq_sq, pq_sq, middle, cos


def vertex_angle(w1, w2, w3, sides):
    """(d12, d23, d31, cos) for the angle at point 2 of the triangle 1 2 3.

    cos is None when point 2 coincides with point 1 or 3.
    """
    p1, p2, p3 = normalize(w1), normalize(w2), normalize(w3)
    d12, d23, d31 = gram_sq(p1, p2, sides), gram_sq(p2, p3, sides), gram_sq(p3, p1, sides)
    product = d12 * d23
    cos = None if product <= 0 else float(d12 + d23 - d31) / (2.0 * math.sqrt(float(product)))
    return d12, d23, d31, cos


def self_test() -> list:
    """Known (3, 4, 5) values; returns the list of mismatches (empty on success)."""
    problems = []
    for sides in ((Fraction(3), Fraction(4), Fraction(5)), (3.0, 4.0, 5.0)):
        exact = isinstance(sides[0], Fraction)
        inc = point_weights("incenter", sides)
        nag = point_weights("nagel", sides)
        oi_sq, on_sq, in_sq, _, cos = angle(inc, nag, sides)
        expected = ((oi_sq, Fraction(5, 4)), (on_sq, Fraction(1, 4)), (in_sq, Fraction(1)),
                    (circumradius_sq(sides), Fraction(25, 4)))
        for got, want in expected:
            if (got != want) if exact else abs(got - float(want)) > 1e-14:
                problems.append(f"{'exact' if exact else 'float'}: {got!r} != {want}")
        if abs(cos - 1.0 / math.sqrt(5.0)) > 1e-15:
            problems.append(f"cos ION {cos!r} != 1/sqrt(5)")
    return problems


if __name__ == "__main__":
    failures = self_test()
    print("\n".join(failures) if failures else "reference self-test passed")
    raise SystemExit(1 if failures else 0)
