"""Barycentric triangle geometry with an independent Cartesian oracle.

The package computes distances, circumcenter powers, and circumcenter
angles for points given in homogeneous barycentric coordinates, derives
the classical bound triples those angles satisfy, and verifies every
closed form against a Cartesian oracle through a seeded fuzz harness.

Typical use:

    >>> from tribary import TriangleSides, incenter, nagel_point
    >>> from tribary import cos_angle_at_circumcenter
    >>> sides = TriangleSides(3.0, 4.0, 5.0)
    >>> report = cos_angle_at_circumcenter(incenter(sides),
    ...                                    nagel_point(sides), sides)
    >>> round(report.cos_value, 10)
    0.4472135955

Exact mode works the same way with int or Fraction sides.  The command line
mirrors the library: `tribary cos --sides 3,4,5 --p incenter --q nagel`.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports; each module is imported on first access
_EXPORTS = {
    "blundon": (
        "AngleReport", "BoundTriple", "blundon_bounds", "classical_cos_ION",
        "cos_angle_at_circumcenter", "dual_bound_residual", "dual_slack_sq",
        "excenter_adjoint_cos", "exradii_identity_residual", "fundamental_residual",
        "fundamental_slack_sq", "rank_pair_cos", "triple_cevian_cos",
    ),
    "centers": (
        "CenterSpec", "adjoint_nagel", "centroid", "cevian_rank", "cevian_triangle",
        "circumcenter_point", "excenter", "incenter", "lemoine_point", "nagel_point",
        "parse_center_spec", "resolve",
    ),
    "errors": (
        "CenterSpecError", "DegenerateTriangle", "DegenerateVertexAngle",
        "EquilateralDegenerate", "GeometryError", "NonPositiveWeights", "PointAtInfinity",
        "UndefinedAngle",
    ),
    "kernel": (
        "BaryPoint", "TriangleElements", "TriangleSides", "bergstrom_bound", "circum_power",
        "circumradius_sq", "derive_elements", "dist_sq_between",
    ),
    "verify": ("FuzzConfig", "VerificationReport", "run_fuzz"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
