"""Exception hierarchy shared by every module in the package.

All geometric failure modes derive from :class:`GeometryError` so callers can
catch one type at API boundaries.  :class:`InputError` and its subclass
:class:`CenterSpecError` are deliberately outside that hierarchy: malformed
text is a usage mistake, not a property of the triangle, and the CLI maps it
to a different exit code.
"""

from __future__ import annotations


class GeometryError(ValueError):
    """Base class for all domain errors raised by this package."""


class DegenerateTriangle(GeometryError):
    """Side lengths violate the strict triangle inequality (within tolerance)."""


class PointAtInfinity(GeometryError):
    """Homogeneous coordinates sum to zero, so the point is not affine."""


class NonPositiveWeights(GeometryError):
    """A positivity-only operation received a coordinate that is <= 0."""


class UndefinedAngle(GeometryError):
    """An angle at the circumcenter is requested for a leg of zero length."""


class EquilateralDegenerate(GeometryError):
    """A closed form with an R - 2r style denominator hit the equilateral case."""


class DegenerateVertexAngle(GeometryError):
    """A three-point angle is requested at a vertex coinciding with a ray end."""


class InputError(ValueError):
    """User text or an option value could not be interpreted (a bad number,
    side triple, point descriptor, corpus file or setting)."""


class CenterSpecError(InputError):
    """A point descriptor string or structure could not be interpreted."""
