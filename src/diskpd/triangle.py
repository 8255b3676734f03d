"""Three disks of arbitrary radii at the vertices of the equilateral triangle.

For centers at the cube roots of unity (pairwise squared distance 3) and
radii R_1, R_2, R_3, the collection is positive if and only if
R_1^2 + R_2^2 + R_3^2 < 3, strictly.  This module implements that
criterion together with the closed forms of the three leading principal
minors of the Q matrix in the variables x_i = R_i^2.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product

__all__ = [
    "triangle_positive",
    "triangle_minors",
    "phi_value",
    "phi_reflection_symmetric",
    "ADMISSIBLE_RADIUS_SQUARED",
]

#: Admissibility bound: every R_i^2 must stay below the squared center distance.
ADMISSIBLE_RADIUS_SQUARED = 3.0

_BOUNDARY_BAND = 1e-12


def triangle_positive(r1: float, r2: float, r3: float) -> bool:
    """Positivity criterion: R_1^2 + R_2^2 + R_3^2 < 3, strict.

    Radii must be admissible (R_i < sqrt(3)); violations raise naming the
    offending index.  Where the rounded sum of squares lies within 1e-12 of
    3, the answer is decided exactly on the given doubles, from the sum of
    their exact squares, and flagged with a proximity warning: values that
    were rounded to those doubles may lie on the other side.
    """
    radii = (r1, r2, r3)
    for idx, r in enumerate(radii, start=1):
        if not r > 0:
            raise ValueError(f"radius R{idx}={r} must be positive")
        if not r * r < ADMISSIBLE_RADIUS_SQUARED:
            raise ValueError(
                f"radius R{idx}={r} is inadmissible: R{idx}^2 must stay below 3"
            )
    total = r1 * r1 + r2 * r2 + r3 * r3
    if abs(total - 3.0) < _BOUNDARY_BAND:
        warnings.warn(
            f"squared-radius sum {total!r} lies within {_BOUNDARY_BAND} of the "
            "positivity boundary 3; the verdict is exact for the given doubles only",
            stacklevel=2,
        )
        return sum(Fraction(r) ** 2 for r in radii) < 3
    return total < 3.0


def phi_value(x1, x2, x3):
    """phi(x) = 9 + x1 x2 + x2 x3 + x1 x3 - 3(x1 + x2 + x3).

    The harmonic factor of the determinant: the third leading minor is
    27 x1 x2 x3 (3 - x1 - x2 - x3) phi(x).  Works in any arithmetic
    (floats or Fractions).
    """
    return 9 + x1 * x2 + x2 * x3 + x1 * x3 - 3 * (x1 + x2 + x3)


def triangle_minors(x1, x2, x3):
    """Leading principal minors (d1, d2, d3) of Q in x_i = R_i^2.

    d1 = x1 (3 - x2)(3 - x3)
    d2 = 3 q [(3 - p) x3^2 - x3 (18 + q - 6p) + 9 (3 - p)],  p = x1 + x2, q = x1 x2
    d3 = 27 x1 x2 x3 (3 - x1 - x2 - x3) phi(x)

    Requires 0 < x_i < 3.  Computed in the arithmetic of the inputs, so
    Fraction arguments give exact values.
    """
    for idx, x in enumerate((x1, x2, x3), start=1):
        if not 0 < x < 3:
            raise ValueError(f"x{idx}={x} out of range: need 0 < x{idx} < 3")
    d1 = x1 * (3 - x2) * (3 - x3)
    p = x1 + x2
    q = x1 * x2
    d2 = 3 * q * ((3 - p) * x3 * x3 - x3 * (18 + q - 6 * p) + 9 * (3 - p))
    d3 = 27 * x1 * x2 * x3 * (3 - x1 - x2 - x3) * phi_value(x1, x2, x3)
    return d1, d2, d3


def phi_reflection_symmetric() -> bool:
    """Exact check of the identity phi(3-x1, 3-x2, 3-x3) == phi(x1, x2, x3).

    The difference of the two sides has degree at most 2 in each variable,
    so it is the zero polynomial as soon as it vanishes on the grid
    {0, 1, 2}^3 (interpolate one variable at a time).  The grid values are
    exact integers.
    """
    return all(
        phi_value(*(3 - xi for xi in x)) == phi_value(*x) for x in product(range(3), repeat=3)
    )
