"""Disk collections and positive definiteness of their Q matrices.

A collection of disks B(a_j, R_j) in the plane is *positive* when the
Hermitian matrix with entries

    Q_ij = -prod_k [ (a_i - a_k) * conj(a_j - a_k) - R_k^2 ]

is positive definite.  This module builds Q for arbitrary collections,
decides positive definiteness (floating LDL with a pivot certificate, or
exact rational leading minors when the inputs are rational), measures
disk overlap, and searches for the largest uniform radius scaling that
keeps a collection positive.

All types are immutable values; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "GaussianRational",
    "DiskCollection",
    "HermitianMatrix",
    "Verdict",
    "PositivityReport",
    "build_q_matrix",
    "is_admissible",
    "is_positive_definite",
    "overlap_measure",
    "max_uniform_scale",
]

_HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def _exact_scalar(value) -> Fraction | None:
    """Fraction view of a value when it is exactly rational, else None.

    Floats are deliberately treated as inexact: exact mode is reserved
    for inputs given as int/Fraction/decimal string.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return None


def _exact_center(value) -> GaussianRational | None:
    if isinstance(value, tuple) and len(value) == 2:
        re = _exact_scalar(value[0])
        im = _exact_scalar(value[1])
        if re is not None and im is not None:
            return GaussianRational(re, im)
        return None
    if isinstance(value, GaussianRational):
        return value
    scalar = None if isinstance(value, (complex, float)) else _exact_scalar(value)
    if scalar is not None:
        return GaussianRational(scalar)
    return None


def _center_to_complex(value) -> complex:
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, tuple) and len(value) == 2:
        return complex(_to_float(value[0]), _to_float(value[1]))
    return complex(value)


def _to_float(value) -> float:
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


class DiskCollection:
    """An ordered collection of open disks B(a_j, R_j), n >= 1.

    Centers may be given as complex numbers, (re, im) pairs, or exact
    rationals (int/Fraction/"p/q" strings); radii likewise.  When every
    input is rational the collection also carries an exact Gaussian
    rational view that enables exact-arithmetic positivity decisions.
    Radii must be strictly positive and centers pairwise distinct.
    """

    __slots__ = ("centers", "radii", "exact_centers", "exact_radii")

    def __init__(self, centers, radii):
        centers = tuple(centers)
        radii = tuple(radii)
        if not centers:
            raise ValueError("a disk collection needs at least one disk")
        if len(centers) != len(radii):
            raise ValueError("centers and radii must have the same length")

        exact_centers = tuple(_exact_center(c) for c in centers)
        exact_radii = tuple(_exact_scalar(r) for r in radii)
        is_exact = all(c is not None for c in exact_centers) and all(
            r is not None for r in exact_radii
        )

        float_centers = []
        for c in centers:
            z = _center_to_complex(c)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"center {c!r} has non-finite components")
            float_centers.append(z)
        float_radii = []
        for r in radii:
            x = _to_float(r)
            if not math.isfinite(x):
                raise ValueError(f"radius {r!r} is not finite")
            if x <= 0:
                raise ValueError(f"radius {r!r} is not strictly positive")
            float_radii.append(x)

        if is_exact:
            seen = set()
            for g in exact_centers:
                key = (g.re, g.im)
                if key in seen:
                    raise ValueError("centers must be pairwise distinct")
                seen.add(key)
        else:
            if len(set(float_centers)) != len(float_centers):
                raise ValueError("centers must be pairwise distinct")

        self.centers = tuple(float_centers)
        self.radii = tuple(float_radii)
        self.exact_centers = exact_centers if is_exact else None
        self.exact_radii = exact_radii if is_exact else None

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def is_exact(self) -> bool:
        return self.exact_centers is not None

    def scaled(self, factor) -> "DiskCollection":
        """Same centers with every radius multiplied by factor > 0."""
        if self.is_exact and _exact_scalar(factor) is not None:
            f = _exact_scalar(factor)
            return DiskCollection(self.exact_centers, tuple(r * f for r in self.exact_radii))
        return DiskCollection(self.centers, tuple(r * float(factor) for r in self.radii))

    def subcollection(self, indices) -> "DiskCollection":
        indices = tuple(indices)
        if self.is_exact:
            return DiskCollection(
                tuple(self.exact_centers[i] for i in indices),
                tuple(self.exact_radii[i] for i in indices),
            )
        return DiskCollection(
            tuple(self.centers[i] for i in indices),
            tuple(self.radii[i] for i in indices),
        )

    def min_pairwise_distance(self) -> float:
        if self.n < 2:
            raise ValueError("need at least two disks")
        return min(
            abs(self.centers[i] - self.centers[j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def __repr__(self):
        return f"DiskCollection(n={self.n}, exact={self.is_exact})"


class HermitianMatrix:
    """Dense Hermitian matrix, either floating complex or Gaussian rational.

    Construction validates Hermitian symmetry: exactly for rational
    entries, to 1e-12 relative tolerance for floating ones.
    """

    __slots__ = ("rows", "order", "is_exact")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        exact = isinstance(rows[0][0], GaussianRational)
        for i in range(n):
            for j in range(i, n):
                a, b = rows[i][j], rows[j][i]
                if exact:
                    if a != b.conjugate():
                        raise ValueError(f"matrix is not Hermitian at ({i},{j})")
                else:
                    diff = abs(a - b.conjugate())
                    scale = max(abs(a), abs(b))
                    if diff > _HERMITIAN_RTOL * scale:
                        raise ValueError(
                            f"matrix is not Hermitian at ({i},{j}): "
                            f"|difference| {diff:.3e} exceeds {_HERMITIAN_RTOL:.0e} relative"
                        )
        self.rows = rows
        self.order = n
        self.is_exact = exact

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def to_numpy(self) -> np.ndarray:
        if self.is_exact:
            return np.array([[complex(e) for e in row] for row in self.rows], dtype=complex)
        return np.array(self.rows, dtype=complex)

    def eigenvalues(self) -> tuple[float, ...]:
        """Real spectrum, ascending (floating; computed on request)."""
        return tuple(np.linalg.eigvalsh(self.to_numpy()).tolist())

    def __repr__(self):
        return f"HermitianMatrix(order={self.order}, exact={self.is_exact})"


class Verdict(Enum):
    POSITIVE_DEFINITE = "positive-definite"
    NOT_POSITIVE_DEFINITE = "not-positive-definite"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class PositivityReport:
    """Decision plus a machine-checkable certificate.

    Floating mode certifies with the LDL pivot sequence (and the original
    index of the offending diagonal on failure); exact mode certifies
    with the exact leading principal minors.
    """

    verdict: Verdict
    tolerance_used: float
    pivots: tuple[float, ...] | None = None
    minors: tuple[Fraction, ...] | None = None
    failing_index: int | None = None

    @property
    def is_positive(self) -> bool:
        return self.verdict is Verdict.POSITIVE_DEFINITE


def build_q_matrix(c: DiskCollection) -> HermitianMatrix:
    """Q matrix of a disk collection: Q_ij = -prod_k[(a_i-a_k)conj(a_j-a_k) - R_k^2].

    Exact Gaussian-rational entries when the collection is exact, floating
    complex otherwise.  The result is Hermitian by construction; diagonal
    entries are real (their imaginary parts vanish identically and are
    checked against a 1e-12 relative bound before being dropped).
    """
    n = c.n
    if c.is_exact:
        a = c.exact_centers
        r2 = [r * r for r in c.exact_radii]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                prod = GaussianRational(Fraction(1))
                for k in range(n):
                    prod = prod * ((a[i] - a[k]) * (a[j] - a[k]).conjugate() - GaussianRational(r2[k]))
                entry = -prod
                if i == j:
                    assert entry.is_real
                    rows[i][i] = GaussianRational(entry.re)
                else:
                    rows[i][j] = entry
                    rows[j][i] = entry.conjugate()
        return HermitianMatrix(rows)

    a = c.centers
    r2 = [r * r for r in c.radii]
    rows = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = 1 + 0j
            for k in range(n):
                prod *= (a[i] - a[k]) * (a[j] - a[k]).conjugate() - r2[k]
            entry = -prod
            if i == j:
                if abs(entry.imag) > 1e-12 * abs(entry):
                    raise ArithmeticError(
                        f"diagonal entry ({i},{i}) has non-negligible imaginary part"
                    )
                rows[i][i] = complex(entry.real, 0.0)
            else:
                rows[i][j] = entry
                rows[j][i] = entry.conjugate()
    return HermitianMatrix(rows)


def is_admissible(c: DiskCollection) -> bool:
    """True iff every radius is smaller than every distance to the other centers.

    Strict inequality R_k < |a_j - a_k| for all j != k; decided exactly
    (on squared quantities) for exact collections.
    """
    n = c.n
    if c.is_exact:
        r2 = [r * r for r in c.exact_radii]
        for k in range(n):
            for j in range(n):
                if j != k and (c.exact_centers[j] - c.exact_centers[k]).abs2() <= r2[k]:
                    return False
        return True
    for k in range(n):
        for j in range(n):
            if j != k and abs(c.centers[j] - c.centers[k]) <= c.radii[k]:
                return False
    return True


def overlap_measure(c: DiskCollection) -> float:
    """Overlap measure beta: the worst pairwise ratio (R_i + R_j)/|a_i - a_j|.

    beta <= 1 exactly when the open disks are pairwise disjoint (tangency
    allowed); for n congruent disks of radius r centered at the n-th roots
    of unity, beta = r/sin(pi/n).
    """
    if c.n < 2:
        raise ValueError("overlap measure needs at least two disks")
    return max(
        (c.radii[i] + c.radii[j]) / abs(c.centers[i] - c.centers[j])
        for i in range(c.n)
        for j in range(i + 1, c.n)
    )


def _decide_floating(m: HermitianMatrix, tol: float) -> PositivityReport:
    n = m.order
    a = m.to_numpy()
    diag = a.diagonal().real.copy()
    scale = float(np.max(np.abs(diag))) if n else 0.0
    threshold = tol * scale
    if scale == 0.0:
        # all diagonal entries vanish exactly: never positive definite
        return PositivityReport(
            verdict=Verdict.NOT_POSITIVE_DEFINITE,
            tolerance_used=tol,
            pivots=(0.0,),
            failing_index=0,
        )

    perm = list(range(n))
    pivots: list[float] = []
    for step in range(n):
        rem = a[step:, step:].diagonal().real
        jmin = int(np.argmin(rem))
        jmax = int(np.argmax(rem))
        lowest = float(rem[jmin])
        pivot = float(rem[jmax])
        # argmin and argmax return the first NaN when there is one, so these
        # two scalars see every overflowed or NaN entry on the diagonal
        if not math.isfinite(lowest) or not math.isfinite(pivot):
            return PositivityReport(
                verdict=Verdict.INDETERMINATE,
                tolerance_used=tol,
                pivots=tuple(pivots),
                failing_index=perm[step + (jmin if not math.isfinite(lowest) else jmax)],
            )
        if lowest < -threshold:
            pivots.append(lowest)
            return PositivityReport(
                verdict=Verdict.NOT_POSITIVE_DEFINITE,
                tolerance_used=tol,
                pivots=tuple(pivots),
                failing_index=perm[step + jmin],
            )
        if pivot <= threshold:
            pivots.append(pivot)
            return PositivityReport(
                verdict=Verdict.INDETERMINATE,
                tolerance_used=tol,
                pivots=tuple(pivots),
                failing_index=perm[step + jmax],
            )
        if jmax:
            k = step + jmax
            a[[step, k], :] = a[[k, step], :]
            a[:, [step, k]] = a[:, [k, step]]
            perm[step], perm[k] = perm[k], perm[step]
        pivots.append(pivot)
        if step < n - 1:
            col = a[step + 1 :, step]
            a[step + 1 :, step + 1 :] -= np.outer(col, col.conjugate()) / pivot
    return PositivityReport(
        verdict=Verdict.POSITIVE_DEFINITE, tolerance_used=tol, pivots=tuple(pivots)
    )


def _exact_leading_minor(rows, k: int) -> Fraction:
    """Determinant of the leading k x k block by Gaussian elimination."""
    a = [[rows[i][j] for j in range(k)] for i in range(k)]
    det = GaussianRational(Fraction(1))
    sign = 1
    for col in range(k):
        pivot_row = None
        for r in range(col, k):
            if a[r][col].re != 0 or a[r][col].im != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        pivot = a[col][col]
        det = det * pivot
        inv_norm = pivot.abs2()
        inv = GaussianRational(pivot.re / inv_norm, -pivot.im / inv_norm)
        for r in range(col + 1, k):
            factor = a[r][col] * inv
            if factor.re == 0 and factor.im == 0:
                continue
            for s in range(col, k):
                a[r][s] = a[r][s] - factor * a[col][s]
    if not det.is_real:
        raise ArithmeticError("Hermitian leading minor must be real")
    return sign * det.re


def _decide_exact(m: HermitianMatrix) -> PositivityReport:
    minors = tuple(_exact_leading_minor(m.rows, k) for k in range(1, m.order + 1))
    failing = next((k for k, d in enumerate(minors) if d <= 0), None)
    verdict = Verdict.POSITIVE_DEFINITE if failing is None else Verdict.NOT_POSITIVE_DEFINITE
    return PositivityReport(
        verdict=verdict, tolerance_used=0.0, minors=minors, failing_index=failing
    )


def is_positive_definite(m: HermitianMatrix, mode: str = "floating", tol: float = 1e-10) -> PositivityReport:
    """Decide positive definiteness of a Hermitian matrix.

    mode="floating": LDL with largest-diagonal pivoting; all pivots above
    tol * (largest diagonal entry) gives POSITIVE_DEFINITE, a pivot below
    the negated threshold gives NOT_POSITIVE_DEFINITE with the offending
    original index, and a pivot inside the band gives INDETERMINATE.  An
    overflowed or NaN diagonal entry met during the elimination also gives
    INDETERMINATE, certified by the finite pivots taken before it.

    mode="exact": exact rational leading principal minors (Sylvester);
    only available when the matrix carries Gaussian rational entries.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if mode == "exact":
        if not m.is_exact:
            raise ValueError("exact mode requires a matrix with rational entries")
        return _decide_exact(m)
    if mode != "floating":
        raise ValueError(f"unknown mode {mode!r}")
    return _decide_floating(m, tol)


def max_uniform_scale(c: DiskCollection, tol: float = 1e-12) -> float:
    """Largest s such that scaling every radius by s keeps the collection positive.

    The positive-radii region is downward closed, so the positivity
    predicate is monotone in s and bisection is sound.  The initial upper
    bracket comes from the two-disk criterion s^2 (R_i^2 + R_j^2) <
    |a_i - a_j|^2, which every pair subcollection must satisfy; growth by
    doubling guards against floating fuzz at that bound.  Returns the
    lower end of the final bracket, the largest scale at which the
    floating decision returned positive-definite (within tol of the
    boundary), and inf for a single disk (always positive).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if c.n == 1:
        return math.inf

    def positive(s: float) -> bool:
        report = is_positive_definite(build_q_matrix(c.scaled(s)))
        return report.verdict is Verdict.POSITIVE_DEFINITE

    hi = min(
        abs(c.centers[i] - c.centers[j])
        / math.sqrt(c.radii[i] ** 2 + c.radii[j] ** 2)
        for i in range(c.n)
        for j in range(i + 1, c.n)
    )
    grow = 0
    while positive(hi):
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise RuntimeError("failed to bracket the scale from above")
    lo = hi / 2.0
    shrink = 0
    while not positive(lo):
        lo /= 2.0
        shrink += 1
        if shrink > 200:
            raise RuntimeError("failed to bracket the scale from below")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo
