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
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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
    if isinstance(value, tuple) and len(value) == 2:
        return complex(_to_float(value[0]), _to_float(value[1]))
    return complex(value)


def _to_float(value) -> float:
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def _cleared(values: list[Fraction]) -> tuple[list[int], int]:
    """The integers den * x for the Fractions x, den the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _cleared_collection(c: DiskCollection) -> tuple[list[int], list[int], list[int], int]:
    """(x, y, r, L) with L a_k = x_k + i y_k and L R_k = r_k all integers,
    L the lcm of every center and radius denominator of an exact collection."""
    n = c.n
    ints, lcm = _cleared([*(v for z in c.exact_centers for v in (z.re, z.im)), *c.exact_radii])
    return ints[0 : 2 * n : 2], ints[1 : 2 * n : 2], ints[2 * n :], lcm


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

        distinct = set(exact_centers if is_exact else float_centers)
        if len(distinct) != len(centers):
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
        centers = self.exact_centers if self.is_exact else self.centers
        radii = self.exact_radii if self.is_exact else self.radii
        return DiskCollection([centers[i] for i in indices], [radii[i] for i in indices])

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

    Construction from rows validates Hermitian symmetry: exactly for
    rational entries, to 1e-12 relative tolerance for floating ones.  A
    floating matrix is held as one numpy array E with a vector of log
    scales l, and presents the matrix Q_ij = E_ij exp(l_i + l_j); matrices
    built from rows have l = 0.  Q entries beyond the double range read
    as inf, with numpy's overflow warning.  An exact matrix is held as an
    integer den > 0 and the upper triangle of den * Q as (re, im) int pairs.
    """

    __slots__ = ("_rows", "_e", "_log_scale", "_upper", "_den", "order", "is_exact")

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
        self._rows, self.order, self.is_exact = rows, n, exact
        self._e = self._log_scale = self._upper = self._den = None
        if exact:
            upper = [row[i:] for i, row in enumerate(rows)]
            ints, self._den = _cleared([x for row in upper for g in row for x in (g.re, g.im)])
            pairs = iter(zip(ints[::2], ints[1::2]))
            self._upper = [[next(pairs) for _ in row] for row in upper]
        else:
            self._e, self._log_scale = np.array(rows, dtype=complex), np.zeros(n)

    @classmethod
    def _built(cls, e=None, log_scale=None, upper=None, den=None) -> "HermitianMatrix":
        """Matrix with no symmetry scan: floating Q = diag(exp(l)) E diag(exp(l))
        from an exactly Hermitian E, or exact Q = U / den from the upper
        triangle U of a Gaussian-integer matrix with a real diagonal."""
        m = cls.__new__(cls)
        m._rows, m._e, m._log_scale, m._upper, m._den = None, e, log_scale, upper, den
        m.is_exact = upper is not None
        m.order = len(upper if m.is_exact else e)
        return m

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Entries of Q as nested tuples, made on first use for a built matrix."""
        if self._rows is None:
            if self.is_exact:
                n, d = self.order, self._den
                u = [[GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in row]
                     for row in self._upper]
                self._rows = tuple(
                    tuple(u[i][j - i] if i <= j else u[j][i - j].conjugate() for j in range(n))
                    for i in range(n)
                )
            else:
                self._rows = tuple(map(tuple, self.to_numpy().tolist()))
        return self._rows

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def to_numpy(self) -> np.ndarray:
        if self.is_exact:
            return np.array([[complex(e) for e in row] for row in self.rows], dtype=complex)
        return self._e * np.exp(self._log_scale[:, None] + self._log_scale)

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
    index of the offending diagonal on failure); exact mode with the exact
    leading principal minors, which end at the first zero one.
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

    An exact collection's Q is held as the Gaussian-integer matrix L^(2n) Q,
    L the lcm of all center and radius denominators.  A floating collection
    gets the equilibrated matrix E = D^-1 Q D^-1 with D_i = prod_k s_ik
    and s_ik = sqrt|g_ik|, g_ik = |a_i-a_k|^2 - R_k^2:
    each factor of the product is divided by s_ik s_jk, so E never leaves
    the double range, its diagonal E_ii = -prod_k sign(g_ik) is exactly
    +-1 (0 when some Q_ii = 0, where the vanishing factor stays unscaled),
    and scaling all coordinates changes it only by rounding (by a power of
    two, not at all).  E is congruent to Q by a positive diagonal, so
    definiteness is that of Q.  Both results are Hermitian by
    construction.
    """
    n = c.n
    if c.is_exact:
        # clear every denominator: with L a and L R the factors are Gaussian
        # integers, each L^2 times the factor of Q, so the product is L^(2n) Q
        x, y, r, lcm = _cleared_collection(c)
        r2 = [rk * rk for rk in r]
        upper = [[None] * (n - i) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                re, im = -1, 0
                for xk, yk, rk in zip(x, y, r2):
                    # factor u conj(v) - R_k^2, u = a_i - a_k, v = a_j - a_k
                    ur, ui, vr, vi = x[i] - xk, y[i] - yk, x[j] - xk, y[j] - yk
                    fr, fi = ur * vr + ui * vi - rk, ui * vr - ur * vi
                    re, im = re * fr - im * fi, re * fi + im * fr
                upper[i][j - i] = (re, im)
        return HermitianMatrix._built(upper=upper, den=lcm ** (2 * n))

    e, log_scale = _equilibrated(np.array([c.centers]), np.array([c.radii]))
    return HermitianMatrix._built(e[0], log_scale[0])


def _equilibrated(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacks (E, l) of the floating build for the complex centers a and
    radii r of b collections of n disks, both of shape (b, n).

    Slice t holds the E and log scales l that build_q_matrix describes for
    collection t, bit for bit as a stack of one would give them."""
    b, n = a.shape
    # One power of two per collection brings its largest input into
    # [1/2, 1): exact, so E is unchanged, and no square below can overflow
    # or underflow.  (Inputs all below 2^-1000 are subnormal; 2^1000 is as
    # far as they need to go, so the largest input is taken as at least
    # 2^-1001.)  np.hypot is libm's, as Python's abs(complex) is; numpy's
    # complex abs can round differently.
    top = np.maximum(np.hypot(a.real, a.imag), r).max(axis=1, initial=0.5**1001)
    shift = np.frexp(top)[1][:, None]
    unit = np.ldexp(1.0, -shift)
    a = a * unit
    # Python's ** is libm pow, which for some x differs in the last bit
    # from numpy's x * x; E has always been built from the former
    r2 = np.array([x**2 for x in (r * unit).ravel().tolist()]).reshape(b, n)
    d = a[:, None, :] - a[:, :, None]  # d[t, k, i] = a_i - a_k
    # multiply the factors of k-blocks in turn: a b n^3 temporary would not
    # stay small.  The block size sets how the product is grouped, so it
    # depends on n alone: a stack of b collections needs b times the
    # temporary, and callers keep b small.
    step = max(1, _BLOCK_ELEMENTS // (n * n))
    e = log_scale = None
    for k in range(0, n, step):
        dk = d[:, k : k + step]
        f = dk[..., :, None] * dk.conj()[..., None, :]
        f -= r2[:, k : k + step, None, None]
        diagonal = f.reshape(b, -1, n * n)[..., :: n + 1]
        g = diagonal.real  # g[t, k, i] = |a_i - a_k|^2 - R_k^2
        s = np.sqrt(np.abs(g))
        s[g == 0] = 1.0
        sign = np.sign(g)
        f /= s[..., :, None] * s[..., None, :]
        diagonal[...] = sign
        p, l = f.prod(axis=1), np.log(s).sum(axis=1)
        e, log_scale = (p, l) if e is None else (e * p, log_scale + l)
    log_scale += n * shift * math.log(2.0)
    # the two triangles of the product need not be exact conjugates; the
    # Hermitian part is, and its diagonal keeps -prod_k sign(g_ik)
    h = e.conj().swapaxes(1, 2)
    h += e
    h *= -0.5
    return h, log_scale


def is_admissible(c: DiskCollection) -> bool:
    """True iff every radius is smaller than every distance to the other centers.

    Strict inequality R_k < |a_j - a_k| for all j != k; decided exactly
    for exact collections, on squared quantities of the cleared integers
    L a and L R (scaling by L^2 keeps every comparison).
    """
    n = c.n
    if c.is_exact:
        x, y, r, _ = _cleared_collection(c)
        for k, (xk, yk, rk) in enumerate(zip(x, y, r)):
            r2 = rk * rk
            for j, (xj, yj) in enumerate(zip(x, y)):
                if j != k and (xj - xk) ** 2 + (yj - yk) ** 2 <= r2:
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
    a = m.to_numpy() if m.is_exact else m._e.copy()
    diag = a.diagonal().real  # a view, which follows the elimination below
    scale = float(abs(diag).max()) if n else 0.0
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
        rem = diag[step:]
        jmin = int(rem.argmin())
        jmax = int(rem.argmax())
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
            # np.outer's product without its wrapper: broadcasting a 1-D conj
            # instead takes another numpy loop for a 1x1 block, which rounds
            # differently
            a[step + 1 :, step + 1 :] -= col[:, None] * col.conj()[None, :] / pivot
    return PositivityReport(
        verdict=Verdict.POSITIVE_DEFINITE, tolerance_used=tol, pivots=tuple(pivots)
    )


def _div(x: int, d: int) -> int:
    """x / d, which must be exact."""
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError("fraction-free elimination left a remainder")
    return q


def _decide_exact(m: HermitianMatrix) -> PositivityReport:
    """Leading minors of Q = U / den by one fraction-free (Bareiss) pass on U.

    Step k divides a_ij <- p a_ij - conj(a_ki) a_kj exactly by the previous
    pivot; the pivot p = a_kk is leading minor k+1 of U, real as U stays
    Hermitian, so only the upper triangle is kept.  A zero minor, the next
    divisor, ends the pass and the certificate."""
    a = list(m._upper)
    minors = []
    prev = 1
    for k, pivot_row in enumerate(a):
        p, p_im = pivot_row[0]
        if p_im:
            raise ArithmeticError("Hermitian leading minor must be real")
        minors.append(Fraction(p, m._den ** (k + 1)))
        if p == 0:
            break
        for i in range(k + 1, m.order):
            ur, ui = pivot_row[i - k]
            a[i] = [
                (_div(p * xr - ur * vr - ui * vi, prev), _div(p * xi - ur * vi + ui * vr, prev))
                for (xr, xi), (vr, vi) in zip(a[i], pivot_row[i - k :])
            ]
        prev = p
    failing = next((k for k, d in enumerate(minors) if d <= 0), None)
    verdict = Verdict.POSITIVE_DEFINITE if failing is None else Verdict.NOT_POSITIVE_DEFINITE
    return PositivityReport(
        verdict=verdict, tolerance_used=0.0, minors=tuple(minors), failing_index=failing
    )


def is_positive_definite(m: HermitianMatrix, mode: str = "floating", tol: float = 1e-10) -> PositivityReport:
    """Decide positive definiteness of a Hermitian matrix.

    mode="floating": LDL with largest-diagonal pivoting, on the stored
    array E of a floating matrix (for build_q_matrix, the equilibrated
    matrix, so the pivots are those of E); all pivots above
    tol * (largest diagonal entry) gives POSITIVE_DEFINITE, a pivot below
    the negated threshold gives NOT_POSITIVE_DEFINITE with the offending
    original index, and a pivot inside the band gives INDETERMINATE.  An
    overflowed or NaN diagonal entry met during the elimination also gives
    INDETERMINATE, certified by the finite pivots taken before it.

    mode="exact": Sylvester's criterion on the leading principal minors from
    one fraction-free (Bareiss) elimination of the integer matrix den * Q,
    which a zero minor ends; needs Gaussian rational entries.
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
    floating decision returned positive-definite (within tol * min(1, s)
    of the boundary s, so relative below 1, or one unit in the last place
    where that is wider), and inf for a single disk (always positive).
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
    while hi - lo > tol * min(1.0, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles wider apart than tol
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return lo
