"""Disk collections and positive definiteness of their Q matrices.

A collection of disks B(a_j, R_j) in the plane is *positive* when the
Hermitian matrix with entries

    Q_ij = -prod_k [ (a_i - a_k) * conj(a_j - a_k) - R_k^2 ]

is positive definite.  This module builds Q for arbitrary collections,
decides positive definiteness (a floating proof, from a Cholesky
factorization or a witness vector, or exact rational leading minors when
the inputs are rational), measures disk overlap, and searches for the
first uniform radius scale at which a collection loses positivity.

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

_U = 2.0**-53  # unit roundoff of a double
_ETA = 2.0**-1074  # smallest subnormal: twice the underflow error of one operation
#: Factor on every error bound evaluated in floating point, which covers
#: the rounding of that evaluation for any order n below 10^12.
_SLACK = 1.01
_TOL = 1e-10  # default width of the band of floating decisions
_CHUNK = 2**14  # complex entries of the rank-2 factors that one stacked product forms


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def _read_scalar(value, name: str | None = None, index: int | None = None) -> tuple[Fraction | None, float]:
    """The exact and floating views of a real input value.

    An int, a Fraction or a decimal or "p/q" string is exact: its Fraction,
    and the correctly rounded double of that, +-inf beyond the double
    range.  Anything else (float, bool, numpy scalar) is deliberately
    inexact, (None, float(value)): exact mode is reserved for rational
    input.  Given a name, a value that is not finite as a double raises
    ValueError naming it and the index, not its digits, which can be many.
    """
    if type(value) is float:  # the common input, tested first
        exact, x = None, value
    elif isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        exact, x = None, float(value)
    else:
        exact = Fraction(value)
        try:
            x = float(exact)
        except OverflowError:
            x = math.inf if exact > 0 else -math.inf
    if name is not None and not math.isfinite(x):
        raise ValueError(f"{name} {index} is not finite as a double")
    return exact, x


def _read_center(value, name: str | None = None, index: int | None = None) -> tuple[GaussianRational | None, complex]:
    """The exact and floating views of a center: its real and imaginary
    parts, read by _read_scalar, from an (re, im) pair, a GaussianRational,
    a complex number or a real value.  The exact view is None unless both
    parts are exact."""
    if isinstance(value, tuple) and len(value) == 2:
        re, im = value
    elif isinstance(value, GaussianRational):
        re, im = value.re, value.im
    elif isinstance(value, (complex, np.complexfloating)):
        re, im = value.real, value.imag
    else:
        re, im = value, 0
    (a, x), (b, y) = _read_scalar(re, name, index), _read_scalar(im, name, index)
    return (None if a is None or b is None else GaussianRational(a, b)), complex(x, y)


def _cleared(values: list[Fraction]) -> tuple[list[int], int]:
    """The integers den * x for the Fractions x, den the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _cleared_collection(c: DiskCollection) -> tuple[list[int], list[int], list[int], Fraction]:
    """(x, y, r, s) with x_k + i y_k = s (a_k - a_0) and r_k = s R_k
    integers of gcd 1, s > 0 rational, for an exact collection: the
    differences of the centers and the radii on their primitive lattice.
    s is L / g, L the lcm of every denominator and g the gcd of the
    cleared differences and radii.  A rational vector has one primitive
    integer multiple by a positive number, so clearing the differences'
    own denominators would give the same s."""
    n = c.n
    ints, lcm = _cleared([*(v for z in c.exact_centers for v in (z.re, z.im)), *c.exact_radii])
    x = [v - ints[0] for v in ints[0 : 2 * n : 2]]
    y = [v - ints[1] for v in ints[1 : 2 * n : 2]]
    r = ints[2 * n :]
    g = math.gcd(*x, *y, *r)  # > 0, as every radius is
    if g > 1:
        x, y, r = ([v // g for v in vs] for vs in (x, y, r))
    return x, y, r, Fraction(lcm, g)


def _primitive(upper: list[list[tuple[int, int]]], den: int | Fraction) -> tuple[list, Fraction]:
    """The exact form (U / c, den / c) of Q = U / den, U the upper triangle
    of a Gaussian-integer matrix and c the gcd of every real and imaginary
    part of U, which leaves an all-zero U as it is."""
    c = math.gcd(*(v for row in upper for pair in row for v in pair))
    if c <= 1:
        return upper, Fraction(den)
    return [[(x // c, y // c) for x, y in row] for row in upper], Fraction(den, c)


class DiskCollection:
    """An ordered collection of open disks B(a_j, R_j), n >= 1.

    Centers may be given as complex numbers, (re, im) pairs, real values
    or GaussianRationals; radii as real values.  Every value is read once:
    ints, Fractions and decimal or "p/q" strings are exact; floats, bools
    and numpy scalars are not.  When every
    input is exact the collection also carries an exact Gaussian rational
    view that enables exact-arithmetic positivity decisions.  The floating
    view holds the correctly rounded doubles, which must be finite, with
    radii strictly positive; centers must be pairwise distinct.
    """

    __slots__ = ("centers", "radii", "exact_centers", "exact_radii", "_distances")

    def __init__(self, centers, radii):
        centers = tuple(centers)
        radii = tuple(radii)
        if not centers:
            raise ValueError("a disk collection needs at least one disk")
        if len(centers) != len(radii):
            raise ValueError("centers and radii must have the same length")

        exact_centers, float_centers = zip(*(_read_center(c, "center", i) for i, c in enumerate(centers)))
        exact_radii, float_radii = zip(*(_read_scalar(r, "radius", i) for i, r in enumerate(radii)))
        self._hold(exact_centers, float_centers, exact_radii, float_radii)

    @classmethod
    def _of_views(cls, exact_centers, centers, exact_radii, radii) -> "DiskCollection":
        """The collection of n >= 1 disks whose centers and radii read, by
        _read_center and _read_scalar, as these exact and floating views,
        with every floating value finite: no value is read again."""
        c = cls.__new__(cls)
        c._hold(tuple(exact_centers), tuple(centers), tuple(exact_radii), tuple(radii))
        return c

    def _hold(self, exact_centers, float_centers, exact_radii, float_radii) -> None:
        """Check the views of every disk and store them."""
        is_exact = all(x is not None for x in (*exact_centers, *exact_radii))
        for i, x in enumerate(float_radii):
            if x <= 0:
                raise ValueError(f"radius {i} is not positive as a double")

        distinct = set(exact_centers if is_exact else float_centers)
        if len(distinct) != len(float_centers):
            raise ValueError("centers must be pairwise distinct")

        self.centers = float_centers
        self.radii = float_radii
        self.exact_centers = exact_centers if is_exact else None
        self.exact_radii = exact_radii if is_exact else None
        self._distances = None  # (dist, r) of _distances, made on first use

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def is_exact(self) -> bool:
        return self.exact_centers is not None

    def _views(self) -> tuple[tuple, tuple, tuple, tuple]:
        """The exact and floating views of the centers and radii, as
        _of_views takes them: an exact view of None per disk when inexact."""
        none = (None,) * self.n
        return self.exact_centers or none, self.centers, self.exact_radii or none, self.radii

    def scaled(self, factor) -> "DiskCollection":
        """Same centers with every radius multiplied by factor > 0: only the
        new radii are read."""
        exact, f = _read_scalar(factor)
        if self.is_exact and exact is not None:
            radii = [_read_scalar(r * exact, "radius", i) for i, r in enumerate(self.exact_radii)]
        else:
            radii = [_read_scalar(r * f, "radius", i) for i, r in enumerate(self.radii)]
        exact_centers, centers, _, _ = self._views()
        return DiskCollection._of_views(exact_centers, centers, *zip(*radii))

    def subcollection(self, indices) -> "DiskCollection":
        indices = tuple(indices)
        if not indices:
            raise ValueError("a disk collection needs at least one disk")
        return DiskCollection._of_views(*([view[i] for i in indices] for view in self._views()))

    def __repr__(self):
        return f"DiskCollection(n={self.n}, exact={self.is_exact})"


def _exact_entry(x, i: int, j: int) -> GaussianRational:
    """Entry (i, j) of an exact matrix: a GaussianRational, or an int or
    Fraction read as an exact real; ValueError naming anything else,
    such as a float, a complex or a GaussianRational with a float part."""
    gaussian = isinstance(x, GaussianRational)
    for v in (x.re, x.im) if gaussian else (x,):
        if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
            raise ValueError(f"matrix entry ({i},{j}) is not exact: {type(v).__name__} in an exact matrix")
    return x if gaussian else GaussianRational(Fraction(x))


class HermitianMatrix:
    """Dense Hermitian matrix, either floating complex or Gaussian rational.

    Construction from rows checks that they are exactly Hermitian,
    rows[i][j] == conj(rows[j][i]), in either arithmetic: LAPACK's Cholesky
    reads one triangle, so a floating decision on rows that were Hermitian
    only up to rounding would prove a matrix other than the one given.  A
    floating matrix is held as one numpy array E with a vector of log
    scales l, and presents the matrix Q_ij = E_ij exp(l_i + l_j); matrices
    built from rows have l = 0.  It also carries a vector v >= 0 that
    bounds the error of E entrywise, |E_ij - E*_ij| <= v_i v_j, against a
    matrix E* congruent to Q by a positive diagonal: v = 0 for rows, which
    are the matrix itself.  Q entries beyond the double range read as inf,
    with numpy's overflow warning.  An exact matrix is one whose first
    entry is a GaussianRational; its int and Fraction entries are read as
    exact reals, and a float or complex entry raises.  It is held in one
    primitive form, Q = U / den: the upper triangle of a Gaussian-integer
    matrix U whose real and imaginary parts have gcd 1 (unless all are 0),
    as (re, im) int pairs, and a rational den > 0.
    """

    __slots__ = ("_rows", "_e", "_log_scale", "_bound", "_upper", "_den", "order", "is_exact")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        exact = isinstance(rows[0][0], GaussianRational)
        if exact:
            rows = tuple(
                tuple(_exact_entry(x, i, j) for j, x in enumerate(row)) for i, row in enumerate(rows)
            )
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != rows[j][i].conjugate():
                    for p, q in ((i, j), (j, i)):
                        if rows[p][q] != rows[p][q]:
                            raise ValueError(f"matrix entry ({p},{q}) is NaN")
                    raise ValueError(f"matrix is not Hermitian at ({i},{j})")
        self._rows, self.order, self.is_exact = rows, n, exact
        self._e = self._log_scale = self._bound = self._upper = self._den = None
        if exact:
            upper = [row[i:] for i, row in enumerate(rows)]
            ints, den = _cleared([x for row in upper for g in row for x in (g.re, g.im)])
            pairs = iter(zip(ints[::2], ints[1::2]))
            self._upper, self._den = _primitive([[next(pairs) for _ in row] for row in upper], den)
        else:
            self._e, self._log_scale, self._bound = np.array(rows, dtype=complex), np.zeros(n), np.zeros(n)

    @classmethod
    def _built(cls, e=None, log_scale=None, bound=None, upper=None, den=None) -> "HermitianMatrix":
        """Matrix with no symmetry scan: floating Q = diag(exp(l)) E diag(exp(l))
        from an exactly Hermitian E with error bound v, or exact Q = U / den
        from the upper triangle U of a Gaussian-integer matrix with a real
        diagonal and a rational den > 0."""
        m = cls.__new__(cls)
        m._rows, m._e, m._log_scale, m._bound = None, e, log_scale, bound
        m._upper, m._den = upper, den
        m.is_exact = upper is not None
        m.order = len(upper if m.is_exact else e)
        return m

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Entries of Q as nested tuples, made on first use for a built matrix."""
        if self._rows is None:
            if self.is_exact:
                n, top, bottom = self.order, self._den.numerator, self._den.denominator
                u = [[GaussianRational(Fraction(x * bottom, top), Fraction(y * bottom, top)) for x, y in row]
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

    Floating mode reports the shift delta as tolerance_used and certifies
    with the Cholesky pivots of E - delta I, or with one upper bound of
    x^H E x for a witness x (and the index of its largest entry); exact
    mode with the exact leading principal minors, which end at the first
    zero one.
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

    An exact collection's Q depends on the centers only through their
    differences and is multiplied by s^(2n) when every center and radius
    is: on the cleared integers of _cleared_collection, U = s^(2n) Q is a
    Gaussian-integer matrix, held in the primitive form of HermitianMatrix
    as U / c over den = s^(2n) / c, c the gcd of every part of U.  U / c is
    the one primitive Gaussian-integer matrix that is a positive multiple
    of Q, and the cleared differences keep the build's integers short.  A
    floating collection gets the equilibrated matrix E = D^-1 Q D^-1 with
    D_i = prod_k s_ik and s_ik = sqrt|g_ik|, g_ik = |a_i-a_k|^2 - R_k^2:
    each factor of the product is divided by s_ik s_jk, so E never leaves
    the double range, its diagonal E_ii is -prod_k sign(g_ik) = +-1 up to
    rounding (about 0 when some Q_ii = 0, where the vanishing factor stays
    unscaled), and scaling all coordinates changes it only by rounding (by
    a power of two, not at all).  E is congruent to Q by a positive
    diagonal, so definiteness is that of Q, and it comes with an entrywise
    bound on its rounding errors (see _equilibrated).  Both results are
    Hermitian by construction.
    """
    n = c.n
    if c.is_exact:
        # on the cleared integers each factor is a Gaussian integer, s^2
        # times the factor of Q, so the product is s^(2n) Q
        x, y, r, s = _cleared_collection(c)
        r2 = [rk * rk for rk in r]
        d = [[(xi - xk, yi - yk) for xk, yk in zip(x, y)] for xi, yi in zip(x, y)]  # a_i - a_k
        upper = [[None] * (n - i) for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                re, im = -1, 0
                for (ur, ui), (vr, vi), rk in zip(d[i], d[j], r2):
                    # factor u conj(v) - R_k^2, u = a_i - a_k, v = a_j - a_k
                    fr, fi = ur * vr + ui * vi - rk, ui * vr - ur * vi
                    re, im = re * fr - im * fi, re * fi + im * fr
                upper[i][j - i] = (re, im)
        upper, den = _primitive(upper, s ** (2 * n))
        return HermitianMatrix._built(upper=upper, den=den)

    e, log_scale, bound = _equilibrated(np.array([c.centers]), np.array([c.radii]))
    return HermitianMatrix._built(e[0], log_scale[0], bound[0])


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds |prod (1 + d_i)^(+-1) - 1|
    for k factors with |d_i| <= u."""
    return k * _U / (1 - k * _U)


def _equilibrated(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacks (E, l, v) of the floating build for the complex centers a and
    radii r of b collections of n disks, both of shape (b, n).

    Slice t holds the E and log scales l that build_q_matrix describes for
    collection t, bit for bit as a stack of one would give them, and a
    vector v >= 0 with |E_ij - E*_ij| <= v_i v_j, where E* is the same
    product in exact arithmetic on the computed s_ik.

    E is a product of rank-2 factors.  With w_ki = (a_i - a_k) / s_ik and
    t_ki = R_k / s_ik the factor k of Q_ij divided by s_ik s_jk is
    F_kij = w_ki conj(w_kj) - t_ki t_kj: F_k = P_k J P_k^H with the n x 2
    matrix P_k = [w_k, t_k] and J = diag(1, -1), one matrix product per k.
    E = -prod_k F_k entrywise, and E* = D^-1 Q D^-1 with D_i = prod_k s_ik
    for any s_ik > 0, so the s_ik need no accuracy.  The products are
    batched: one stacked product forms the factors of a chunk of k, about
    _CHUNK entries (each slice the same BLAS product on the same layout as
    a product of its own), and E is multiplied by them in the order of k,
    so the chunk size changes no bit.

    Error bound.  Standard model, u = 2^-53, h = 2^-1075 (underflow):
    fl(x op y) = (x op y)(1 + d) + e, |d| <= u, |e| <= h, e = 0 for + and -.
    A complex product obeys |fl(xy) - xy| <= sqrt(2) gamma_2 |x||y| +
    2 sqrt(2) h (Higham, Lemma 3.5), and a complex inner product of length
    m, taken as real ones of length 2m in any order and with or without
    fused multiply-adds, is off by sqrt(2) gamma_2m sum |x_i||y_i| plus
    2m sqrt(2) h.  Put c_ki = |w_ki|^2 + t_ki^2 and
    X_kij = sqrt(max(c_ki, 1) max(c_kj, 1)); then
    |F_kij| <= |w_ki||w_kj| + t_ki t_kj <= X_kij (Cauchy-Schwarz), and
    X_kij >= 1 turns every absolute underflow error below into a relative
    one.
    - w: two roundings (the difference, exact on underflow, and the
      division), |w^ - w| <= gamma_2 |w| + sqrt(2) h; t: one,
      |t^ - t| <= u t + h.  The inputs must be exact: a power-of-two
      shift that would round one of them gives v = inf instead.
    - F: the errors of w^ and t^ (4u and 2u to first order) and the
      product of length 2 (4 sqrt(2) u):
      |F^ - F| <= a X, a = gamma_10 + 12 h.
    - Product: P^_m = P^_(m-1) F^_m (1 + c_m) + e_m with
      |c_m| <= b = sqrt(2) gamma_2 and |e_m| <= 2 sqrt(2) h, so by
      induction |P^_m - P_m| <= ((1 + a)(1 + b)(1 + 3h))^m - 1) prod X.
    - Hermitian part -(P^ + P^^H) / 2: one rounding u and, for a
      subnormal half, h.
    (1 + a)(1 + b)(1 + 3h) <= 1 + 13u <= (1 + u)^13, so
    |E^_ij - E*_ij| <= gamma_(13(n+1)) sqrt(C_i C_j), C_i = prod_k max(c_ki, 1).
    C_i is evaluated from w^ and t^ in floating point (relative error
    below 10(n+2)u, with the errors of w^ and t^) and inflated by _SLACK,
    which covers that for any n below 10^12.  C_i can overflow to inf,
    and then so does v_i.
    """
    b, n = a.shape
    # One power of two per collection brings its largest input into
    # [1/2, 1): exact for every input that stays normal, and no square
    # below can overflow.  (Inputs all below 2^-1000 are subnormal; 2^1000
    # is as far as they need to go, so the largest input is taken as at
    # least 2^-1001.)
    top = np.maximum(_hypot(a), r).max(axis=1, initial=0.5**1001)
    shift = np.frexp(top)[1][:, None]
    unit = np.ldexp(1.0, -shift)
    scaled_a, scaled_r = a * unit, r * unit
    exact = (scaled_a / unit == a).all(axis=1) & (scaled_r / unit == r).all(axis=1)
    a, r = scaled_a, scaled_r
    pairs = np.empty((b, n, n, 2), dtype=complex)  # pairs[..., k, i, :] = (w_ki, t_ki)
    w = np.subtract(a[:, None, :], a[:, :, None], out=pairs[..., 0])  # a_i - a_k
    s = w.real * w.real
    s += w.imag * w.imag
    s -= (r * r)[:, :, None]  # g[..., k, i] = |a_i - a_k|^2 - R_k^2
    np.sqrt(np.abs(s, out=s), out=s)
    s[s == 0] = 1.0
    log_scale = np.log(s).sum(axis=1)
    log_scale += n * shift * math.log(2.0)
    w.real /= s
    w.imag /= s
    t = np.divide(r[:, :, None], s, out=s)
    pairs[..., 1] = t

    c = w.real * w.real
    c += w.imag * w.imag
    c += t * t
    bound = np.sqrt(np.maximum(c, 1.0, out=c).prod(axis=1) * (_gamma(13 * (n + 1)) * _SLACK))
    bound[~exact] = np.inf
    del w, s, t, c

    e = np.ones((b, n, n), dtype=complex)
    chunk = max(1, _CHUNK // (b * n * n))
    f = np.empty((chunk, b, n, n), dtype=complex)  # f[j] is laid out as e
    out = f.swapaxes(0, 1)
    sign = np.array([1.0, -1.0])
    for k in range(0, n, chunk):
        p = pairs[:, k : k + chunk]
        m = min(chunk, n - k)
        np.matmul(p * sign, p.conj().swapaxes(2, 3), out=out[:, :m])
        for j in range(m):
            e *= f[j]
    # the two triangles of the product need not be exact conjugates; the
    # Hermitian part is (conj(E^T) first: the sign of a NaN from an
    # overflowed entry follows the order of the operands)
    np.add(np.conjugate(e.swapaxes(1, 2), out=f[0]), e, out=e)
    e *= -0.5
    return e, log_scale, bound


def is_admissible(c: DiskCollection) -> bool:
    """True iff every radius is smaller than every distance to the other centers.

    Strict inequality R_k < |a_j - a_k| for all j != k; decided exactly
    for exact collections, on squared quantities of the cleared integers
    s (a - a_0) and s R of _cleared_collection (a translation and a
    positive scale keep every comparison).
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
    dist, r = _distances(c)
    return not (dist <= r[:, None]).any()


def overlap_measure(c: DiskCollection) -> float:
    """Overlap measure beta: the worst pairwise ratio (R_i + R_j)/|a_i - a_j|.

    beta <= 1 exactly when the open disks are pairwise disjoint (tangency
    allowed); for n congruent disks of radius r centered at the n-th roots
    of unity, beta = r/sin(pi/n).  A ratio beyond the double range reads
    inf, with no numpy warning.
    """
    if c.n < 2:
        raise ValueError("overlap measure needs at least two disks")
    dist, r = _distances(c)
    with np.errstate(over="ignore"):
        return float(((r[:, None] + r) / dist).max())


def _distances(c: DiskCollection) -> tuple[np.ndarray, np.ndarray]:
    """The matrix of center distances |a_i - a_j| of a collection, with
    the bits of Python's abs(a_i - a_j) and inf for i = j, and its radii,
    as floats.  It is symmetric, bit for bit.  Both arrays are read-only
    and made once per collection, on first use."""
    if c._distances is None:
        z = np.array(c.centers)
        dist = _hypot(z[:, None] - z)
        dist.flat[:: len(z) + 1] = np.inf
        r = np.array(c.radii)
        dist.flags.writeable = r.flags.writeable = False
        c._distances = dist, r
    return c._distances


def _add_up(a: float, b: float) -> float:
    """a + b rounded up: the rounded sum, moved one unit up when the exact
    error of the rounding (Knuth's TwoSum) is positive."""
    s = a + b
    z = s - a
    err = (a - (s - z)) + (b - z)
    return math.nextafter(s, math.inf) if err > 0 else s


def _norm_bound(v: np.ndarray) -> np.ndarray:
    """Bound on ||E - E*||_2 from the entrywise bound v of the last axis:
    ||v v^T||_2 = ||v||^2."""
    return _SLACK * (v * v).sum(axis=-1)


def _hypot(z: np.ndarray) -> np.ndarray:
    """|z| by libm's hypot, as Python's abs(complex) takes it, elementwise
    the same for every array shape; numpy's complex abs can round
    differently."""
    return np.hypot(z.real, z.imag)


def _decide_floating(m: HermitianMatrix, tol: float) -> PositivityReport:
    if m.is_exact:
        # each part of each entry rounds once, so ||fl(Q) - Q||_2 <=
        # ||fl(Q) - Q||_F <= u ||Q||_F + sqrt(2) n 2^-1075
        e = m.to_numpy()
        eps = _SLACK * (_U / (1 - _U) * float(np.linalg.norm(e)) + 2 * m.order * _ETA)
    else:
        e, eps = m._e, _norm_bound(m._bound)
    return _decide_stack(e[None], np.array([eps]), tol)[0]


def _cholesky_each(a: np.ndarray) -> list:
    """The Cholesky factor of every slice of a stack, None where it fails.
    A stack fails as a whole when one slice fails, so failures are found
    by halving."""
    try:
        return list(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return [None]
        half = len(a) // 2
        return _cholesky_each(a[:half]) + _cholesky_each(a[half:])


def _shift(d: list[float], eps: float, tol: float) -> float:
    """The shift delta of the floating decision on an E with diagonal d and
    error bound eps: the larger of tol * max |d_i| and the bound on every
    rounding error, 0 for a zero diagonal (see _decide_stack)."""
    n = len(d)
    top = max(map(abs, d))
    if not top:
        return 0.0
    g = _gamma(2 * n + 4)
    floor = g / (1 - g) * sum(x for x in d if x > 0) + _U * top + eps
    floor += n * (2 * n + 4) * _ETA * max(1.0, top)
    return max(tol * top, _SLACK * floor / (1 - _U))


def _decide_stack(e: np.ndarray, eps: np.ndarray, tol: float) -> list[PositivityReport]:
    """Certified decisions for a stack e of shape (b, n, n) of exactly
    Hermitian arrays E, each with a bound eps >= ||E - E*||_2 against the
    matrix E* whose definiteness is asked.  Slice t gets the report, bit
    for bit, that a stack of one gives it.

    Positive definite (Rump, BIT 46, 2006): let A = fl(E - delta I).  If
    LAPACK's Cholesky of A runs to the end, R^H R = A + dA with
    |dA| <= g |R^H||R|, g = gamma_(2n+4) (Demmel 1989; Higham, Thm 10.3,
    with the complex inner products of length n counted as real ones of
    length 2n, and a square root or division), hence
    ||dA||_2 <= g / (1 - g) trace(A) and A > -||dA||_2 I.  With
    T = sum_i max(E_ii, 0) >= trace(A), M = max_i |E_ii| and the rounding
    u (M + delta) of the shift,
    lambda_min(E*) > delta - g / (1 - g) T - u (M + delta) - eps - z,
    z = n (2n + 4) max(1, M) 2^-1074 for underflow inside the
    factorization (each entry of dA takes at most 2n + 4 underflow errors
    of 2^-1075, the one of a division scaled by r_ii <= sqrt(M)), so
    E* > 0 whenever delta >= (g / (1 - g) T + u M + eps + z) / (1 - u).
    delta is the larger of that bound and tol * M, so tol is the width of
    the band in which no verdict is given.  The certificate holds the
    pivots r_kk^2 of A, and tolerance_used holds delta.

    Not positive definite: a witness x != 0 with x^H E* x <= -delta ||x||^2.
    First x = e_i for the smallest diagonal entry, where x^H E* x <=
    E_ii + eps; else the eigenvector of the smallest eigenvalue of E, where
    the computed x^H E x is off by at most 3 gamma_(2n) |x|^T |E| |x| (a
    matrix-vector and a dot product, each a real one of length 2n, with
    the rounding of the first carried through the second) plus
    n (2n + 2) 2^-1074 for underflow (|x|^2 = 1 up to rounding).  Every
    bound is summed with upward rounding.  The certificate holds the upper bound
    of x^H E* x and the index of the largest |x_i|.  A zero diagonal,
    which Cholesky cannot pass, takes delta = 0.  A matrix with a witness
    fails Cholesky, so a stack looks for witnesses before it factors the
    rest; a stack of one factors first.

    Anything else, and any non-finite entry or bound, is indeterminate.
    """
    b, n, _ = e.shape
    finite = np.isfinite(e).all(axis=2)
    reports: list = [None] * b
    ok, deltas = [], []
    # the scalars of each slice in Python floats, the same for every b
    diags = e.diagonal(axis1=1, axis2=2).real.tolist()
    for t, (row_ok, d, eps_t) in enumerate(zip(finite.all(axis=1).tolist(), diags, eps.tolist())):
        if not (row_ok and math.isfinite(eps_t)):
            reports[t] = PositivityReport(
                Verdict.INDETERMINATE, tol, pivots=(), failing_index=int(finite[t].argmin())
            )
            continue
        ok.append(t)
        deltas.append(_shift(d, eps_t, tol))
    if len(ok) < b:
        e, eps, diags = e[ok], eps[ok], [diags[t] for t in ok]

    def factor(slices: list[int]) -> None:
        """Positive reports for the slices whose E - delta I passes Cholesky."""
        a = e[slices]
        a.reshape(len(slices), n * n)[:, :: n + 1].real -= np.array([deltas[t] for t in slices])[:, None]
        for t, r in zip(slices, _cholesky_each(a)):
            if r is not None:
                pivots = tuple((r.diagonal().real ** 2).tolist())
                reports[ok[t]] = PositivityReport(Verdict.POSITIVE_DEFINITE, deltas[t], pivots)

    if len(ok) == 1 and deltas[0]:
        factor([0])
        if reports[ok[0]] is not None:
            return reports
    # witnesses: a diagonal entry, else the eigenvector of the smallest eigenvalue
    witnesses = []  # (bound on x^H E* x, index, ||x||^2)
    for d, eps_t in zip(diags, eps.tolist()):
        i = min(range(n), key=d.__getitem__)
        witnesses.append((_add_up(d[i], eps_t), i, 1.0))
    rest = [t for t, (bound, _, _) in enumerate(witnesses) if bound > -deltas[t]]
    if rest:
        er = e if len(rest) == len(ok) else e[rest]
        x = np.ascontiguousarray(np.linalg.eigh(er)[1][:, :, 0])
        y = (er @ x[:, :, None])[:, :, 0]
        ax = _hypot(x)
        value = (x.real * y.real + x.imag * y.imag).sum(axis=1)
        size = (ax * (_hypot(er) @ ax[:, :, None])[:, :, 0]).sum(axis=1)
        norm2 = (ax * ax).sum(axis=1)
        rounding = 3 * _gamma(2 * n)
        for t, v, r, x2, i in zip(rest, value.tolist(), size.tolist(), norm2.tolist(), ax.argmax(axis=1).tolist()):
            error = _SLACK * (rounding * r + float(eps[t]) * x2) + n * (2 * n + 2) * _ETA
            witnesses[t] = (_add_up(v, error), i, x2)
    found = [bound <= -deltas[t] * x2 for t, (bound, _, x2) in enumerate(witnesses)]
    undecided = [t for t in range(len(ok)) if not found[t] and deltas[t]]
    if len(ok) > 1 and undecided:  # a stack of one has failed Cholesky already
        factor(undecided)
    for t, (bound, i, _) in enumerate(witnesses):
        if reports[ok[t]] is None:
            verdict = Verdict.NOT_POSITIVE_DEFINITE if found[t] else Verdict.INDETERMINATE
            reports[ok[t]] = PositivityReport(verdict, deltas[t], (bound,), failing_index=i)
    return reports


def _decide_disks(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[PositivityReport]]:
    """Floating build and decision of b collections of n disks, with the
    complex centers a and radii r of shape (b, n): stacks (E, l) and the
    reports.  Slice t holds the E and l that build_q_matrix gives
    collection t and the report that is_positive_definite gives that
    matrix at the default tolerance, bit for bit."""
    e, log_scale, bound = _equilibrated(a, r)
    return e, log_scale, _decide_stack(e, _norm_bound(bound), _TOL)


def _div(x: int, d: int) -> int:
    """x / d, which must be exact."""
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError("fraction-free elimination left a remainder")  # unrun: guard: Bareiss divisions are exact
    return q


def _decide_exact(m: HermitianMatrix) -> PositivityReport:
    """Leading minors of Q = U / den by one fraction-free (Bareiss) pass on
    the primitive Gaussian-integer matrix U, den > 0 rational.

    Step k divides a_ij <- p a_ij - conj(a_ki) a_kj exactly by the previous
    pivot; the pivot p = a_kk is leading minor k+1 of U, real as U stays
    Hermitian, so only the upper triangle is kept, and minor k+1 of Q is
    p / den^(k+1).  A zero minor, the next divisor, ends the pass and the
    certificate."""
    a = list(m._upper)
    top, bottom = m._den.numerator, m._den.denominator
    minors = []
    prev = 1
    for k, pivot_row in enumerate(a):
        p, p_im = pivot_row[0]
        if p_im:
            raise ArithmeticError("Hermitian leading minor must be real")  # unrun: guard: a Hermitian pivot is real
        minors.append(Fraction(p * bottom ** (k + 1), top ** (k + 1)))
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


def is_positive_definite(m: HermitianMatrix, mode: str = "floating", tol: float = _TOL) -> PositivityReport:
    """Decide positive definiteness of a Hermitian matrix.

    mode="floating": a proof on the stored array E of a floating matrix
    (for build_q_matrix, the equilibrated matrix, with its error bound), or
    on Q converted to floats for an exact one.  POSITIVE_DEFINITE only when
    LAPACK's Cholesky factorization of E - delta I succeeds, where delta is
    the larger of tol * (largest |diagonal entry|) and a bound on every
    rounding error; NOT_POSITIVE_DEFINITE only with a witness x whose
    x^H E x is proved at most -delta |x|^2; INDETERMINATE otherwise and for
    any non-finite entry.  So tol is the width of the band in which no
    verdict is given.  See _decide_stack for the proof.

    mode="exact": Sylvester's criterion on the leading principal minors from
    one fraction-free (Bareiss) elimination of the primitive integer matrix
    den * Q (see HermitianMatrix), which a zero minor ends; needs Gaussian
    rational entries.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if mode == "exact":
        if not m.is_exact:
            raise ValueError("exact mode requires a matrix with rational entries")
        return _decide_exact(m)
    if mode != "floating":
        raise ValueError(f"unknown mode {mode!r}")
    return _decide_floating(m, tol)


def max_uniform_scale(c: DiskCollection, tol: float = 1e-12) -> float:
    """The first scale at which scaling every radius loses positivity:
    sup{s : every scale s' <= s keeps the collection positive definite}.

    A larger scale can be positive again: B(-3, 5s), B(0, s), B(4, 5s) is
    positive definite at s = 1/2 and 7/8 and not at 3/4 or 1.  At the
    admissibility threshold s_adm = min_{j != k} |a_j - a_k| / R_k some
    Q_jj is 0, so the first loss is at most s_adm.  The bisection relies
    on positivity being monotone in s below s_adm.  That is a hypothesis,
    not a theorem: in 30,654 random collections (n = 3-8, each decided on
    400-600 scales) every scale at which one was positive definite again
    lay past s_adm.  The initial upper bracket is the pair bound
    min |a_i - a_j| / hypot(R_i, R_j) of the two-disk criterion, which is
    at most s_adm; growth by doubling guards against floating fuzz at
    that bound.  Returns the lower end of the final bisection bracket,
    the largest scale that the bisection counts as positive-definite
    (within tol * min(1, s) of the boundary s, so relative below 1, or one
    unit in the last place where that is wider), and inf for a single disk
    (always positive).

    The bisection's midpoints are mostly settled without a decision.
    Brent's method on the margin lambda_min(E) - delta of the decision
    narrows the bracket to about the final width, and decisions at its two
    ends prove one positive and the other not.  The bisection then runs
    from the same bracket, and only its midpoints between those two ends
    are decided: a midpoint below them is positive and one above is not,
    as monotonicity below s_adm implies, so the result is the double that
    deciding every midpoint gives.  Without a sign change of the margin, a
    non-finite E or a failed proof at an end, every midpoint is decided.

    Raises ValueError for a tol that is not positive and finite, and where
    the bracket leaves the double range (a scaled radius that is not finite
    or not positive as a double); RuntimeError where 200 doublings or
    halvings do not bracket the scale.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if c.n == 1:
        return math.inf
    latest = {}  # side -> (s, Q): the latest build at a scale on that side

    def build(s: float) -> HermitianMatrix:
        for t, m in latest.values():
            if t == s:
                return m
        # the scaled collection raises for a radius out of the double range
        return build_q_matrix(c.scaled(s))

    def bracket_end(s: float) -> bool:
        m = build(s)
        side = is_positive_definite(m).is_positive
        latest[side] = (s, m)
        return side

    def margin(s: float) -> float:
        """lambda_min(E) - delta at scale s, which is positive about where
        the decision is positive-definite; ArithmeticError for a non-finite
        E or bound."""
        m = build(s)
        eps = float(_norm_bound(m._bound))
        if not (np.isfinite(m._e).all() and math.isfinite(eps)):
            raise ArithmeticError("non-finite build")
        f = float(np.linalg.eigvalsh(m._e)[0]) - _shift(m._e.diagonal().real.tolist(), eps, _TOL)
        latest[f > 0] = (s, m)
        return f

    def proved_ends() -> tuple[float, float]:
        """Scales l < h, proved positive and not, around Brent's last
        bracket, or (lo, hi).  An end whose proof fails is moved out by the
        bracket's width once."""
        try:
            fl, fh = margin(lo), margin(hi)
            if not fl > 0 >= fh:
                return lo, hi
            l, h = _brent(margin, lo, hi, fl, fh, tol * min(1.0, hi))
        except ArithmeticError:
            return lo, hi
        w = h - l
        for _ in range(2):
            pl, ph = (is_positive_definite(build(x)).is_positive for x in (l, h))
            if pl and not ph and l < h:
                return l, h
            l, h = (l if pl else l - w), (h + w if ph else h)
        return lo, hi

    dist, r = _distances(c)
    with np.errstate(over="ignore"):  # an overflowed bound is inf, whose build raises ValueError
        hi = float((dist / np.hypot(r[:, None], r)).min())
    grow = 0
    while bracket_end(hi):
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise RuntimeError("failed to bracket the scale from above")
    lo = hi / 2.0
    shrink = 0
    while not bracket_end(lo):
        lo /= 2.0
        shrink += 1
        if shrink > 200:
            raise RuntimeError("failed to bracket the scale from below")
    l, h = proved_ends()
    while hi - lo > tol * min(1.0, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles wider apart than tol
        if mid <= l or (mid < h and is_positive_definite(build(mid)).is_positive):
            lo = mid
        else:
            hi = mid
    return lo


def _brent(f, a: float, b: float, fa: float, fb: float, xtol: float) -> tuple[float, float]:
    """A bracket (x, y) in [a, b] with f(x) > 0 >= f(y) and |x - y| at most
    xtol + 2^-50 max(|x|, |y|), given f(a) = fa > 0 >= fb = f(b), by Brent's
    method (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic or secant steps, and bisection wherever they
    would not shrink the bracket fast enough.  Each end of the last bracket
    is the latest point evaluated on its side."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 4 * _U * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0:
            return (b, c) if fb > 0 else (c, b)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2 * m * s, 1 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            if p > 0:
                q = -q
            p = abs(p)
            if 2 * p < min(3 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
