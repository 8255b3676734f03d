"""Fast path for n congruent disks centered at the n-th roots of unity.

After the substitution z = r^2 - 1 the negated Q matrix of such a
collection, A(z) = -Q(sqrt(1+z)), is circulant, so its spectrum consists
of the values T_{n,1}(z), ..., T_{n,n}(z) of n integer-coefficient
polynomials.  This module builds the T polynomials exactly, evaluates the
circulant spectrum, decides positivity from the exact signs, and checks
the closed-form factorization of det Q into Jacobi polynomial values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import DiskCollection, HermitianMatrix, build_q_matrix
from .orthopoly import RationalPolynomial, jacobi_polynomial, _reversed_hypergeometric_polynomial

__all__ = [
    "regular_collection",
    "t_polynomial",
    "a_matrix",
    "circulant_spectrum",
    "positivity_by_t",
    "det_factorization_check",
    "DetFactorizationResult",
]

_CIRCULANT_RTOL = 1e-10


def _roots_of_unity(n: int) -> list[complex]:
    """exp(2 pi i k / n) for k = 0..n-1, with exact conjugate symmetry."""
    table = [1 + 0j] * n
    for k in range(1, n // 2 + 1):
        w = cmath.exp(2j * math.pi * k / n)
        table[k] = w
        table[n - k] = w.conjugate()
    return table


def regular_collection(n: int, r: float) -> DiskCollection:
    """n congruent disks of radius r centered at the n-th roots of unity."""
    if n < 1:
        raise ValueError("need n >= 1")
    return DiskCollection(_roots_of_unity(n), [float(r)] * n)


@lru_cache(maxsize=None)
def t_polynomial(n: int, m: int) -> RationalPolynomial:
    """Circulant eigenvalue polynomial T_{n,m} in z = r^2 - 1, exact.

    For m < n this is n * C(n,m) * (-z)^(n-m) * F(-m, m-n; 1-n; -1/z),
    expanded as a polynomial (the pointwise form is singular at z = 0, the
    polynomial is not); for m = n it is n*((-z)^n - 1).  All coefficients
    are integers.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in 1..{n}, got {m}")
    if m == n:
        coeffs = [Fraction(-n)] + [Fraction(0)] * (n - 1) + [Fraction((-1) ** n * n)]
        return RationalPolynomial(coeffs)
    lead = n * math.comb(n, m) * (-1) ** (n - m)
    poly = lead * _reversed_hypergeometric_polynomial(-m, m - n, 1 - n, n - m)
    assert all(c.denominator == 1 for c in poly.coefficients)
    assert poly.degree == n - m
    return poly


def a_matrix(n: int, z: float) -> HermitianMatrix:
    """The matrix A(z) with entries prod_k (w^(i-j) - w^(k-j) - w^(i-k) - z).

    Built by one array product over floating roots of unity w = exp(2 pi
    i/n), with every entry of the upper triangle computed on its own from
    its index formula; the lower triangle is its conjugate and the diagonal
    is real, so A is exactly Hermitian.  The result equals -Q(sqrt(1+z))
    for the regular collection and is circulant; since no entry is copied
    from another row, asserting that structure to 1e-10 relative guards
    the index formula.  An entry that is NaN or overflows raises
    ValueError naming the first one, with no numpy warning.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if z < -1:
        raise ValueError("need z >= -1")
    index = np.arange(n)
    diff = np.subtract.outer(index, index)  # i - j
    shift = np.array(_roots_of_unity(n))[diff % n]  # w^(i-j)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.prod(shift[:, :, None] - shift.T[None, :, :] - shift[:, None, :] - float(z), axis=2)
        a[diff > 0] = a.T[diff > 0].conj()
        a.imag[diff == 0] = 0.0
        # row i against row i-1 shifted right by one
        bad = np.abs(a[1:] - a[:-1, index - 1]) > _CIRCULANT_RTOL * max(np.abs(a).max(), 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ArithmeticError(f"matrix is not circulant at row {i + 1}, column {j}")
    nonfinite = ~np.isfinite(a)
    if nonfinite.any():
        i, j = np.argwhere(nonfinite)[0]
        raise ValueError(f"matrix entry ({i},{j}) is {'NaN' if np.isnan(a[i, j]) else 'infinite'}")
    return HermitianMatrix(a.tolist())


def circulant_spectrum(n: int, z) -> list[float]:
    """[T_{n,1}(z), ..., T_{n,n}(z)], the eigenvalues of A(z).

    Each value is the exact polynomial's value at z rounded once to a
    double: RationalPolynomial evaluates exactly at an int, a Fraction or
    the dyadic rational of a finite float, so no cancellation enters.  A
    float value past the double range is +-inf; a float z that is not
    finite raises ValueError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return [float(t_polynomial(n, m)(z)) for m in range(1, n + 1)]


def positivity_by_t(n: int, r: float) -> bool:
    """True iff every T_{n,m}(r^2 - 1) is strictly negative.

    Exact: r is converted to its exact binary rational value, each
    polynomial is evaluated in rational arithmetic, and any zero value
    (the positivity boundary) yields False.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not r > 0:
        raise ValueError("need r > 0")
    z = Fraction(r) ** 2 - 1
    return all(t_polynomial(n, m)(z) < 0 for m in range(1, n + 1))


def _log_abs_fraction(q: Fraction) -> float:
    """log|q| for values far outside the double range: math.log takes ints
    of any size."""
    return math.log(abs(q.numerator)) - math.log(q.denominator)


@dataclass(frozen=True)
class DetFactorizationResult:
    """Comparison of det Q (LU) against its closed-form factorization.

    The closed form is c_n [1 - (1-r^2)^n] prod_{m<n} P_m^{(n-2m,-1)}(2r^2-1)
    with c_n = (-1)^((n-1)(n-2)/2) n^(2n-1)/(n-1)!.  Magnitudes are
    compared in the log domain (c_n overflows doubles for n around 20).
    boundary=True marks an exact zero of the closed form, where no ratio
    is meaningful.
    """

    n: int
    r: float
    boundary: bool
    log_abs_lu: float | None = None
    log_abs_formula: float | None = None
    sign_lu: int | None = None
    sign_formula: int | None = None

    @property
    def log_relative_error(self) -> float | None:
        if self.boundary:
            return None
        return abs(self.log_abs_lu - self.log_abs_formula) / max(1.0, abs(self.log_abs_formula))

    @property
    def signs_agree(self) -> bool | None:
        if self.boundary:
            return None
        return self.sign_lu == self.sign_formula


def det_factorization_check(n: int, r: float) -> DetFactorizationResult:
    """Check det Q of the regular collection against the closed-form product."""
    if not 2 <= n <= 64:
        raise ValueError("supported range is 2 <= n <= 64")
    if not r > 0:
        raise ValueError("need r > 0")
    rq = Fraction(r)
    x = 2 * rq * rq - 1
    front = 1 - (1 - rq * rq) ** n
    factors = [jacobi_polynomial(m, n - 2 * m, -1)(x) for m in range(1, n)]
    if front == 0 or any(v == 0 for v in factors):
        return DetFactorizationResult(n=n, r=float(r), boundary=True)

    sign_c = -1 if ((n - 1) * (n - 2) // 2) % 2 else 1
    log_c = (2 * n - 1) * math.log(n) - math.lgamma(n)
    log_formula = log_c + _log_abs_fraction(front) + sum(_log_abs_fraction(v) for v in factors)
    sign_formula = sign_c * (1 if front > 0 else -1)
    for v in factors:
        sign_formula *= 1 if v > 0 else -1

    q = build_q_matrix(regular_collection(n, float(r)))
    qn = q.to_numpy()
    spectrum = np.abs(np.linalg.eigvalsh(qn))
    sgn, log_lu = np.linalg.slogdet(qn)
    if spectrum.min() <= 1e-8 * spectrum.max() or sgn == 0:
        # det vanishes within what double-precision LU can resolve
        return DetFactorizationResult(n=n, r=float(r), boundary=True)
    if abs(sgn.imag) > 1e-3:
        raise ArithmeticError("determinant of a Hermitian matrix must be real")
    sign_lu = 1 if sgn.real > 0 else -1

    return DetFactorizationResult(
        n=n,
        r=float(r),
        boundary=False,
        log_abs_lu=float(log_lu),
        log_abs_formula=log_formula,
        sign_lu=sign_lu,
        sign_formula=sign_formula,
    )
