"""Reference answers that do not run the code paths the benchmark times.

Three oracles, each exact or carrying an a priori error bound:

* ``TSigns`` decides positivity of the regular n-gon collection of radius r
  from the signs of the circulant eigenvalue polynomials T_{n,m}(r^2 - 1),
  evaluated in integer arithmetic.  The coefficients are generated here from
  the terminating 2F1 series, not taken from the package.
* ``leading_minors`` runs one fraction-free Bareiss pass over the Gaussian
  integer Q matrix of a collection whose centers and radii are integers.
* ``equilibrated_verdict`` builds the diagonally scaled Q, whose entries are
  products of factors f_ijk / sqrt(|f_iik f_jjk|), in float64 from integer
  inputs small enough that every factor f_ijk is exact.  Each entry then has
  a relative error below (9n + 20)u, so Weyl's inequality turns the computed
  smallest eigenvalue into a proof whenever it clears the error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

U = 2.0 ** -53

#: Integer coordinates must stay below this so that every factor is exact.
EXACT_FACTOR_LIMIT = 2 ** 24
#: Collections up to this size are also decided by exact minors.
EXACT_CHECK_MAX_N = 12


class HarnessError(Exception):
    """The benchmark itself is inconsistent (not a program failure)."""


def t_coefficients(n: int, m: int) -> list[int]:
    """Integer coefficients of T_{n,m}(z), index = degree.

    T_{n,n} = n((-z)^n - 1); for m < n the coefficient of z^(n-m-k) is
    n C(n,m) (-1)^(n-m+k) (-m)_k (m-n)_k / ((1-n)_k k!).
    """
    if m == n:
        return [-n] + [0] * (n - 1) + [(-1) ** n * n]
    coeffs = [0] * (n - m + 1)
    term = Fraction(n * math.comb(n, m))
    for k in range(min(m, n - m) + 1):
        if k:
            term *= Fraction((-m + k - 1) * (m - n + k - 1), k * (k - n))
        value = term * (-1) ** (n - m + k)
        if value.denominator != 1:
            raise HarnessError(f"T_{{{n},{m}}} has a non-integer coefficient")
        coeffs[n - m - k] = int(value)
    return coeffs


def sign_at(coeffs: list[int], z: Fraction) -> int:
    """Sign of the polynomial at a rational point, by homogeneous Horner."""
    p, q = z.numerator, z.denominator
    acc = coeffs[-1]
    qpow = 1
    for c in reversed(coeffs[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return (acc > 0) - (acc < 0)


class TSigns:
    """Positivity of regular n-gon collections from exact T_{n,m} signs."""

    def __init__(self):
        self._coeffs: dict[int, list[list[int]]] = {}

    def polys(self, n: int) -> list[list[int]]:
        if n not in self._coeffs:
            self._coeffs[n] = [t_coefficients(n, m) for m in range(1, n + 1)]
        return self._coeffs[n]

    def positive(self, n: int, r: Fraction) -> bool:
        """True iff every T_{n,m}(r^2 - 1) < 0 (strict)."""
        z = r * r - 1
        return all(sign_at(cs, z) < 0 for cs in self.polys(n))

    def central_sign(self, n: int, z: Fraction) -> int:
        """Sign of T_{n, n - n//2}(z), the polynomial whose root gives rho_n."""
        return sign_at(self.polys(n)[n - n // 2 - 1], z)

    def brackets_rho(self, n: int, rho: float, eps: float) -> bool:
        """rho (1 - eps) is positive and rho (1 + eps) is past the boundary."""
        below = Fraction(rho) * (1 - Fraction(eps))
        above = Fraction(rho) * (1 + Fraction(eps))
        return self.positive(n, below) and self.central_sign(n, above * above - 1) >= 0


def exact_q(xs, ys, rs) -> list[list[tuple[int, int]]]:
    """Q of integer centers (xs + i ys) and radii rs, as Gaussian integer pairs."""
    n = len(xs)
    r2 = [r * r for r in rs]
    q = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re, im = 1, 0
            for k in range(n):
                ar, ai = xs[i] - xs[k], ys[i] - ys[k]
                br, bi = xs[j] - xs[k], -(ys[j] - ys[k])
                fr = ar * br - ai * bi - r2[k]
                fi = ar * bi + ai * br
                re, im = re * fr - im * fi, re * fi + im * fr
            q[i][j] = (-re, -im)
            q[j][i] = (-re, im)
    return q


def leading_minors(q) -> list[int]:
    """Leading principal minors of a Hermitian Gaussian integer matrix.

    One Bareiss pass without pivoting: after step k the (k, k) entry is the
    (k+1)-th leading minor.  Stops after a zero minor, where the pass cannot
    continue; every minor it returns is exact.
    """
    n = len(q)
    a = [list(row) for row in q]
    prev = 1
    minors = []
    for k in range(n):
        piv_re, piv_im = a[k][k]
        if piv_im != 0:
            raise HarnessError("Hermitian leading minor with an imaginary part")
        minors.append(piv_re)
        if piv_re == 0:
            break
        for i in range(k + 1, n):
            ir, ii = a[i][k]
            for j in range(k + 1, n):
                jr, ji = a[k][j]
                xr, xi = a[i][j]
                nr = piv_re * xr - (ir * jr - ii * ji)
                ni = piv_re * xi - (ir * ji + ii * jr)
                if nr % prev or ni % prev:
                    raise HarnessError("Bareiss division is not exact")
                a[i][j] = (nr // prev, ni // prev)
        prev = piv_re
    return minors


def equilibrated_verdict(xs, ys, rs) -> bool | None:
    """Positivity of integer centers and radii by a bounded float64 run.

    None when the smallest eigenvalue of the equilibrated matrix lies inside
    the error bound.
    """
    values = list(xs) + list(ys) + list(rs)
    if any(abs(v) >= EXACT_FACTOR_LIMIT // 2 for v in values):
        raise HarnessError("integer inputs too large for exact float factors")
    a = np.array(xs, dtype=float) + 1j * np.array(ys, dtype=float)
    r2 = np.array(rs, dtype=float) ** 2
    n = a.size
    e = -np.ones((n, n), dtype=complex)
    for k in range(n):
        d = a - a[k]
        g = (d * d.conj()).real - r2[k]
        if np.any(g == 0):
            return None
        s = np.sqrt(np.abs(g))
        e *= (np.outer(d, d.conj()) - r2[k]) / np.outer(s, s)
    if not np.all(np.isfinite(e)):
        return None
    lam_min = float(np.linalg.eigvalsh(e)[0])
    bound = (9 * n + n * n + 20) * U * float(np.linalg.norm(e))
    if abs(lam_min) <= bound:
        return None
    return lam_min > 0


def integer_verdict(xs, ys, rs) -> bool:
    """Positivity of an integer collection; raises if it cannot be proven.

    Small collections are also decided by exact minors, and the two
    oracles must agree.
    """
    verdict = equilibrated_verdict(xs, ys, rs)
    if len(xs) <= EXACT_CHECK_MAX_N:
        minors = leading_minors(exact_q(xs, ys, rs))
        exact = len(minors) == len(xs) and all(m > 0 for m in minors)
        if verdict is not None and verdict != exact:
            raise HarnessError("equilibrated and exact oracles disagree")
        return exact
    if verdict is None:
        raise HarnessError("collection is too close to the boundary to decide")
    return verdict
