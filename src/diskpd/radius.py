"""Maximal radius of regular n-gon disk collections and its estimates.

rho_n is the supremum of common radii r for which n congruent disks of
radius r at the n-th roots of unity form a positive collection.  Closed
values: rho_2 = sqrt(2), rho_3 = 1.  For n >= 4, rho_n = sqrt(1 + mu_n)
where mu_n is the smallest root different from -1 of the degree-nu
central polynomial obtained by expanding z^nu F(-nu, nu-n; 1-n; -1/z),
nu = floor(n/2).  In x = 1 + 2 mu this is the smallest zero of
P_nu^(alpha,-1), alpha = n - 2 nu, other than -1; since
P_nu^(alpha,-1)(x) = c (1 + x) P_(nu-1)^(alpha,1)(x) (Szego, Orthogonal
Polynomials, 4.22), it is the smallest zero of P_(nu-1)^(alpha,1), which
lies in (-1, 1).  maximal_radius finds it by exact sign counts of that
polynomial's three-term recurrence (see _smallest_zero_side), refined to
a rational interval; no floating value decides rho_n.  The central
polynomial stays as an independent oracle for verify and the tests.

Also here: the two-sided sine bounds for rho_n, the overlap coefficient
beta_n = rho_n/sin(pi/n), and the first positive zero of the Bessel
function J_1, the limit of n*rho_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .orthopoly import RationalPolynomial, _refine_interval, _reversed_hypergeometric_polynomial

__all__ = [
    "RadiusResult",
    "central_polynomial",
    "maximal_radius",
    "rho_bounds",
    "bessel_j1",
    "bessel_j1_first_zero",
    "AsymptoticRow",
    "AsymptoticReport",
    "asymptotic_report",
]

@dataclass(frozen=True)
class RadiusResult:
    """Maximal radius rho_n with certificate and estimates.

    mu = rho^2 - 1 (exact up to the refinement precision), the isolating
    interval is a rational enclosure of mu, the bounds are the closed-form
    sine estimates (valid for n >= 3 below, n >= 4 above; +-inf sentinels
    otherwise), and beta = rho/sin(pi/n) > 1 is the overlap coefficient.
    """

    n: int
    rho: float
    mu: float
    isolating_interval: tuple[Fraction, Fraction]
    lower_bound: float
    upper_bound: float
    beta: float


@lru_cache(maxsize=None)
def central_polynomial(n: int) -> RationalPolynomial:
    """Exact expansion of z^nu F(-nu, nu-n; 1-n; -1/z), nu = floor(n/2).

    Proportional to the circulant eigenvalue polynomial T_{n,n-nu}.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    nu = n // 2
    return _reversed_hypergeometric_polynomial(-nu, nu - n, 1 - n, nu)


def _bounds_for(n: int) -> tuple[float, float]:
    lower = math.sin(math.pi / (2 * (n // 2))) if n >= 3 else -math.inf
    upper = math.sin(3 * math.pi / (4 * ((n + 1) // 2))) if n >= 4 else math.inf
    return lower, upper


def _jacobi_recurrence(m: int, alpha: int) -> list[tuple[int, int, int, int]]:
    """(A_k, B_k, C_k, E_k) for k < m, with p_k = P_k^(alpha,1) satisfying

        E_k p_(k+1)(x) = (A_k x + B_k) p_k(x) - C_k p_(k-1)(x),  p_(-1) = 0,  p_0 = 1

    (DLMF 18.9.2 with beta = 1; s = alpha + 1, t = 2k + s): A_k = (t+1)(t+2)t,
    B_k = (t+1)(alpha^2 - 1), C_k = 2(k+alpha)(k+1)(t+2), E_k = 2(k+1)(k+s+1)t.
    A_k and E_k are positive, and so is C_k for k >= 1."""
    s = alpha + 1
    return [
        (
            (t + 1) * (t + 2) * t,
            (t + 1) * (alpha * alpha - 1),
            2 * (k + alpha) * (k + 1) * (t + 2),
            2 * (k + 1) * (k + s + 1) * t,
        )
        for k in range(m)
        for t in [2 * k + s]
    ]


def _smallest_zero_side(recurrence, num: int, den: int) -> int:
    """Sign of r - mu at mu = num/den (den > 0), with x = 1 + 2 r the
    smallest zero of the p_m whose recurrence is given (_jacobi_recurrence,
    m >= 1): +1 below r, 0 at r, -1 above.

    The recurrence runs on q_k = c_k p_k with c_0 = 1 and
    c_(k+1) = E_k c_k den, so that at x = X/den, X = den + 2 num,

        q_(k+1) = (A_k X + B_k den) q_k - C_k E_(k-1) den^2 q_(k-1)

    is an integer.  Every c_k is positive, so q_k has the sign of p_k, and
    no gcd is ever taken.

    The count.  p_0, ..., p_m have positive leading coefficients, and the
    recurrence multiplies by x with A_k/E_k > 0 and subtracts with
    C_k/E_k > 0, so the number c(x) of sign changes of (p_0(x), ...,
    p_m(x)), zeros left out, is the number of zeros of p_m above x
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965, ch. 5).  A zero
    p_k(x) with k < m is skipped rightly: then p_(k+1)(x) = -(C_k/E_k)
    p_(k-1)(x), its neighbours have opposite signs (both nonzero, or all
    lower p would vanish, p_0 among them), and (p_(k-1), +-eps, p_(k+1))
    changes sign once whatever the sign of eps, as the count just beside
    x does.  A zero p_m(x) is an exact root: left out, the count is that
    of p_0, ..., p_(m-1), which is that just above x.  So c(x) = m means
    every zero is above x (mu < r); p_m(x) = 0 and c(x) = m - 1 mean x is
    the smallest zero (mu = r); anything else leaves a zero below x
    (mu > r).  The m + 1 signs change m times only if they alternate with
    none zero, and m - 1 times with p_m(x) = 0 only if p_0, ..., p_(m-1)
    alternate, so the count is read as (-1)^k q_k > 0 for k < m and the
    sign of (-1)^m q_m decides; the first k that breaks the pattern
    settles mu > r.
    """
    m = len(recurrence)
    x, dd = den + 2 * num, den * den
    prev, cur, e_prev = 0, 1, 0
    for k, (a, b, c, e) in enumerate(recurrence):
        prev, cur = cur, (a * x + b * den) * cur - c * e_prev * dd * prev
        e_prev = e
        if k + 1 < m and not (cur > 0 if k % 2 else cur < 0):
            return -1
    cur = -cur if m % 2 else cur
    return (cur > 0) - (cur < 0)


def _smallest_zero_guess(recurrence, n: int) -> float:
    """Float guess of mu_n: Newton's method on the float recurrence and its
    derivative, started at x = 2 rho^2 - 1 with rho = sin(j11/n), the
    Bessel-type limit of rho_n (j11 = 3.8317...).  Only a start for
    _refine_interval, which never trusts it."""
    rho = math.sin(3.8317059702075125 / n)
    x = 2 * rho * rho - 1
    for _ in range(10):
        p0, p1, d0, d1 = 0.0, 1.0, 0.0, 0.0
        for a, b, c, e in recurrence:
            ax = a * x + b
            p0, p1, d0, d1 = p1, (ax * p1 - c * p0) / e, d1, (ax * d1 + a * p1 - c * d0) / e
        if not d1:
            break  # unrun: guard: Newton's method cannot divide by a zero derivative
        step = p1 / d1
        x -= step
        if not abs(step) > 1e-16:
            break
    return (x - 1) / 2


@lru_cache(maxsize=None)
def maximal_radius(n: int, precision: float = 1e-13) -> RadiusResult:
    """Compute rho_n, exactly isolated and refined to `precision`.

    n = 2 and n = 3 are the closed cases sqrt(2) and 1, with the interval
    (mu, mu) for mu = 1 and 0.  For n >= 4, mu_n = (x - 1)/2 with x the
    smallest zero of P_(nu-1)^(alpha,1), nu = floor(n/2), alpha = n - 2 nu
    (module docstring).  Each bisection point mu of (-1, 0] is decided by
    the exact sign count of that polynomial's three-term recurrence at
    x = 1 + 2 mu (_smallest_zero_side): all nu - 1 zeros above x puts
    mu_n above mu, a zero at x with all others above it is mu_n itself,
    and anything else puts mu_n below.  The interval is refined to the
    requested width by the bisection that isolate_real_roots uses, started
    near a float Newton guess that never decides anything, so it is the
    interval plain bisection of (-1, 0] gives.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < precision < math.inf:
        raise ValueError("precision must be positive and finite")
    if n == 2:
        a = b = Fraction(1)
    elif n == 3:
        a = b = Fraction(0)
    else:
        recurrence = _jacobi_recurrence(n // 2 - 1, n % 2)
        a, b, _ = _refine_interval(
            partial(_smallest_zero_side, recurrence),
            1,
            Fraction(-1),
            Fraction(0),
            Fraction(precision),
            _smallest_zero_guess(recurrence, n),
        )
    mu_exact = (a + b) / 2
    rho = math.sqrt(float(1 + mu_exact))
    lower, upper = _bounds_for(n)
    return RadiusResult(
        n=n,
        rho=rho,
        mu=float(mu_exact),
        isolating_interval=(a, b),
        lower_bound=lower,
        upper_bound=upper,
        beta=rho / math.sin(math.pi / n),
    )


def rho_bounds(n: int) -> tuple[float, float]:
    """Closed-form estimates sin(pi/(2*floor(n/2))) <= rho_n <= sin(3pi/(4*floor((n+1)/2))).

    The lower bound needs n >= 3 (equality only at n = 3); the upper bound
    needs n >= 4 (equality only at n = 5) and is reported as +inf for n = 3.
    """
    if n < 3:
        raise ValueError("bounds need n >= 3")
    return _bounds_for(n)


def bessel_j1(x: float) -> float:
    """J_1 by its power series, accurate to about 1e-15 absolute on
    [-5, 5].  Beyond that the float series cancels (it gives 7e7 at
    x = 60), so ValueError for NaN or |x| > 5."""
    if not abs(x) <= 5.0:
        raise ValueError(f"bessel_j1 is accurate for |x| <= 5 only, got {x!r}")
    half = x / 2.0
    term = half
    total = term
    m = 0
    while True:
        m += 1
        term *= -(half * half) / (m * (m + 1))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)) or m > 80:
            return total


def bessel_j1_first_zero(precision: float = 1e-13) -> float:
    """First positive zero of J_1 (3.831706...), by sign bisection on [3, 4.5]."""
    if not 0 < precision < math.inf:
        raise ValueError("precision must be positive and finite")
    lo, hi = 3.0, 4.5
    flo = bessel_j1(lo)
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        fmid = bessel_j1(mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class AsymptoticRow:
    n: int
    rho: float
    n_rho: float
    beta: float


@dataclass(frozen=True)
class AsymptoticReport:
    """n*rho_n and beta_n rows next to their limits j_{1,1} and j_{1,1}/pi."""

    rows: tuple[AsymptoticRow, ...]
    bessel_zero: float
    beta_limit: float


def asymptotic_report(n_list, precision: float = 1e-13) -> AsymptoticReport:
    rows = []
    for n in n_list:
        res = maximal_radius(n, precision)
        rows.append(AsymptoticRow(n=n, rho=res.rho, n_rho=n * res.rho, beta=res.beta))
    j11 = bessel_j1_first_zero()
    return AsymptoticReport(rows=tuple(rows), bessel_zero=j11, beta_limit=j11 / math.pi)
