"""Maximal radius of regular n-gon disk collections and its estimates.

rho_n is the supremum of common radii r for which n congruent disks of
radius r at the n-th roots of unity form a positive collection.  Closed
values: rho_2 = sqrt(2), rho_3 = 1.  For n >= 4, rho_n = sqrt(1 + mu_n)
where mu_n is the smallest root different from -1 of the degree-nu
central polynomial obtained by expanding z^nu F(-nu, nu-n; 1-n; -1/z),
nu = floor(n/2).  It is the smallest root in the half-open range (-1, 0],
which leaves -1 out; it is isolated and refined exactly, and no floating
fallback touches rho_n itself.

Also here: the two-sided sine bounds for rho_n, the overlap coefficient
beta_n = rho_n/sin(pi/n), and the first positive zero of the Bessel
function J_1, the limit of n*rho_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .orthopoly import RationalPolynomial, _reversed_hypergeometric_polynomial, _smallest_root

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

#: First positive zero of J_1 and the induced overlap limit j11/pi are
#: computed on demand; see bessel_j1_first_zero.


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


@lru_cache(maxsize=None)
def maximal_radius(n: int, precision: float = 1e-13) -> RadiusResult:
    """Compute rho_n, exactly isolated and refined to `precision`.

    n = 2 and n = 3 are the closed cases sqrt(2) and 1, with the interval
    (mu, mu) for mu = 1 and 0.  For n >= 4 the central polynomial is built
    exactly, and its smallest root in (-1, 0] (the known root -1 lies
    outside) is isolated by bisection on Sturm counts and refined to the
    requested interval width; the other roots are left alone.  Raises if no such root exists (the structure of the
    central polynomial guarantees one).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if precision <= 0:
        raise ValueError("precision must be positive")
    if n == 2:
        interval = (Fraction(1), Fraction(1))
    elif n == 3:
        interval = (Fraction(0), Fraction(0))
    else:
        interval = _smallest_root(central_polynomial(n), Fraction(-1), Fraction(0), Fraction(precision))
    if interval is None:
        raise ArithmeticError(
            f"internal inconsistency: central polynomial for n={n} has no root in (-1, 0]"
        )
    a, b = interval
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
    """J_1 by its power series; accurate to ~1e-15 absolute on [0, 5]."""
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
    if precision <= 0:
        raise ValueError("precision must be positive")
    lo, hi = 3.0, 4.5
    flo = bessel_j1(lo)
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        fmid = bessel_j1(mid)
        if fmid == 0.0:
            return mid
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
