"""Exact polynomial engine over the rationals.

Dense big-rational polynomials with guaranteed real-root isolation
(one Sturm chain of the square-free part, multiplicities from Yun's
factors, one left-first bisection descent for every root query; a
generalized chain gives the Cauchy index for interlacing), terminating Gauss
hypergeometric series, Jacobi polynomials with generalized parameters,
and the V-polynomial family that carries the zero structure of the
circulant eigenvalue polynomials.

Everything here is exact except the final floating refinement of
isolated roots.  All objects are immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "RationalPolynomial",
    "RootIsolation",
    "IdentityCheck",
    "ZeroStructureReport",
    "pochhammer",
    "hypergeometric_polynomial",
    "jacobi_polynomial",
    "v_polynomial",
    "isolate_real_roots",
    "squarefree_decomposition",
    "v_identity_suite",
    "zero_structure_check",
]


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a(a+1)...(a+k-1), with (a)_0 = 1."""
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients (index = degree).

    Canonical form strips trailing zero coefficients; the zero polynomial
    has an empty coefficient tuple and degree -1.  Instances are immutable:
    all arithmetic returns new objects, and exact operations (including
    evaluation at int/Fraction points) never round.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "RationalPolynomial":
        return cls([0] * degree + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == (() if other == 0 else (Fraction(other),))
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"RationalPolynomial({[str(c) for c in self._coeffs]})"

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial([-c for c in self._coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            a, b = self._coeffs, other._coeffs
            if not a or not b:
                return RationalPolynomial()
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return RationalPolynomial(out)
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = RationalPolynomial([1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([other])
        return NotImplemented

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 * x
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """Exact polynomial composition self(inner(x))."""
        acc = RationalPolynomial()
        for c in reversed(self._coeffs):
            acc = acc * inner + RationalPolynomial([c])
        return acc

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        div = other._coeffs
        dd = len(div) - 1
        lead = div[-1]
        quo = [Fraction(0)] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            factor = rem[-1] / lead
            shift = len(rem) - 1 - dd
            quo[shift] = factor
            for i, c in enumerate(div):
                rem[shift + i] -= factor * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPolynomial(quo), RationalPolynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "RationalPolynomial":
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ValueError("division is not exact")
        return quo

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        lead = self._coeffs[-1]
        return RationalPolynomial([c / lead for c in self._coeffs])

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Monic greatest common divisor (via integer remainder sequences)."""
        other = self._coerce(other)
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        a = _poly_to_int(self)
        b = _poly_to_int(other)
        while b:
            a, b = b, _int_primitive(_int_pseudo_rem(a, b)[0])
        return RationalPolynomial(a).monic()


_X = RationalPolynomial((0, 1))
_X_MINUS_1 = RationalPolynomial((-1, 1))


# ---------------------------------------------------------------------------
# Integer-coefficient kernels for gcd and Sturm sequences.  Every chain
# element is kept primitive; multiplying a chain element by a positive
# constant does not change sign variation counts, and pseudo-division sign
# flips are tracked explicitly.
# ---------------------------------------------------------------------------


def _int_primitive(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return cs
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            return cs
    return [c // g for c in cs]


def _int_deriv(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _poly_to_int(p: RationalPolynomial) -> list[int]:
    """Primitive integer coefficient list with the same sign as p."""
    if p.is_zero:
        return []
    denom = math.lcm(*(c.denominator for c in p.coefficients))
    return _int_primitive([int(c * denom) for c in p.coefficients])


def _int_pseudo_rem(f: list[int], g: list[int]) -> tuple[list[int], bool]:
    """Pseudo-remainder of f by g over the integers.

    Returns (r, flipped) where r equals a constant multiple of the true
    remainder of f by g, and flipped is True when that constant is negative.
    """
    lg = g[-1]
    r = list(f)
    flipped = False
    while r and len(r) >= len(g):
        lr = r[-1]
        shift = len(r) - len(g)
        r = [lg * c for c in r]
        if lg < 0:
            flipped = not flipped
        for i, gc in enumerate(g):
            r[shift + i] -= lr * gc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r, flipped


def _sturm_chain(cs: list[int], second: list[int] | None = None) -> list[list[int]]:
    """Generalized Sturm chain p0 = cs, p1 = second (default cs'), and
    p_{k+1} = -rem(p_{k-1}, p_k) up to positive factors, ending at the last
    nonzero remainder.

    For a, b not roots of cs, _variations_at(chain, a) - _variations_at(chain, b)
    is the Cauchy index of second/cs over (a, b): the poles of odd order
    where the quotient jumps from -inf to +inf, minus those where it jumps
    back.  With the default start on a square-free cs it counts the roots
    of cs in (a, b], also when a or b is one.
    """
    if len(cs) <= 1:
        return [cs]
    chain = [cs, _int_primitive(_int_deriv(cs)) if second is None else second]
    while True:
        rem, flipped = _int_pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        if flipped:
            rem = [-c for c in rem]
        chain.append(_int_primitive([-c for c in rem]))
    return chain


def _sign_at_int(cs: list[int], x: Fraction) -> int:
    """Sign of the integer polynomial at a rational point (exact)."""
    if not cs:
        return 0
    num, den = x.numerator, x.denominator
    val = cs[-1]
    dpow = 1
    for c in reversed(cs[:-1]):
        dpow *= den
        val = val * num + c * dpow
    return (val > 0) - (val < 0)


def _variations_at(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at_int(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(p: RationalPolynomial) -> Fraction:
    lead = abs(p.leading_coefficient)
    return 1 + max(abs(c) for c in p.coefficients) / lead


def squarefree_decomposition(p: RationalPolynomial) -> list[tuple[RationalPolynomial, int]]:
    """Yun decomposition: [(monic factor, multiplicity)], pairwise coprime.

    The product of factor**multiplicity equals p up to a nonzero constant.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.degree == 0:
        return []
    f = p.monic()
    df = f.derivative()
    a = f.gcd(df)
    if a.degree == 0:
        return [(f, 1)]
    b = f.exact_div(a)
    d = df.exact_div(a) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        a = b.gcd(d)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return out


@dataclass(frozen=True)
class RootIsolation:
    """Isolated real roots of a polynomial on a half-open range (lo, hi].

    intervals: sorted tuples (lo, hi, multiplicity); each half-open
    interval (lo, hi] contains exactly one distinct root of the queried
    polynomial, with the stated multiplicity.  refined: floating
    approximations (interval midpoints, or the exact root when a bisection
    point hit it) in the same order.
    """

    intervals: tuple[tuple[Fraction, Fraction, int], ...]
    refined: tuple[float, ...]

    @property
    def count_with_multiplicity(self) -> int:
        return sum(m for _, _, m in self.intervals)

    @property
    def count_distinct(self) -> int:
        return len(self.intervals)


def _sign_right_of(cs: list[int], a: Fraction) -> int:
    """Sign of a square-free cs just right of a: at a root it is simple,
    so the derivative has that sign."""
    return _sign_at_int(cs, a) or _sign_at_int(_int_deriv(cs), a)


def _refine_interval(cs, a, b, width: Fraction):
    """Shrink (a, b], holding exactly one root of the square-free cs, to <= width.

    Returns (lo, hi, root) where root is the exact rational root when b or
    a bisection point is it, else None.
    """
    if _sign_at_int(cs, b) == 0:
        return max(a, b - width / 2), b, b
    sa = _sign_right_of(cs, a)
    while b - a > width:
        mid = (a + b) / 2
        sm = _sign_at_int(cs, mid)
        if sm == 0:
            return max(a, mid - width / 2), mid, mid
        if sm == sa:
            a = mid
        else:
            b = mid
    return a, b, None


def _isolate_on(p: RationalPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Yield (a, b, root, multiplicity) for each distinct root of p in
    (lo, hi], left to right, with b - a <= width and root as in
    _refine_interval.

    One Sturm chain of the square-free part (the product of Yun's factors)
    steers a lazy, left-first descent of the dyadic bisection tree of
    (lo, hi]: a node is split while it holds two or more distinct roots,
    so the intervals are disjoint by construction.  The one Yun factor
    whose sign differs just right of a and at b has the root; it gives the
    multiplicity and refines the interval.
    """
    yun = squarefree_decomposition(p)
    factors = [(_poly_to_int(f), m) for f, m in yun]
    square_free = math.prod((f for f, _ in yun), start=RationalPolynomial([1]))
    chain = _sturm_chain(_poly_to_int(square_free))
    stack = [(lo, _variations_at(chain, lo), hi, _variations_at(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb > 1:
            mid = (a + b) / 2
            vm = _variations_at(chain, mid)
            stack += [(mid, vm, b, vb), (a, va, mid, vm)]
        elif va - vb == 1:
            cs, mult = next(
                (cs, m) for cs, m in factors if _sign_at_int(cs, b) != _sign_right_of(cs, a)
            )
            yield *_refine_interval(cs, a, b, width), mult


def _smallest_root(p: RationalPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Interval (a, b] of width <= width around the smallest root of p in
    (lo, hi], or None when there is none: the first that _isolate_on
    yields, so only that root is refined."""
    return next(((a, b) for a, b, _, _ in _isolate_on(p, lo, hi, width)), None)


def isolate_real_roots(p: RationalPolynomial, bounds=None, precision: float = 1e-9) -> RootIsolation:
    """Isolate all real roots of p in the half-open range (lo, hi].

    bounds is a pair (lo, hi); either end may be None for an automatic
    (Cauchy) root bound.  Intervals are pairwise disjoint and refined to at
    most `precision` width; one Sturm chain of the square-free part isolates
    them, and multiplicities come from Yun's factors (see _isolate_on).
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if precision <= 0:
        raise ValueError("precision must be positive")
    bound = _cauchy_bound(p) if p.degree > 0 else Fraction(1)
    lo, hi = (None, None) if bounds is None else bounds
    lo = -bound if lo is None else Fraction(lo)
    hi = bound if hi is None else Fraction(hi)
    if not lo < hi:
        raise ValueError("empty range: need lo < hi")

    found = list(_isolate_on(p, lo, hi, Fraction(precision)))
    intervals = tuple((a, b, mult) for a, b, _, mult in found)
    refined = tuple(
        float(root) if root is not None else float((a + b) / 2) for a, b, root, _ in found
    )
    return RootIsolation(intervals=intervals, refined=refined)


# ---------------------------------------------------------------------------
# Terminating hypergeometric series and the polynomial families built on it.
# ---------------------------------------------------------------------------


def hypergeometric_polynomial(a: int, b, c) -> RationalPolynomial:
    """Terminating Gauss series F(a, b; c; x) as an exact polynomial.

    Requires a to be a nonpositive integer, so the series stops at k = -a
    (earlier, at k = -b, when b is a nonpositive integer exceeding a).
    Raises if a denominator Pochhammer factor (c)_k vanishes before the
    series terminates.
    """
    if not isinstance(a, int) or a > 0:
        raise ValueError("first parameter must be a nonpositive integer")
    b = Fraction(b)
    c = Fraction(c)
    stop = -a
    if _is_nonpositive_integer(b) and -b < stop:
        stop = int(-b)
    if _is_nonpositive_integer(c) and 1 - c <= stop:
        raise ValueError(
            f"Pochhammer denominator (c)_k vanishes at k={1 - int(c)} "
            f"before the series terminates at k={stop}"
        )
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for k in range(1, stop + 1):
        term *= (a + k - 1) * (b + k - 1) / (Fraction(k) * (c + k - 1))
        coeffs.append(term)
    return RationalPolynomial(coeffs)


def _reversed_hypergeometric_polynomial(a: int, b, c, degree: int) -> RationalPolynomial:
    """z^degree * F(a, b; c; -1/z) as an exact polynomial in z.

    The k-th series coefficient of F(a, b; c; x), times (-1)^k, becomes the
    coefficient of z^(degree-k).  Raises if the series has more than
    degree + 1 terms, since the result would then not be a polynomial.
    """
    series = hypergeometric_polynomial(a, b, c).coefficients
    if len(series) > degree + 1:
        raise ValueError(f"series of length {len(series)} exceeds degree {degree}")
    coeffs = [Fraction(0)] * (degree + 1)
    for k, f in enumerate(series):
        coeffs[degree - k] = -f if k % 2 else f
    return RationalPolynomial(coeffs)


@lru_cache(maxsize=None)
def _jacobi_cached(k: int, alpha: Fraction, beta: Fraction) -> RationalPolynomial:
    s = alpha + beta
    if s.denominator == 1 and -2 * k <= s <= -k - 1:
        raise ValueError(
            f"degenerate parameters: alpha+beta={s} makes the leading binomial "
            f"C({2 * k + s}, {k}) and a Pochhammer denominator vanish together"
        )
    # C(2k+s, k) w^k F(-k, -k-alpha; -2k-s; -1/w) with w = (z-1)/2, built as
    # a polynomial in w; the quotient -1/w is never evaluated pointwise
    binom = pochhammer(k + s + 1, k) / math.factorial(k)
    in_w = _reversed_hypergeometric_polynomial(-k, -k - alpha, -2 * k - s, k)
    return binom * in_w.compose(RationalPolynomial((Fraction(-1, 2), Fraction(1, 2))))


def jacobi_polynomial(k: int, alpha, beta) -> RationalPolynomial:
    """Jacobi polynomial P_k^{(alpha,beta)} in z, exact coefficients.

    Built from the terminating hypergeometric form as a polynomial
    identity.  Parameters at or below -1 are accepted; the construction
    raises when alpha+beta sits on an integer line where the defining
    formula degenerates.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("degree must be a nonnegative integer")
    return _jacobi_cached(k, Fraction(alpha), Fraction(beta))


@lru_cache(maxsize=None)
def v_polynomial(n: int, m: int) -> RationalPolynomial:
    """V_{n,m} = C(n,m)/n * F(-m, 1-m; 1-n; x), of degree exactly m-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in 1..{n - 1}, got {m}")
    poly = Fraction(math.comb(n, m), n) * hypergeometric_polynomial(-m, 1 - m, 1 - n)
    assert poly.degree == m - 1
    return poly


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    m: int
    passed: bool


def v_identity_suite(n: int) -> list[IdentityCheck]:
    """Exact coefficientwise verification of the V-polynomial identities.

    For every admissible m checks (a) the reflection symmetry
    V_{n,n-m} = (1-x)^{n-2m} V_{n,m}, (b) the lowering recurrence
    (n+1-m)(m-1) V_{n,m-1} = x V''_{n,m} - (n-1) V'_{n,m}, and (c) the
    bridge from V_{n,m} to the circulant eigenvalue polynomial T_{n,m}.
    All three are checked in rearranged all-polynomial form.
    """
    from . import symmetric  # deferred: symmetric builds on this module

    if n < 4:
        raise ValueError("need n >= 4")
    checks = []
    one_minus_x = RationalPolynomial((1, -1))
    one_plus_z = RationalPolynomial((1, 1))
    for m in range(1, n // 2 + 1):
        lhs = v_polynomial(n, n - m)
        rhs = one_minus_x ** (n - 2 * m) * v_polynomial(n, m)
        checks.append(IdentityCheck("symmetry", m, lhs == rhs))
    for m in range(2, n):
        vm = v_polynomial(n, m)
        lowered = _X * vm.derivative().derivative() - (n - 1) * vm.derivative()
        rhs = (n + 1 - m) * (m - 1) * v_polynomial(n, m - 1)
        checks.append(IdentityCheck("recurrence", m, lowered == rhs))
    for m in range(1, n):
        vm = v_polynomial(n, m)
        bridged = RationalPolynomial()
        for j, coeff in enumerate(vm.coefficients):
            bridged = bridged + coeff * one_plus_z ** (m - j)
        bridged = (-1) ** (n - m) * n * n * bridged
        t = symmetric.t_polynomial(n, m)
        if n - 2 * m >= 0:
            ok = t == RationalPolynomial.monomial(n - 2 * m) * bridged
        else:
            ok = RationalPolynomial.monomial(2 * m - n) * t == bridged
        checks.append(IdentityCheck("bridge", m, ok))
    return checks


@dataclass(frozen=True)
class ZeroStructureReport:
    """Exact root-structure facts for V_{n,m} against the expected pattern."""

    n: int
    m: int
    multiplicity_at_one: int
    expected_multiplicity_at_one: int
    roots_beyond_one: int
    expected_roots_beyond_one: int
    all_simple: bool
    interlaces_previous: bool | None
    passed: bool


def zero_structure_check(n: int, m: int) -> ZeroStructureReport:
    """Verify the exact zero pattern of V_{n,m}.

    For 2 <= m <= floor(n/2): m-1 simple roots, all in (1, inf).  For
    larger m: n-m-1 simple roots in (1, inf) plus a root of multiplicity
    2m-n at x = 1.  When both V_{n,m} and V_{n,m-1} fall in the first
    regime their roots must strictly interlace, V_{n,m}'s first.

    Interlacing is read from the Cauchy index I of V_{n,m-1}/V_{n,m} over
    (1, inf), the variation drop of one generalized Sturm chain started at
    (V_{n,m}, V_{n,m-1}).  Each real pole contributes at most 1 to |I|, and
    V_{n,m} has degree m-1, so |I| = m-1 exactly when V_{n,m} has m-1
    simple roots beyond 1, none shared with V_{n,m-1}, and every pole jumps
    the same way: sign(V_{n,m-1} V'_{n,m}) is constant on them.  V'_{n,m}
    alternates in sign over consecutive simple roots, so V_{n,m-1} does
    too and has a root in each of the m-2 gaps; having degree m-2 it has
    no other.  Conversely strict interlacing makes every jump alike.  The
    index theorem needs V_{n,m}(1) != 0 at the endpoint; a root at 1
    leaves at most m-2 roots beyond it, so there interlacing fails
    outright.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if not 2 <= m <= n - 1:
        raise ValueError(f"m must lie in 2..{n - 1}, got {m}")
    nu = n // 2
    poly = v_polynomial(n, m)

    mult_at_one = 0
    reduced = poly
    while reduced(1) == 0:
        reduced = reduced.exact_div(_X_MINUS_1)
        mult_at_one += 1
    expected_mult = 2 * m - n if m >= nu + 1 else 0
    expected_beyond = m - 1 if m <= nu else n - m - 1

    all_simple = poly.gcd(poly.derivative()).degree == 0 if m <= nu else (
        reduced.gcd(reduced.derivative()).degree == 0
    )
    if reduced.degree > 0:
        iso = isolate_real_roots(reduced, (Fraction(1), None), 1e-9)
        beyond = iso.count_with_multiplicity
    else:
        beyond = 0

    interlaces: bool | None = None
    if 3 <= m <= nu:
        # the count changes only at roots of V_{n,m}, all below its Cauchy bound
        chain = _sturm_chain(_poly_to_int(poly), _poly_to_int(v_polynomial(n, m - 1)))
        index = _variations_at(chain, Fraction(1)) - _variations_at(chain, _cauchy_bound(poly))
        interlaces = mult_at_one == 0 and abs(index) == m - 1

    passed = (
        mult_at_one == expected_mult
        and beyond == expected_beyond
        and reduced.degree == expected_beyond
        and all_simple
        and interlaces is not False
    )
    return ZeroStructureReport(
        n=n,
        m=m,
        multiplicity_at_one=mult_at_one,
        expected_multiplicity_at_one=expected_mult,
        roots_beyond_one=beyond,
        expected_roots_beyond_one=expected_beyond,
        all_simple=all_simple,
        interlaces_previous=interlaces,
        passed=passed,
    )
