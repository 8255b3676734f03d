"""Exact polynomial engine over the rationals.

Dense polynomials stored as integer numerators over one positive
denominator, with guaranteed real-root isolation (one Sturm chain of the
square-free part, multiplicities from Yun's factors, one left-first
bisection descent for every root query, and one exact refinement started
near a float guess; a generalized chain gives the Cauchy index for
interlacing), terminating Gauss hypergeometric series,
Jacobi polynomials with generalized parameters, and the V-polynomial
family that carries the zero structure of the circulant eigenvalue
polynomials.

Everything here is exact except the float guesses, which only choose
where an exact refinement starts, the float values reported for refined
roots, and a polynomial's value at a float, which is the exact value at
that double rounded once.  All objects are immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

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
    """Dense univariate polynomial with rational coefficients (index = degree).

    Stored as integer numerators over one denominator, in canonical form:
    no trailing zero numerator, and a positive denominator coprime to the
    numerators' content.  The zero polynomial has no numerators, the
    denominator 1 and degree -1.  `coefficients` gives the Fraction values.
    Instances are immutable: all arithmetic returns new objects, and exact
    operations (including evaluation at int/Fraction points) run on the
    integers and never round.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in cs))
        canonical = self._of([c.numerator * (den // c.denominator) for c in cs], den)
        self._num, self._den = canonical._num, canonical._den

    @classmethod
    def _of(cls, num: list[int], den: int = 1) -> "RationalPolynomial":
        """The polynomial num/den in canonical form, from integer numerators
        (a list it may change) and den != 0."""
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        p = object.__new__(cls)
        p._num, p._den = (tuple(num), den) if g == 1 else (tuple(c // g for c in num), den // g)
        return p

    @classmethod
    def monomial(cls, degree: int, coefficient=1) -> "RationalPolynomial":
        return cls([0] * degree + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._num[-1], self._den) if self._num else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalPolynomial):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RationalPolynomial({[str(c) for c in self.coefficients]})"

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, den = self._num, other._num, self._den
        if other._den != den:
            den = math.lcm(den, other._den)
            a = [c * (den // self._den) for c in a]
            b = [c * (den // other._den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial._of(out, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial._of([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            return RationalPolynomial._of(_int_mul(self._num, other._num), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            s = other.numerator
            return RationalPolynomial._of([c * s for c in self._num], self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return math.prod([self] * exponent, start=RationalPolynomial([1]))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([other])
        return NotImplemented

    def __call__(self, x):
        """The value at x, by Horner's rule on the integers.  At an int or
        Fraction it is the exact Fraction; at a finite float (numpy's float64
        included) it is the correctly rounded double of the exact value at
        that double, and +-inf where that leaves the double range.  A float
        that is not finite raises ValueError, any other type TypeError."""
        if isinstance(x, float):
            if not math.isfinite(x):
                raise ValueError(f"cannot evaluate a polynomial at {x!r}")
            p, q = x.as_integer_ratio()
        elif isinstance(x, (int, Fraction)):
            p, q = x.numerator, x.denominator
        else:
            raise TypeError(f"cannot evaluate a polynomial at a {type(x).__name__}")
        cs = self._num or (0,)
        top, bottom = _homogeneous(cs, p, q), q ** (len(cs) - 1) * self._den
        if not isinstance(x, float):
            return Fraction(top, bottom)
        try:
            return top / bottom  # int true division rounds correctly
        except OverflowError:
            return math.inf if top > 0 else -math.inf

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial._of(_int_deriv(self._num), self._den)

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """Exact polynomial composition self(inner(x)).

        With self = sum c_k x^k / D and inner = I / E, Horner's rule runs on
        the integer numerator sum c_k I^k E^(deg-k) over D E^deg, so only
        the result is brought to canonical form.
        """
        if not self._num:
            return self
        acc, epow = [self._num[-1]], 1
        for c in reversed(self._num[:-1]):
            epow *= inner._den
            acc = _int_mul(acc, inner._num) or [0]
            acc[0] += c * epow
        return RationalPolynomial._of(acc, self._den * epow)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # s*num = q*other_num + r, so self = other * q*other_den/(s*den) + r/(s*den)
        q, r, s = _pseudo_divmod(self._num, other._num)
        quo = RationalPolynomial._of([c * other._den for c in q], s * self._den)
        return quo, RationalPolynomial._of(r, s * self._den)

    def exact_div(self, other) -> "RationalPolynomial":
        quo, rem = divmod(self, other)
        if not rem.is_zero:
            raise ValueError("division is not exact")
        return quo

    def monic(self) -> "RationalPolynomial":
        if self.is_zero:
            return self
        return RationalPolynomial._of(list(self._num), self._num[-1])

    def gcd(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Monic greatest common divisor (via integer remainder sequences)."""
        other = self._coerce(other)
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        a, b = _int_primitive(self._num), _int_primitive(other._num)
        while b:
            a, b = b, _int_primitive(_pseudo_divmod(a, b)[1])
        return RationalPolynomial._of(a).monic()


_X = RationalPolynomial((0, 1))
_X_MINUS_1 = RationalPolynomial((-1, 1))


# ---------------------------------------------------------------------------
# Integer-coefficient kernels: pseudo-division, gcd and Sturm sequences on
# numerator lists.  Every chain element is kept primitive; multiplying a
# chain element by a positive constant does not change sign variation
# counts, and the sign of the pseudo-division factor is tracked explicitly.
# ---------------------------------------------------------------------------


def _int_primitive(cs):
    """cs divided by its content; cs has no trailing zero."""
    g = math.gcd(*cs)
    return cs if g <= 1 else [c // g for c in cs]


def _int_mul(f, g) -> list[int]:
    """Product of two integer coefficient lists (empty for a zero factor)."""
    out = [0] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _int_deriv(cs) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _pseudo_divmod(f, g) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of f by a nonzero g: (q, r, s) with
    s*f = q*g + r, deg r < deg g and s = lead(g)^k.

    A step whose leading coefficient lead(g) divides takes the exact
    quotient; every other step scales by lead(g) and adds 1 to k.
    """
    lg = g[-1]
    r = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    s = 1
    while len(r) >= len(g):
        lr = r[-1]
        shift = len(r) - len(g)
        t, rest = divmod(lr, lg)
        if rest:
            r = [lg * c for c in r]
            q = [lg * c for c in q]
            s *= lg
            t = lr
        q[shift] = t
        for i, gc in enumerate(g):
            r[shift + i] -= t * gc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return q, r, s


def _sturm_chain(cs, second=None) -> list[list[int]]:
    """Generalized Sturm chain p0 = cs, p1 = second (default cs'), and
    p_{k+1} = -rem(p_{k-1}, p_k) up to positive factors, ending at the last
    nonzero remainder; every element is a primitive integer coefficient list.

    For a, b not roots of cs, _variations_at(chain, a) - _variations_at(chain, b)
    is the Cauchy index of second/cs over (a, b): the poles of odd order
    where the quotient jumps from -inf to +inf, minus those where it jumps
    back.  With the default start on a square-free cs it counts the roots
    of cs in (a, b], also when a or b is one.
    """
    cs = _int_primitive(cs)
    if len(cs) <= 1:
        return [cs]
    chain = [cs, _int_primitive(_int_deriv(cs) if second is None else second)]
    while True:
        _, rem, s = _pseudo_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_int_primitive([-c for c in rem] if s > 0 else rem))
    return chain


def _homogeneous(cs, num: int, den: int) -> int:
    """den^deg * cs(num/den) for a nonzero integer coefficient list cs."""
    val, dpow = cs[-1], 1
    for c in reversed(cs[:-1]):
        dpow *= den
        val = val * num + c * dpow
    return val


def _sign_at(cs, num: int, den: int) -> int:
    """Sign of the integer polynomial at num/den, den > 0 (exact)."""
    val = _homogeneous(cs, num, den) if cs else 0
    return (val > 0) - (val < 0)


def _variations_at(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, *x.as_integer_ratio()) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(p: RationalPolynomial) -> Fraction:
    return 1 + Fraction(max(abs(c) for c in p._num), abs(p._num[-1]))


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


def _sign_right_of(cs, a: Fraction) -> int:
    """Sign of a square-free cs just right of a: at a root it is simple,
    so the derivative has that sign."""
    return _sign_at(cs, *a.as_integer_ratio()) or _sign_at(_int_deriv(cs), *a.as_integer_ratio())


def _refine_interval(sign, sa: int, a: Fraction, b: Fraction, width: Fraction, guess: float = math.nan):
    """Shrink (a, b], holding exactly one root r, to width <= width.

    sign(num, den) is the exact sign at num/den (den > 0) of a function
    with sign sa on (a, r) and -sa on (r, b], as a square-free polynomial
    with one root in (a, b] has.  Returns (lo, hi, root) where root is the
    exact root r when b or a bisection point is it, else None.  The
    bisection keeps integer numerators lo, hi over one denominator that
    doubles at each step.

    The result is bit for bit that of plain bisection from (a, b]: cells
    of the dyadic grid of (a, b], split at their midpoints down to the
    depth d where they reach the width, or until a midpoint is r.  The
    float guess only chooses where the bisection starts.  At a depth
    k <= d, the grid cell (lo, hi] holding the guess certifies when its
    lower end is a or has sign sa, and its upper end has sign -sa.  Then
    lo < r < hi, so r is no grid point of depth <= k.  Plain bisection
    meets only such grid points as midpoints before depth k, so it holds
    this very cell at depth k, with no hit on the way, and bisecting on
    from it repeats it step for step.  A root on a grid point of depth k
    zeroes the sign at an end of every depth-k cell it bounds, so no such
    cell certifies; the start is then coarser (at worst (a, b] itself),
    and the bisection meets r as a midpoint at the same depth as plain
    bisection does.  Depths d, d - 1, d - 2, d - 4, ... are tried, so a
    guess that is NaN, infinite or far off costs a few sign evaluations
    and never changes the result.
    """
    if sign(*b.as_integer_ratio()) == 0:
        return max(a, b - width / 2), b, b
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    step = hi - lo
    depth = 0
    while step * width.denominator > (width.numerator * den) << depth:
        depth += 1
    start = 0
    if math.isfinite(guess):
        gn, gd = guess.as_integer_ratio()
        gap = 0
        while (k := depth - gap) > 0:
            j = min(max(((gn * den - lo * gd) << k) // (gd * step), 0), (1 << k) - 1)
            cell_lo = (lo << k) + j * step
            if (j == 0 or sign(cell_lo, den << k) == sa) and sign(cell_lo + step, den << k) == -sa:
                lo, hi, den, start = cell_lo, cell_lo + step, den << k, k
                break
            gap = 2 * gap or 1
    for _ in range(start, depth):
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        sm = sign(mid, den)
        if sm == 0:
            root = Fraction(mid, den)
            return max(Fraction(lo, den), root - width / 2), root, root
        lo, hi = (mid, hi) if sm == sa else (lo, mid)
    return Fraction(lo, den), Fraction(hi, den), None


def _newton_guess(cs, sa: int, a: Fraction, b: Fraction) -> float:
    """Float root of the integer polynomial cs in (a, b], where it has one
    root and sign sa just right of a: Newton's method, falling back to
    bisection of its float bracket whenever a step would leave it, and
    stopping once |cs(x)| is within the rounding bound of Horner's rule
    (deg * eps * sum |c_i| |x|^i).  NaN when float arithmetic overflows;
    only a start for _refine_interval."""
    try:
        top = max(map(abs, cs))
        fs = [c / top for c in reversed(cs)]
        lo, hi = float(a), float(b)
    except OverflowError:
        return math.nan
    noise = len(fs) * math.ulp(1.0)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = df = bound = 0.0
        for c in fs:
            df = df * x + f
            f = f * x + c
            bound = bound * abs(x) + abs(c)
        if not (math.isfinite(f) and math.isfinite(df)):
            return math.nan
        if abs(f) <= noise * bound:
            return x
        if (f > 0) == (sa > 0):
            lo = x
        else:
            hi = x
        nx = x - f / df if df else lo
        if not lo < nx < hi:
            nx = 0.5 * (lo + hi)
        if nx == x:
            break  # unrun: guard: a step that rounds to no move
        x = nx
    return x


def _isolate_on(p: RationalPolynomial, lo: Fraction, hi: Fraction, width: Fraction):
    """Yield (a, b, root, multiplicity) for each distinct root of p in
    (lo, hi], left to right, with b - a <= width and root as in
    _refine_interval.

    One Sturm chain of the square-free part (the product of Yun's factors)
    steers a lazy, left-first descent of the dyadic bisection tree of
    (lo, hi]: a node is split while it holds two or more distinct roots,
    so the intervals are disjoint by construction.  The one Yun factor
    whose sign differs just right of a and at b has the root; it gives the
    multiplicity and refines the interval, started from a float Newton
    guess.  When the chain of p itself ends in a constant, gcd(p, p') = 1:
    p is its own square-free part (up to a constant factor, which changes
    no variation count) and its only Yun factor, so Yun's gcd is skipped.
    """
    chain = _sturm_chain(p._num)
    if len(chain[-1]) == 1:
        yun = [(p, 1)]
    else:
        yun = squarefree_decomposition(p)
        square_free = math.prod((f for f, _ in yun), start=RationalPolynomial([1]))
        chain = _sturm_chain(square_free._num)
    stack = [(lo, _variations_at(chain, lo), hi, _variations_at(chain, hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb > 1:
            mid = (a + b) / 2
            vm = _variations_at(chain, mid)
            stack += [(mid, vm, b, vb), (a, va, mid, vm)]
        elif va - vb == 1:
            cs, mult, sa, sb = next(
                (f._num, m, sa, sb)
                for f, m in yun
                for sa, sb in [(_sign_right_of(f._num, a), _sign_at(f._num, *b.as_integer_ratio()))]
                if sb != sa
            )
            guess = _newton_guess(cs, sa, a, b) if sb else math.nan  # a root at b needs no search
            yield *_refine_interval(partial(_sign_at, cs), sa, a, b, width, guess), mult


def isolate_real_roots(p: RationalPolynomial, bounds=None, precision: float = 1e-9) -> RootIsolation:
    """Isolate all real roots of p in the half-open range (lo, hi].

    bounds is a pair (lo, hi); either end may be None for an automatic
    (Cauchy) root bound.  Intervals are pairwise disjoint and refined to at
    most `precision` width; one Sturm chain of the square-free part isolates
    them, and multiplicities come from Yun's factors (see _isolate_on).
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if not 0 < precision < math.inf:
        raise ValueError("precision must be positive and finite")
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
    # term k is the product over i < k of (a+i)(b+i) / ((i+1)(c+i)); with
    # b = bn/bd and c = cn/cd each factor is num_i / den_i in integers, and
    # term k over the common denominator den_0 ... den_(stop-1) has the
    # numerator num_0 ... num_(k-1) den_k ... den_(stop-1)
    bn, bd = b.as_integer_ratio()
    cn, cd = c.as_integer_ratio()
    num = [1]
    for i in range(stop):
        num.append(num[-1] * (a + i) * (bn + i * bd) * cd)
    den = 1
    for i in reversed(range(stop)):
        den *= (i + 1) * (cn + i * cd) * bd
        num[i] *= den
    return RationalPolynomial._of(num, den)


def _reversed_hypergeometric_polynomial(a: int, b, c, degree: int) -> RationalPolynomial:
    """z^degree * F(a, b; c; -1/z) as an exact polynomial in z.

    The k-th series coefficient of F(a, b; c; x), times (-1)^k, becomes the
    coefficient of z^(degree-k).  Raises if the series has more than
    degree + 1 terms, since the result would then not be a polynomial.
    """
    series = hypergeometric_polynomial(a, b, c)
    if series.degree > degree:
        raise ValueError(f"series of length {series.degree + 1} exceeds degree {degree}")
    num = [0] * (degree + 1)
    for k, f in enumerate(series._num):
        num[degree - k] = -f if k % 2 else f
    return RationalPolynomial._of(num, series._den)


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
        # sum_j c_j (1+z)^(m-j) is V = sum_j c_j x^j (degree m-1) reversed to degree m, at 1+z
        reversed_v = RationalPolynomial([0, *reversed(v_polynomial(n, m).coefficients)])
        bridged = (-1) ** (n - m) * n * n * reversed_v.compose(one_plus_z)
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

    # poly = (x-1)^mult_at_one reduced with reduced(1) != 0, so each Yun
    # factor of reduced has an exact Sturm count over (1, bound]
    yun = squarefree_decomposition(reduced)
    all_simple = all(k == 1 for _, k in yun) and (m > nu or mult_at_one <= 1)
    bound = _cauchy_bound(reduced)
    beyond = sum(
        k * (_variations_at(chain, Fraction(1)) - _variations_at(chain, bound))
        for f, k in yun
        for chain in [_sturm_chain(f._num)]
    )

    interlaces: bool | None = None
    if 3 <= m <= nu:
        # the count changes only at roots of V_{n,m}: 1 and reduced's, all below bound
        chain = _sturm_chain(poly._num, v_polynomial(n, m - 1)._num)
        index = _variations_at(chain, Fraction(1)) - _variations_at(chain, bound)
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
