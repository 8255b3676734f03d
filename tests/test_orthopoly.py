import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpd import orthopoly, verify
from diskpd.orthopoly import (
    RationalPolynomial,
    hypergeometric_polynomial,
    isolate_real_roots,
    jacobi_polynomial,
    pochhammer,
    _reversed_hypergeometric_polynomial,
    squarefree_decomposition,
    v_identity_suite,
    v_polynomial,
    zero_structure_check,
)
from diskpd import radius
from diskpd.radius import central_polynomial, maximal_radius
from diskpd.symmetric import t_polynomial

fractions = st.fractions(max_denominator=50)
small_polys = st.lists(
    st.fractions(-9, 9, max_denominator=12), min_size=0, max_size=7
).map(RationalPolynomial)


class TestRationalPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        p = RationalPolynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coefficients == (Fraction(1), Fraction(2))
        assert RationalPolynomial([]).is_zero
        assert RationalPolynomial([0, 0]).is_zero

    @given(small_polys, small_polys, fractions)
    def test_evaluation_is_a_ring_homomorphism(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)

    @given(small_polys, st.integers(1, 30), small_polys)
    def test_equal_values_compare_and_hash_equal(self, p, k, q):
        written = [f"{c.numerator * k}/{c.denominator * k}" for c in p.coefficients]
        same = [
            RationalPolynomial(written + ["0"] * 2),
            RationalPolynomial([*p.coefficients, Fraction(0, k)]),
            p * k * Fraction(1, k),
            p + q - q,
        ]
        for other in same:
            assert other == p and hash(other) == hash(p)
            assert other.coefficients == p.coefficients

    @given(small_polys, st.floats(allow_nan=False, allow_infinity=False))
    def test_float_evaluation_is_the_exact_value_rounded_once(self, p, x):
        exact = p(Fraction(x))
        try:
            expected = float(exact)
        except OverflowError:
            expected = math.inf if exact > 0 else -math.inf
        assert p(x).hex() == expected.hex()

    @pytest.mark.parametrize("m", range(1, 49))
    def test_float_evaluation_does_not_cancel_near_minus_one(self, m):
        # float Horner on these integer coefficients is off by up to 12.7
        # times max|T| at -0.99; the exact value rounds once
        p = t_polynomial(48, m)
        assert p(-0.99).hex() == float(p(Fraction(-0.99))).hex()

    def test_float_evaluation_leaves_the_double_range_as_infinity(self):
        p = RationalPolynomial([0, 0, -1])
        assert p(1e200) == -math.inf and (-p)(-1e200) == math.inf
        assert p(1e100) == -1e200

    def test_numpy_float_evaluates_as_a_float(self):
        p = RationalPolynomial([Fraction(1, 3), -2, 5])
        value = p(np.float64(0.5))
        assert type(value) is float and value.hex() == p(0.5).hex()

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_float_raises(self, x):
        with pytest.raises(ValueError, match=r"^cannot evaluate a polynomial at (nan|inf|-inf)$"):
            RationalPolynomial([1, 2])(x)

    @pytest.mark.parametrize("x, name", [(1j, "complex"), (np.array([0.5]), "ndarray"), ("1", "str")])
    def test_other_argument_types_raise(self, x, name):
        with pytest.raises(TypeError, match=f"^cannot evaluate a polynomial at a {name}$"):
            RationalPolynomial([1, 2])(x)

    @given(small_polys, small_polys)
    def test_divmod_reconstructs(self, f, g):
        if g.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(f, g)
            return
        quo, rem = divmod(f, g)
        assert quo * g + rem == f
        assert rem.is_zero or rem.degree < g.degree

    def test_power_and_compose(self):
        x_plus_1 = RationalPolynomial([1, 1])
        assert x_plus_1 ** 3 == RationalPolynomial([1, 3, 3, 1])
        p = RationalPolynomial([0, 0, 1])  # x^2
        assert p.compose(RationalPolynomial([1, 2])) == RationalPolynomial([1, 4, 4])

    def test_derivative(self):
        p = RationalPolynomial([5, 3, 0, 2])
        assert p.derivative() == RationalPolynomial([3, 0, 6])

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=50)
    def test_gcd_of_common_multiples(self, f, g, h):
        a, b = f * h, g * h
        d = a.gcd(b)
        # gcd(fh, gh) = h * gcd(f, g) up to a constant, in every case
        assert d == (h * f.gcd(g)).monic()
        if not d.is_zero:
            assert a.exact_div(d) * d == a
            assert b.exact_div(d) * d == b

    def test_squarefree_decomposition(self):
        f = RationalPolynomial([1, 1]) ** 2 * RationalPolynomial([-3, 1])
        parts = squarefree_decomposition(f)
        assert [(p.coefficients, m) for p, m in parts] == [
            ((Fraction(-3), Fraction(1)), 1),
            ((Fraction(1), Fraction(1)), 2),
        ]
        rebuilt = RationalPolynomial([1])
        for p, m in parts:
            rebuilt = rebuilt * p ** m
        assert rebuilt.monic() == f.monic()

    def test_exact_div_raises_on_remainder(self):
        with pytest.raises(ValueError):
            RationalPolynomial([1, 1]).exact_div(RationalPolynomial([0, 1]))

    def test_int_and_fraction_operands(self):
        p = RationalPolynomial([1, 2])
        assert p + 1 == 1 + p == RationalPolynomial([2, 2])
        assert p - Fraction(1, 2) == RationalPolynomial([Fraction(1, 2), 2])
        assert divmod(p, 2) == (RationalPolynomial([Fraction(1, 2), 1]), RationalPolynomial())
        assert p.gcd(3) == RationalPolynomial([1])

    def test_only_polynomials_compare_equal(self):
        # equal objects must hash equal, and hash(p) is not hash(3)
        p = RationalPolynomial([3])
        assert p != 3 and p != Fraction(3) and p != "3"
        assert p.__eq__(3) is NotImplemented

    @pytest.mark.parametrize("op", ["__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__divmod__"])
    def test_other_operands_are_not_implemented(self, op):
        assert getattr(RationalPolynomial([1, 2]), op)(0.5) is NotImplemented

    @pytest.mark.parametrize(
        "apply", [lambda p: p + 0.5, lambda p: p - "1", lambda p: 0.5 * p, lambda p: divmod(p, 0.5), lambda p: 1 - p]
    )
    def test_other_operands_raise_type_error(self, apply):
        with pytest.raises(TypeError):
            apply(RationalPolynomial([1, 2]))

    @pytest.mark.parametrize("exponent", [-1, 1.0])
    def test_power_needs_a_nonnegative_int(self, exponent):
        with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
            RationalPolynomial([1, 1]) ** exponent

    def test_composing_zero_is_zero(self):
        assert RationalPolynomial().compose(RationalPolynomial([1, 2])).is_zero

    def test_repr(self):
        assert repr(RationalPolynomial([Fraction(-1, 2), 0, 3])) == "RationalPolynomial(['-1/2', '0', '3'])"

    def test_zero_polynomial_has_no_squarefree_decomposition(self):
        with pytest.raises(ValueError, match="^zero polynomial has no square-free decomposition$"):
            squarefree_decomposition(RationalPolynomial())


class TestHypergeometric:
    def test_empty_series_is_one(self):
        assert hypergeometric_polynomial(0, 5, 7) == RationalPolynomial([1])

    def test_single_term(self):
        # (-1)(-2)/(-2) x = -x
        assert hypergeometric_polynomial(-1, -2, -2) == RationalPolynomial([1, -1])

    def test_three_terms(self):
        got = hypergeometric_polynomial(-2, -2, -3)
        assert got == RationalPolynomial([1, Fraction(-4, 3), Fraction(1, 3)])

    def test_upper_parameter_must_be_nonpositive_integer(self):
        with pytest.raises(ValueError):
            hypergeometric_polynomial(1, 2, 3)

    def test_vanishing_denominator_is_reported_with_its_index(self):
        with pytest.raises(ValueError, match="k=3"):
            hypergeometric_polynomial(-5, 7, -2)

    def test_termination_shrinks_with_second_parameter(self):
        # b = -2 stops the series before (c)_k can vanish at k = 4
        p = hypergeometric_polynomial(-5, -2, -3)
        assert p.degree == 2

    def test_pochhammer(self):
        assert pochhammer(3, 4) == 3 * 4 * 5 * 6
        assert pochhammer(Fraction(-1, 2), 2) == Fraction(-1, 4)
        assert pochhammer(7, 0) == 1


def _rising(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def _series(a, b, c, x):
    """Terminating F(a, b; c; x), a <= 0, summed term by term."""
    return sum(
        _rising(a, k) * _rising(b, k) / (_rising(c, k) * math.factorial(k)) * x**k
        for k in range(-a + 1)
    )


def _binom(u, k):
    """C(u, k) for rational u."""
    return _rising(u - k + 1, k) / math.factorial(k)


def _jacobi_value(k, alpha, beta, z):
    """P_k^(alpha,beta)(z) by Szego's binomial sum (4.3.2)."""
    return sum(
        _binom(k + alpha, k - j) * _binom(k + beta, j) * ((z - 1) / 2) ** j * ((z + 1) / 2) ** (k - j)
        for j in range(k + 1)
    )


class TestReversedSeries:
    def test_series_longer_than_degree_raises(self):
        with pytest.raises(ValueError):
            _reversed_hypergeometric_polynomial(-3, 1, 1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 19, 28, 40])
    def test_families_match_their_series_termwise(self, n):
        nu = n // 2
        for z in (Fraction(-7, 4), Fraction(-1, 3), Fraction(2, 7), Fraction(5, 2)):
            for m in range(1, n):
                t = n * math.comb(n, m) * (-z) ** (n - m) * _series(-m, m - n, 1 - n, -1 / z)
                assert t_polynomial(n, m)(z) == t, (n, m, z)
                assert jacobi_polynomial(m, n - 2 * m, -1)(z) == _jacobi_value(m, n - 2 * m, -1, z)
            assert t_polynomial(n, n)(z) == n * ((-z) ** n - 1)
            assert central_polynomial(n)(z) == z**nu * _series(-nu, nu - n, 1 - n, -1 / z)


class TestJacobi:
    @pytest.mark.parametrize("k", [-1, 1.0])
    def test_degree_must_be_a_nonnegative_int(self, k):
        with pytest.raises(ValueError, match="^degree must be a nonnegative integer$"):
            jacobi_polynomial(k, 0, 0)

    def test_chebyshev_degree_two_roots(self):
        p = jacobi_polynomial(2, Fraction(-1, 2), Fraction(-1, 2))
        # (3/8)(2z^2 - 1): the classical normalization of cos(2 theta)
        assert p == Fraction(3, 8) * RationalPolynomial([-1, 0, 2])
        iso = isolate_real_roots(p, (-1, 1), 1e-13)
        assert iso.refined == pytest.approx(
            [-math.sqrt(2) / 2, math.sqrt(2) / 2], abs=1e-12
        )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_swap_transformation(self, k):
        minus_x = RationalPolynomial([0, -1])
        for alpha in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
            for beta in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
                s = alpha + beta
                if s.denominator == 1 and -2 * k <= s <= -k - 1:
                    continue
                lhs = jacobi_polynomial(k, alpha, beta)
                rhs = (-1) ** k * jacobi_polynomial(k, beta, alpha).compose(minus_x)
                assert lhs == rhs

    @pytest.mark.parametrize("n", range(4, 9))
    def test_reduction_to_positive_parameters(self, n):
        # chaining the k=1 reduction twice through the swap transformation
        # gives P_n at (-1,-1) == ((x^2-1)/4) P_{n-2} at (1,1); in particular
        # the second-largest zero at (-1,-1) is the largest zero at (1,1)
        lhs = jacobi_polynomial(n, -1, -1)
        factor = RationalPolynomial([Fraction(-1, 4), 0, Fraction(1, 4)])  # (x^2-1)/4
        rhs = factor * jacobi_polynomial(n - 2, 1, 1)
        assert lhs == rhs
        inner = isolate_real_roots(
            jacobi_polynomial(n - 2, 1, 1), (Fraction(-1), Fraction(1)), 1e-12
        )
        full = isolate_real_roots(lhs, (Fraction(-1), Fraction(1)), 1e-12)
        assert sorted(full.refined)[-2] == pytest.approx(max(inner.refined), abs=1e-10)

    def test_degenerate_parameter_line_raises(self):
        with pytest.raises(ValueError, match="alpha\\+beta"):
            jacobi_polynomial(1, -1, -1)
        with pytest.raises(ValueError):
            jacobi_polynomial(3, -2, -2)  # alpha+beta = -4 in {-4..-6}

    def test_frozen_low_case_with_negative_parameter(self):
        # P_1 at (0, -1) evaluates the degenerate-parameter path: (z+1)/2
        p = jacobi_polynomial(1, 0, -1)
        assert p == RationalPolynomial([Fraction(1, 2), Fraction(1, 2)])


class TestVPolynomials:
    @pytest.mark.parametrize("n, m, message", [(1, 1, "need n >= 2"), (4, 4, "m must lie in 1..3, got 4")])
    def test_input_checks(self, n, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            v_polynomial(n, m)

    def test_first_is_constant_one(self):
        for n in (2, 3, 5, 9):
            assert v_polynomial(n, 1) == RationalPolynomial([1])

    def test_frozen_degree_four_cases(self):
        assert v_polynomial(4, 2) == RationalPolynomial([Fraction(3, 2), -1])
        assert v_polynomial(4, 3) == RationalPolynomial([1, -2, 1])

    @pytest.mark.parametrize("n", range(2, 12))
    def test_degree_is_m_minus_one(self, n):
        for m in range(1, n):
            assert v_polynomial(n, m).degree == m - 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            v_polynomial(4, 0)
        with pytest.raises(ValueError):
            v_polynomial(4, 4)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_identity_suite_exact(self, n):
        assert all(check.passed for check in v_identity_suite(n))

    def test_identity_suite_rejects_small_n(self):
        with pytest.raises(ValueError):
            v_identity_suite(3)


class TestRootIsolation:
    def test_a_constant_has_no_roots(self):
        assert isolate_real_roots(RationalPolynomial([5])).intervals == ()

    @pytest.mark.parametrize(
        "coefficients, bounds, precision, message",
        [
            ([-2, 0, 1], (1, 1), 1e-9, "empty range: need lo < hi"),
            ([-2, 0, 1], None, 0.0, "precision must be positive and finite"),
            ([], None, 1e-9, "cannot isolate roots of the zero polynomial"),
        ],
    )
    def test_input_checks(self, coefficients, bounds, precision, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            isolate_real_roots(RationalPolynomial(coefficients), bounds, precision)

    @pytest.mark.parametrize(
        "hi", [10**100, 10**300, 10**400], ids=["newton-runs-out", "float-overflow", "bounds-beyond-doubles"]
    )
    def test_a_useless_float_guess_leaves_the_root(self, hi):
        # the Newton guess of the cube root of 2 from (-hi, hi] stops after
        # 100 steps far off, overflows, or cannot read the bounds as
        # floats; bisection still isolates the root
        iso = isolate_real_roots(RationalPolynomial([-2, 0, 0, 1]), (-hi, hi), 1e-12)
        (lo, top, mult), = iso.intervals
        assert mult == 1 and lo ** 3 < 2 <= top ** 3 and top - lo <= Fraction(1e-12)

    def test_double_root(self):
        iso = isolate_real_roots(RationalPolynomial([1, -2, 1]), (0, 2), 1e-10)
        assert len(iso.intervals) == 1
        lo, hi, mult = iso.intervals[0]
        assert mult == 2 and lo < 1 <= hi
        assert iso.refined[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_simple_roots(self):
        iso = isolate_real_roots(RationalPolynomial([8, 32, 24]), (-2, 1), 1e-12)
        assert [m for _, _, m in iso.intervals] == [1, 1]
        assert iso.refined[0] == pytest.approx(-1.0, abs=1e-11)
        assert iso.refined[1] == pytest.approx(-1 / 3, abs=1e-11)

    def test_chebyshev_roots(self):
        p = jacobi_polynomial(3, Fraction(-1, 2), Fraction(-1, 2))
        iso = isolate_real_roots(p, (-1, 1), 1e-13)
        expected = [math.cos(5 * math.pi / 6), math.cos(3 * math.pi / 6), math.cos(math.pi / 6)]
        assert iso.refined == pytest.approx(expected, abs=1e-12)

    def test_half_open_range_semantics(self):
        p = RationalPolynomial([0, -1, 1])  # x(x-1)
        inside = isolate_real_roots(p, (0, 1), 1e-9)
        assert inside.count_distinct == 1  # root at 0 excluded, at 1 included
        assert inside.intervals[0][2] == 1
        nothing = isolate_real_roots(p, (Fraction(1), Fraction(2)), 1e-9)
        assert nothing.count_distinct == 0

    def test_unbounded_range_uses_root_bound(self):
        p = RationalPolynomial([-100, 0, 1])  # roots +-10
        iso = isolate_real_roots(p, None, 1e-9)
        assert iso.refined == pytest.approx([-10.0, 10.0], abs=1e-8)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(RationalPolynomial([]), (0, 1), 1e-9)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(RationalPolynomial([1, 1]), (0, 1), 0.0)

    @pytest.mark.parametrize("precision", [-1.0, math.nan, math.inf, 1e-400], ids=["-1", "nan", "inf", "1e-400"])
    def test_precision_must_be_positive_and_finite(self, precision):
        with pytest.raises(ValueError, match="positive and finite"):
            isolate_real_roots(RationalPolynomial([1, 1]), (0, 1), precision)

    def test_factors_closer_than_the_precision(self):
        root = Fraction(1, 3)
        near = root + Fraction(1, 10**11)
        p = _poly_with_roots(root, root, near)
        iso = isolate_real_roots(p, (0, 1), 1e-9)
        (a1, b1, m1), (a2, b2, m2) = iso.intervals
        assert (m1, m2) == (2, 1)
        assert a1 < root <= b1 <= a2 < near <= b2

    def test_non_dyadic_bounds_with_a_root_on_a_bisection_point(self):
        lo, hi = Fraction(1, 3), Fraction(5, 7)
        # (1/3, 5/7] splits at 11/21; refining (1/3, 11/21] then tries 9/21
        # and hits 10/21; 5/7 is the included right end, 1/3 the excluded left
        roots = [Fraction(10, 21), hi]
        p = _poly_with_roots(lo, *roots, 2)
        iso = isolate_real_roots(p, (lo, hi), 1e-12)
        assert iso.refined == tuple(float(r) for r in roots)
        for (a, b, mult), root in zip(iso.intervals, roots, strict=True):
            assert mult == 1 and lo <= a < root == b and b - a <= Fraction(1e-12)

    def test_pinned_isolations_of_the_v_polynomials(self):
        isolations = [
            isolate_real_roots(v_polynomial(n, m), None, 1e-12)
            for n in range(4, 17)
            for m in range(2, n)
        ]
        digest = hashlib.sha256(repr(isolations).encode()).hexdigest()
        assert digest == "7d31c6696b2989a3df00eed129d07365f5b91d5e1c61b75482f28722968d9bb0"

    def test_matches_numpy_companion_on_random_integer_polys(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            coeffs = rng.integers(-9, 10, size=rng.integers(2, 9)).tolist()
            if coeffs[-1] == 0:
                coeffs[-1] = 3
            p = RationalPolynomial(coeffs)
            if p.degree < 1:
                continue
            iso = isolate_real_roots(p, None, 1e-10)
            roots = np.roots(list(reversed([float(c) for c in coeffs])))
            real = sorted(r.real for r in roots if abs(r.imag) < 1e-9)
            assert len(real) == iso.count_with_multiplicity
            for want, got in zip(real, iso.refined):
                assert got == pytest.approx(want, abs=1e-6)


class TestSturmVsCompanionCheck:
    @pytest.mark.parametrize("seed", [71, 145])
    def test_simple_root_next_to_a_double_root(self, seed):
        # these seeds draw a base polynomial with a simple root 1e-3 to 2e-3
        # from a double root of the squared factor
        checks = {check.name: check.passed for check in verify.orthopoly_suite(seed=seed)}
        assert checks["orthopoly.sturm-vs-companion"]

    def test_wrong_multiplicity_fails(self, monkeypatch):
        isolate = orthopoly.isolate_real_roots

        def one_too_many(p, bounds=None, precision=1e-9):
            iso = isolate(p, bounds, precision)
            intervals = tuple((lo, hi, mult + 1) for lo, hi, mult in iso.intervals)
            return orthopoly.RootIsolation(intervals, iso.refined)

        monkeypatch.setattr(orthopoly, "isolate_real_roots", one_too_many)
        checks = {check.name: check.passed for check in verify.orthopoly_suite(seed=1)}
        assert checks["orthopoly.sturm-vs-companion"] is False

    @pytest.mark.parametrize(
        "v3, v2",
        [
            # V_{8,2} coprime to V_{8,3}, with its root beyond both of V_{8,3}'s
            (None, [-1000, 1]),
            # (x-1)(x-3) against 2-x: with the root at the endpoint 1 the
            # variation drop over (1, inf) reaches m-1 without interlacing
            ([3, -4, 1], [2, -1]),
        ],
    )
    def test_root_outside_the_gaps_fails_interlacing(self, v3, v2, monkeypatch):
        v = orthopoly.v_polynomial
        swapped = {(8, 2): v2, (8, 3): v3}

        def patched(n, m):
            coefficients = swapped.get((n, m))
            return v(n, m) if coefficients is None else RationalPolynomial(coefficients)

        monkeypatch.setattr(orthopoly, "v_polynomial", patched)
        report = zero_structure_check(8, 3)
        assert report.interlaces_previous is False
        assert report.passed is False


def _reduced_central(n):
    """Central polynomial of n with every factor z + 1 divided out."""
    poly = central_polynomial(n)
    while poly(-1) == 0:
        poly = poly.exact_div(RationalPolynomial([1, 1]))
    return poly


def _poly_with_roots(*roots):
    p = RationalPolynomial([1])
    for r in roots:
        p = p * RationalPolynomial([-Fraction(r), 1])
    return p


class TestSmallestRoot:
    """maximal_radius takes mu_n from the Jacobi recurrence; the smallest root
    in (-1, 0] that isolate_real_roots finds for the central polynomial is
    its oracle, down to the bits of the interval."""

    @pytest.mark.parametrize("n", [*range(4, 65), 128, 256, 300])
    def test_first_isolated_interval_of_the_central_polynomial(self, n):
        first = isolate_real_roots(central_polynomial(n), (-1, 0), 1e-13).intervals[0][:2]
        assert maximal_radius(n).isolating_interval == first
        if n <= 64:
            # the root -1 lies outside (-1, 0], so dividing out z + 1 changes nothing
            assert isolate_real_roots(_reduced_central(n), (-1, 0), 1e-13).intervals[0][:2] == first

    @pytest.mark.parametrize("root", [Fraction(-1, 2), Fraction(-3, 4)])
    def test_root_on_a_bisection_point(self, root):
        p = _poly_with_roots(root, Fraction(-1, 8), Fraction(1, 3))
        iso = isolate_real_roots(p, (-1, 0), 1e-13)
        a, b, mult = iso.intervals[0]
        assert a < root == b and b - a <= Fraction(1e-13) and mult == 1
        assert iso.refined[0] == root

    def test_root_at_the_included_upper_end(self):
        p = _poly_with_roots(0, 1, -2)
        (a, b, mult), = isolate_real_roots(p, (-1, 0), 1e-13).intervals
        assert a < 0 == b and b - a <= Fraction(1e-13) and mult == 1

    def test_no_root_in_range(self):
        assert isolate_real_roots(RationalPolynomial([1, 0, 1]), (-1, 0), 1e-13).intervals == ()
        # -1 is outside the half-open range (-1, 0], 1 beyond it
        assert isolate_real_roots(_poly_with_roots(-1, 1), (-1, 0), 1e-13).intervals == ()

    def test_repeated_smallest_root(self):
        root = Fraction(-1, 3)
        p = _poly_with_roots(root, root, Fraction(-1, 5))
        a, b, mult = isolate_real_roots(p, (-1, 0), 1e-13).intervals[0]
        assert a < root <= b and b - a <= Fraction(1e-13) and mult == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300, -5.0, 0.25])
    def test_guess_never_changes_an_interval(self, bad, monkeypatch):
        ns = [*range(4, 41), 64, 128]
        polys = [
            _poly_with_roots(Fraction(-1, 2), Fraction(-3, 4), Fraction(1, 3), Fraction(2, 7)),
            _poly_with_roots(Fraction(-1, 3), Fraction(-1, 3), Fraction(-1, 5), Fraction(1, 5)),
            v_polynomial(12, 6),
            _reduced_central(24),
        ]
        bounds = [(-1, 1), (-1, 1), (1, 40), (-1, 0)]
        plain_radii = [maximal_radius.__wrapped__(n).isolating_interval for n in ns]
        plain_isolations = [isolate_real_roots(p, b, 1e-12) for p, b in zip(polys, bounds)]
        monkeypatch.setattr(radius, "_smallest_zero_guess", lambda recurrence, n: bad)
        monkeypatch.setattr(orthopoly, "_newton_guess", lambda cs, sa, a, b: bad)
        assert [maximal_radius.__wrapped__(n).isolating_interval for n in ns] == plain_radii
        assert [isolate_real_roots(p, b, 1e-12) for p, b in zip(polys, bounds)] == plain_isolations


class TestZeroStructure:
    def test_multiplicity_two_at_one(self):
        report = zero_structure_check(4, 3)
        assert report.multiplicity_at_one == 2
        assert report.roots_beyond_one == 0
        assert report.passed

    def test_two_simple_roots_beyond_one(self):
        report = zero_structure_check(6, 3)
        assert report.multiplicity_at_one == 0
        assert report.roots_beyond_one == 2
        assert report.passed

    def test_interlacing(self):
        report = zero_structure_check(8, 3)
        assert report.interlaces_previous is True
        assert report.passed

    @pytest.mark.parametrize("n", range(4, 10))
    def test_full_pattern(self, n):
        for m in range(2, n):
            assert zero_structure_check(n, m).passed, (n, m)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            zero_structure_check(3, 2)
        with pytest.raises(ValueError):
            zero_structure_check(6, 1)
