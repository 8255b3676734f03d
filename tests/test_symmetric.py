import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import naive_q_matrix, roots_of_unity
from diskpd import symmetric
from diskpd.core import HermitianMatrix, Verdict, build_q_matrix, is_positive_definite
from diskpd.orthopoly import RationalPolynomial
from diskpd.radius import maximal_radius
from diskpd.symmetric import (
    a_matrix,
    circulant_spectrum,
    det_factorization_check,
    positivity_by_t,
    regular_collection,
    t_polynomial,
)


class TestTPolynomial:
    def test_frozen_cases(self):
        assert t_polynomial(4, 1) == RationalPolynomial([0, 0, -16, -16])
        assert t_polynomial(3, 3) == RationalPolynomial([-3, 0, 0, -3])
        assert t_polynomial(4, 2) == RationalPolynomial([8, 32, 24])
        assert t_polynomial(2, 1) == RationalPolynomial([-4, -4])
        assert t_polynomial(2, 2) == RationalPolynomial([-2, 0, 2])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_first_polynomial_closed_form(self, n):
        # n^2 (-1)^(n-1) (1+z) z^(n-2)
        sign = (-1) ** (n - 1)
        want = sign * n * n * RationalPolynomial([1, 1]) * RationalPolynomial.monomial(n - 2)
        assert t_polynomial(n, 1) == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_integer_coefficients_and_degree(self, n):
        for m in range(1, n + 1):
            t = t_polynomial(n, m)
            assert all(c.denominator == 1 for c in t.coefficients)
            if m < n:
                assert t.degree == n - m

    def test_range_validation(self):
        with pytest.raises(ValueError):
            t_polynomial(1, 1)
        with pytest.raises(ValueError):
            t_polynomial(4, 0)
        with pytest.raises(ValueError):
            t_polynomial(4, 5)


class TestAMatrix:
    def test_roots_of_unity_without_conjugate_symmetry_are_caught(self, monkeypatch):
        # the upper triangle is copied from the lower one, so a table whose
        # w^(n-k) is not conj(w^k) breaks the circulant structure
        roots = symmetric._roots_of_unity
        monkeypatch.setattr(symmetric, "_roots_of_unity", lambda n: [*roots(n)[:-1], 1.01 * roots(n)[-1]])
        with pytest.raises(ArithmeticError, match="^matrix is not circulant at row 2, column 0$"):
            a_matrix(4, 0.5)

    def test_negated_equals_q_at_matching_radius(self):
        for n in (2, 3, 5, 8):
            r = 0.3 + 0.2 * n / 8
            q = build_q_matrix(regular_collection(n, r)).to_numpy()
            a = a_matrix(n, r * r - 1).to_numpy()
            assert np.abs(q + a).max() <= 1e-10 * max(1.0, np.abs(q).max())

    def test_two_disks_at_z_one(self):
        # A(1) = -Q(sqrt(2)): cross-check against the naive Q oracle
        a = a_matrix(2, 1.0).to_numpy()
        q = np.array(naive_q_matrix(roots_of_unity(2), [math.sqrt(2)] * 2))
        assert np.abs(a + q).max() < 1e-10

    def test_determinant_vanishes_at_zero_for_three(self):
        prod = 1.0
        for m in range(1, 4):
            prod *= float(t_polynomial(3, m)(0))
        assert prod == 0.0
        sign, logdet = np.linalg.slogdet(a_matrix(3, 0.0).to_numpy())
        assert sign == 0 or logdet < -20

    def test_eigenvalues_match_spectrum(self):
        a = a_matrix(5, 0.3)
        eig = sorted(a.eigenvalues())
        tv = sorted(circulant_spectrum(5, 0.3))
        assert eig == pytest.approx(tv, abs=1e-8)

    def test_rows_are_cyclic_shifts(self):
        rows = a_matrix(6, 0.4).rows
        for i in range(1, 6):
            for j in range(6):
                assert rows[i][j] == pytest.approx(rows[i - 1][(j - 1) % 6], rel=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            a_matrix(1, 0.0)
        with pytest.raises(ValueError):
            a_matrix(4, -1.5)

    @pytest.mark.parametrize("z", [math.nan, math.inf, 1e200], ids=["nan", "inf", "1e200"])
    def test_nonfinite_entries_raise_without_a_warning(self, z):
        # a NaN product is named by the Hermitian scan, not by a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN"):
                a_matrix(4, z)

    @pytest.mark.parametrize("n, z", [(2, 1e200), (4, 1e100)])
    def test_overflowing_entries_raise_without_a_warning(self, n, z):
        # these products overflow to inf with no NaN; A used to hold them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"matrix entry \(0,0\) is infinite"):
                a_matrix(n, z)


class TestCirculantSpectrum:
    def test_frozen_two_disk_values(self):
        assert circulant_spectrum(2, 1) == [-8.0, 0.0]

    def test_zero_at_known_root(self):
        values = circulant_spectrum(4, Fraction(-1, 3))
        assert values[1] == 0.0  # 24z^2+32z+8 = 8(3z+1)(z+1) vanishes at -1/3

    @pytest.mark.parametrize("n", range(3, 10))
    def test_first_value_vanishes_at_zero(self, n):
        assert circulant_spectrum(n, 0)[0] == 0.0

    def test_overflowing_values_are_infinite_without_a_warning(self):
        # A(1e200) overflows; its T values are exact and round to +-inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = circulant_spectrum(4, 1e200)
        assert values == [-math.inf, math.inf, -16 * 1e200, math.inf]

    @pytest.mark.parametrize("numpy_scalar", [False, True])
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_z_raises(self, z, numpy_scalar):
        with pytest.raises(ValueError, match="^cannot evaluate a polynomial at"):
            circulant_spectrum(4, np.float64(z) if numpy_scalar else z)

    def test_needs_two_disks(self):
        with pytest.raises(ValueError, match="^need n >= 2$"):
            circulant_spectrum(1, 0.5)

    @pytest.mark.parametrize("n", [31, 48])
    def test_values_are_the_rounded_exact_values_near_minus_one(self, n):
        # float Horner on the integer coefficients cancels here (12.7 max|T|
        # of error at n = 48, z = -0.99); the exact value rounds once
        z = -0.99
        exact = [float(t_polynomial(n, m)(Fraction(z))) for m in range(1, n + 1)]
        assert circulant_spectrum(n, z) == exact
        eig = sorted(a_matrix(n, z).eigenvalues())
        assert eig == pytest.approx(sorted(exact), abs=1e-12 * max(map(abs, exact)))


class TestPositivityByT:
    def test_three_disk_boundary(self):
        assert positivity_by_t(3, 0.99)
        assert not positivity_by_t(3, 1.0)
        assert not positivity_by_t(3, 1.01)

    def test_four_disk_boundary(self):
        assert positivity_by_t(4, 0.8)
        assert not positivity_by_t(4, 0.82)

    def test_agrees_with_floating_cholesky(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 9)
            r = rng.uniform(0.05, 1.6)
            sign_exact = positivity_by_t(n, r)
            report = is_positive_definite(build_q_matrix(regular_collection(n, r)))
            assert sign_exact == report.is_positive

    @pytest.mark.parametrize("n", [8, 9, 12, 16, 24, 32, 48, 64])
    def test_floating_decides_a_millionth_from_the_boundary(self, n):
        rho = maximal_radius(n).rho
        for r in (rho * (1 - 1e-6), rho * (1 + 1e-6)):
            report = is_positive_definite(build_q_matrix(regular_collection(n, r)))
            assert report.verdict is not Verdict.INDETERMINATE
            assert report.is_positive == positivity_by_t(n, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            positivity_by_t(1, 0.5)
        with pytest.raises(ValueError):
            positivity_by_t(4, 0.0)


class TestDetFactorization:
    def test_two_disks_unit_radius_is_exactly_eight(self):
        res = det_factorization_check(2, 1.0)
        assert not res.boundary
        assert res.sign_lu == res.sign_formula == 1
        assert res.log_abs_formula == pytest.approx(math.log(8), abs=1e-12)
        assert res.log_relative_error < 1e-12

    def test_three_disks_unit_radius_is_a_boundary(self):
        res = det_factorization_check(3, 1.0)
        assert res.boundary
        assert res.log_relative_error is None and res.signs_agree is None

    def test_a_complex_determinant_raises(self, monkeypatch):
        build = symmetric.build_q_matrix

        def non_hermitian(c):
            m = build(c)
            e = m._e.copy()
            e[0, 1] *= 1j
            return HermitianMatrix._built(e, m._log_scale, m._bound)

        monkeypatch.setattr(symmetric, "build_q_matrix", non_hermitian)
        with pytest.raises(ArithmeticError, match="^determinant of a Hermitian matrix must be real$"):
            det_factorization_check(4, 0.5)

    def test_six_disks(self):
        res = det_factorization_check(6, 0.37)
        assert res.signs_agree
        assert res.log_relative_error < 1e-8

    def test_random_radii_across_sizes(self):
        rng = random.Random(5)
        for n in range(2, 17):
            for _ in range(3):
                res = det_factorization_check(n, rng.uniform(0.05, 1.4))
                if res.boundary:
                    continue
                assert res.signs_agree, (n, res)
                assert res.log_relative_error < 1e-7, (n, res)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            det_factorization_check(65, 0.5)
        with pytest.raises(ValueError):
            det_factorization_check(4, -0.5)


def test_regular_collection_needs_a_disk():
    with pytest.raises(ValueError, match="^need n >= 1$"):
        regular_collection(0, 0.5)
