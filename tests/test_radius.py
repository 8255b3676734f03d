import hashlib
import math
from fractions import Fraction

import pytest
import scipy.special

from diskpd.core import max_uniform_scale
from diskpd.radius import (
    asymptotic_report,
    bessel_j1,
    bessel_j1_first_zero,
    central_polynomial,
    maximal_radius,
    rho_bounds,
)
from diskpd.symmetric import positivity_by_t, regular_collection, t_polynomial
from diskpd.verify import radius_suite


class TestMaximalRadius:
    def test_golden_values(self):
        assert maximal_radius(2).rho == pytest.approx(math.sqrt(2), abs=1e-12)
        assert maximal_radius(3).rho == pytest.approx(1.0, abs=1e-12)
        assert maximal_radius(4).rho == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert maximal_radius(5).rho == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_four_disk_interval_brackets_the_exact_root(self):
        lo, hi = maximal_radius(4).isolating_interval
        assert lo < Fraction(-1, 3) <= hi

    def test_five_disk_interval_brackets_the_exact_root(self):
        lo, hi = maximal_radius(5).isolating_interval
        assert lo < Fraction(-1, 2) <= hi

    def test_rho_squared_is_one_plus_mu(self):
        for n in (2, 3, 4, 7, 12):
            res = maximal_radius(n)
            assert res.rho**2 == pytest.approx(1 + res.mu, abs=1e-12)

    def test_interval_width_tracks_precision(self):
        res = maximal_radius(9, 1e-20)
        lo, hi = res.isolating_interval
        assert hi - lo <= Fraction(1, 10**19)

    def test_pinned_intervals_up_to_64(self):
        intervals = [maximal_radius(n).isolating_interval for n in range(4, 65)]
        digest = hashlib.sha256(repr(intervals).encode()).hexdigest()
        assert digest == "248febd00d0e8d6fd31ff7a7e26882de5415879ea3680c12f16a380568352ad9"

    def test_pinned_interval_for_256(self):
        assert maximal_radius(256).isolating_interval == (
            Fraction(-4397061294309, 2**42),
            Fraction(-17588245177235, 2**44),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            maximal_radius(1)
        with pytest.raises(ValueError):
            maximal_radius(6, precision=0.0)

    @pytest.mark.parametrize("precision", [-1.0, math.nan, math.inf, 1e-400], ids=["-1", "nan", "inf", "1e-400"])
    def test_precision_must_be_positive_and_finite(self, precision):
        with pytest.raises(ValueError, match="positive and finite"):
            maximal_radius(8, precision)


class TestCentralPolynomial:
    @pytest.mark.parametrize("n", range(4, 14))
    def test_proportional_to_the_middle_eigenvalue_polynomial(self, n):
        nu = n // 2
        central = central_polynomial(n)
        t = t_polynomial(n, n - nu)
        ratio = t.leading_coefficient / central.leading_coefficient
        assert t == ratio * central

    def test_needs_two_disks(self):
        with pytest.raises(ValueError, match="^need n >= 2$"):
            central_polynomial(1)

    def test_frozen_four_disk_case(self):
        # (3z^2 + 4z + 1)/3 = (3z+1)(z+1)/3
        assert central_polynomial(4).coefficients == (
            Fraction(1, 3),
            Fraction(4, 3),
            Fraction(1),
        )


class TestBounds:
    def test_three_disks_lower_equality(self):
        lower, upper = rho_bounds(3)
        assert lower == pytest.approx(1.0)
        assert upper == math.inf
        assert maximal_radius(3).rho == pytest.approx(lower, abs=1e-12)

    def test_five_disks_upper_equality(self):
        lower, upper = rho_bounds(5)
        assert upper == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert maximal_radius(5).rho == pytest.approx(upper, abs=1e-12)
        # the two bounds coincide at n = 5 and pinch rho_5 exactly
        assert lower == pytest.approx(upper, abs=1e-15)

    def test_four_disks_strictly_bracketed(self):
        lower, upper = rho_bounds(4)
        rho = maximal_radius(4).rho
        assert lower == pytest.approx(math.sin(math.pi / 4), abs=1e-15)
        assert upper == pytest.approx(math.sin(3 * math.pi / 8), abs=1e-15)
        assert lower + 1e-6 < rho < upper - 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            rho_bounds(2)


class TestBesselZero:
    def test_six_decimal_value(self):
        assert round(bessel_j1_first_zero(), 6) == 3.831706

    def test_residual_is_tiny(self):
        z = bessel_j1_first_zero()
        assert abs(bessel_j1(z)) < 1e-12

    def test_zero_at_origin_is_excluded(self):
        assert bessel_j1(0.0) == 0.0
        assert bessel_j1_first_zero() > 3.0

    def test_series_against_scipy(self):
        for x in (0.1, 0.7, 1.9, 3.3, 4.9, 5.0, -5.0):
            assert bessel_j1(x) == pytest.approx(scipy.special.j1(x), abs=1e-14)

    @pytest.mark.parametrize("x", [5.0000001, -5.0000001, 60.0, math.inf, math.nan])
    def test_series_refuses_where_it_is_not_accurate(self, x):
        # the float series gave 7.3e7 at 60, where J_1(60) = 0.0466
        with pytest.raises(ValueError, match=rf"^bessel_j1 is accurate for \|x\| <= 5 only, got {x!r}$"):
            bessel_j1(x)

    def test_zero_against_scipy(self):
        want = scipy.special.jn_zeros(1, 1)[0]
        assert bessel_j1_first_zero() == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            bessel_j1_first_zero(precision=-1.0)

    @pytest.mark.parametrize("precision", [-1.0, 0.0, math.nan, math.inf], ids=["-1", "0", "nan", "inf"])
    def test_precision_must_be_positive_and_finite(self, precision):
        with pytest.raises(ValueError, match="positive and finite"):
            bessel_j1_first_zero(precision)


class TestAsymptoticReport:
    def test_small_overlap_coefficients(self):
        report = asymptotic_report([2, 3])
        assert report.rows[0].beta == pytest.approx(math.sqrt(2), abs=1e-12)
        assert report.rows[1].beta == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_limit_targets(self):
        report = asymptotic_report([4])
        assert round(report.bessel_zero, 6) == 3.831706
        assert report.beta_limit == pytest.approx(1.219669891, abs=1e-9)

    def test_n_rho_column(self):
        report = asymptotic_report([6, 8])
        for row in report.rows:
            assert row.n_rho == pytest.approx(row.n * row.rho)


class TestSuiteAndConsistency:
    def test_brute_force_agreement_for_seven(self):
        exact = maximal_radius(7).rho
        brute = max_uniform_scale(regular_collection(7, 1.0))
        assert abs(exact - brute) < 1e-8

    def test_scale_search_returns_a_positive_scale(self):
        # the bisection midpoint for n = 48 lies above rho_48
        s = max_uniform_scale(regular_collection(48, 1.0))
        assert positivity_by_t(48, s)

    def test_radius_suite_to_sixteen(self):
        results = radius_suite(nmax=16)
        for check in results:
            assert check.passed or check.informational, check
