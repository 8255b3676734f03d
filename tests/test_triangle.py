import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diskpd.core import DiskCollection, Verdict, build_q_matrix, is_positive_definite
from diskpd.triangle import (
    phi_reflection_symmetric,
    phi_value,
    triangle_minors,
    triangle_positive,
)
from diskpd.verify import triangle_suite

CENTERS = [cmath.exp(2j * math.pi * k / 3) for k in (1, 2, 3)]


def numeric_minors(x1, x2, x3):
    radii = [math.sqrt(x) for x in (x1, x2, x3)]
    q = build_q_matrix(DiskCollection(CENTERS, radii)).to_numpy()
    return [float(np.linalg.det(q[:k, :k]).real) for k in (1, 2, 3)]


class TestCriterion:
    def test_equal_unit_radii_is_the_boundary(self):
        with pytest.warns(UserWarning, match="boundary"):
            assert triangle_positive(1.0, 1.0, 1.0) is False

    def test_decided_exactly_inside_the_warning_band(self):
        # the rounded sum of the squares is 3.0, the exact one is below 3
        radii = (0.7944001065815915, 0.6812417252050743, 1.3801587526450607)
        assert sum(Fraction(r) ** 2 for r in radii) < 3
        with pytest.warns(UserWarning, match="boundary"):
            assert triangle_positive(*radii) is True
        rng = random.Random(5)
        for _ in range(1000):
            r1, r2 = rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2)
            r3 = math.sqrt(3 - r1 * r1 - r2 * r2)
            for r in (math.nextafter(r3, 0), r3, math.nextafter(r3, 2)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    closed = triangle_positive(r1, r2, r)
                assert closed == (Fraction(r1) ** 2 + Fraction(r2) ** 2 + Fraction(r) ** 2 < 3)

    def test_slightly_smaller_is_positive(self):
        assert triangle_positive(0.9, 0.9, 0.9)

    def test_unequal_radii_beyond_rho3(self):
        # R_1 exceeds the symmetric maximal radius, yet the collection is
        # positive; cross-checked against the generic floating decision
        assert triangle_positive(1.5, 0.5, 0.5)
        q = build_q_matrix(DiskCollection(CENTERS, [1.5, 0.5, 0.5]))
        assert is_positive_definite(q).verdict is Verdict.POSITIVE_DEFINITE

    def test_inadmissible_radius_names_the_index(self):
        with pytest.raises(ValueError, match="R2"):
            triangle_positive(0.5, 1.8, 0.5)
        with pytest.raises(ValueError, match="R3"):
            triangle_positive(0.5, 0.5, -1.0)

    def test_agreement_with_generic_test(self):
        rng = random.Random(17)
        rmax = math.sqrt(3) - 0.05
        for _ in range(1500):
            radii = [rng.uniform(0.05, rmax) for _ in range(3)]
            if abs(sum(r * r for r in radii) - 3.0) < 1e-6:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                closed = triangle_positive(*radii)
            q = build_q_matrix(DiskCollection(CENTERS, radii))
            assert closed == (is_positive_definite(q).verdict is Verdict.POSITIVE_DEFINITE)


class TestMinors:
    def test_frozen_equal_radii(self):
        d1, d2, d3 = triangle_minors(1, 1, 1)
        assert (d1, d3) == (4, 0)
        assert d2 == 9

    def test_match_numeric_minors(self):
        rng = random.Random(23)
        for _ in range(400):
            xs = [rng.uniform(0.05, 2.9) for _ in range(3)]
            closed = triangle_minors(*xs)
            numeric = numeric_minors(*xs)
            for cf, num in zip(closed, numeric):
                assert abs(cf - num) <= 1e-9 * max(1.0, abs(num)), (xs, closed, numeric)

    def test_specific_sample_against_oracle(self):
        closed = triangle_minors(0.4, 1.1, 0.7)
        numeric = numeric_minors(0.4, 1.1, 0.7)
        for cf, num in zip(closed, numeric):
            assert cf == pytest.approx(num, rel=1e-9)

    def test_exact_arithmetic_passthrough(self):
        d1, d2, d3 = triangle_minors(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
        assert isinstance(d1, Fraction) and isinstance(d3, Fraction)
        num = numeric_minors(0.5, 1 / 3, 0.25)
        assert float(d2) == pytest.approx(num[1], rel=1e-9)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="x2"):
            triangle_minors(1.0, 3.0, 1.0)
        with pytest.raises(ValueError, match="x1"):
            triangle_minors(0.0, 1.0, 1.0)


class TestPhi:
    def test_face_restriction_factorizes(self):
        # phi on the x3 = 0 face equals (3 - x1)(3 - x2), exactly
        for x1 in (Fraction(1, 3), Fraction(2), Fraction(5, 2)):
            for x2 in (Fraction(1, 7), Fraction(3, 2)):
                assert phi_value(x1, x2, 0) == (3 - x1) * (3 - x2)

    def test_reflection_symmetry_exact(self):
        assert phi_reflection_symmetric()

    def test_boundary_value_at_equal_radii(self):
        assert phi_value(1, 1, 1) == 3


def test_suite_report_at_seed_one():
    details = [check.detail for check in triangle_suite(seed=1)[:2]]
    assert details == ["10000 samples, 0 mismatches", "worst relative deviation 4.501e-14"]
