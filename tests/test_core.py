import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import naive_q_entry, naive_q_matrix, roots_of_unity
from diskpd.core import (
    DiskCollection,
    GaussianRational,
    HermitianMatrix,
    Verdict,
    build_q_matrix,
    is_admissible,
    is_positive_definite,
    max_uniform_scale,
    overlap_measure,
)
from diskpd.radius import maximal_radius
from diskpd.symmetric import regular_collection


class TestDiskCollection:
    def test_rational_inputs_are_exact(self):
        c = DiskCollection([0, 2], [1, 1])
        assert c.is_exact
        assert c.exact_radii == (Fraction(1), Fraction(1))
        assert c.centers == (0 + 0j, 2 + 0j)

    def test_float_inputs_are_not_exact(self):
        assert not DiskCollection([0.0, 2.0], [1, 1]).is_exact
        assert not DiskCollection([0, 2], [1.5, 1]).is_exact

    def test_pair_and_string_inputs(self):
        c = DiskCollection([("1/2", "-3/4"), (0, 0)], ["2/3", 1])
        assert c.is_exact
        assert c.exact_centers[0] == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        assert c.radii[0] == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskCollection([], [])
        with pytest.raises(ValueError):
            DiskCollection([0, 1], [1])
        with pytest.raises(ValueError):
            DiskCollection([0, 1], [1, 0])
        with pytest.raises(ValueError):
            DiskCollection([0, 1], [1, -2])
        with pytest.raises(ValueError):
            DiskCollection([0, 0], [1, 1])
        with pytest.raises(ValueError):
            DiskCollection([complex(math.nan, 0), 1], [1, 1])
        with pytest.raises(ValueError):
            DiskCollection([0, 1], [math.inf, 1])

    def test_scaled_keeps_exactness_for_rational_factors(self):
        c = DiskCollection([0, 2], [1, 1])
        assert c.scaled(Fraction(1, 2)).is_exact
        assert not c.scaled(0.5).is_exact
        assert c.scaled(0.5).radii == (0.5, 0.5)

    def test_subcollection(self):
        c = DiskCollection([0, 2, 4], [1, 2, 3])
        sub = c.subcollection([0, 2])
        assert sub.centers == (0 + 0j, 4 + 0j)
        assert sub.radii == (1.0, 3.0)


class TestBuildQMatrix:
    def test_single_disk(self):
        q = build_q_matrix(DiskCollection([0], [1]))
        assert q.order == 1
        assert q.entry(0, 0) == GaussianRational(Fraction(1))

    def test_two_disks_frozen_and_oracle(self):
        c = DiskCollection([0, 2], [1, 1])
        q = build_q_matrix(c)
        expected = [[3, -1], [-1, 3]]
        for i in range(2):
            for j in range(2):
                assert q.entry(i, j) == GaussianRational(Fraction(expected[i][j]))
                oracle = naive_q_entry([0j, 2 + 0j], [1.0, 1.0], i, j)
                assert complex(q.entry(i, j)) == pytest.approx(oracle, abs=1e-12)

    def test_cube_roots_diagonal_entry(self):
        centers = [cmath.exp(2j * math.pi * k / 3) for k in (1, 2, 3)]
        q = build_q_matrix(DiskCollection(centers, [0.5] * 3))
        # r^2 (3 - r^2)^2 at r = 1/2
        assert q.entry(0, 0).real == pytest.approx(1.890625, abs=1e-12)
        assert q.entry(0, 0).imag == 0.0

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 6)
            centers = []
            while len(centers) < n:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(z - w) > 0.2 for w in centers):
                    centers.append(z)
            radii = [rng.uniform(0.1, 1.5) for _ in range(n)]
            q = build_q_matrix(DiskCollection(centers, radii))
            for i in range(n):
                for j in range(n):
                    want = naive_q_entry(centers, radii, i, j)
                    assert q.entry(i, j) == pytest.approx(want, rel=1e-11, abs=1e-11)
            qn = q.to_numpy()
            assert (qn == qn.conj().T).all()

    def test_blocked_product_matches_naive_oracle(self):
        # n = 40 multiplies the factors in several blocks of k
        rng = random.Random(5)
        centers = [complex(k % 8, k // 8) + complex(rng.uniform(-0.2, 0.2), 0) for k in range(40)]
        radii = [rng.uniform(0.1, 0.3) for _ in range(40)]
        qn = build_q_matrix(DiskCollection(centers, radii)).to_numpy()
        want = np.array(naive_q_matrix(centers, radii))
        assert np.abs(qn - want).max() <= 1e-12 * np.abs(want).max()
        assert (qn == qn.conj().T).all()


class TestAdmissibility:
    def test_frozen_cases(self):
        assert is_admissible(DiskCollection([0, 2], [1, 1]))
        # boundary |a_2 - a_1| = R_1 is inadmissible (strict), decided exactly
        assert not is_admissible(DiskCollection([0, 2], [2, 1]))
        centers = roots_of_unity(3)
        assert is_admissible(DiskCollection(centers, [1.7] * 3))
        assert not is_admissible(DiskCollection(centers, [1.8] * 3))

    def test_single_disk_is_admissible(self):
        assert is_admissible(DiskCollection([5], [3]))


class TestPositivity:
    def test_identity_matrix(self):
        m = HermitianMatrix([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        report = is_positive_definite(m)
        assert report.verdict is Verdict.POSITIVE_DEFINITE
        assert report.pivots == (1.0, 1.0, 1.0)

    def test_frozen_two_by_two(self):
        m = HermitianMatrix([[3.0, -1.0], [-1.0, 3.0]])
        assert is_positive_definite(m).verdict is Verdict.POSITIVE_DEFINITE
        assert m.eigenvalues() == pytest.approx([2.0, 4.0])

    def test_two_disks_past_the_boundary(self):
        r = math.sqrt(2) + 0.01
        q = build_q_matrix(DiskCollection([0.0, 2.0], [r, r]))
        assert is_positive_definite(q).verdict is Verdict.NOT_POSITIVE_DEFINITE

    def test_negative_diagonal_certificate(self):
        m = HermitianMatrix([[1.0, 0.0], [0.0, -5.0]])
        report = is_positive_definite(m)
        assert report.verdict is Verdict.NOT_POSITIVE_DEFINITE
        assert report.failing_index == 1
        assert report.pivots[-1] == -5.0

    def test_indeterminate_band(self):
        m = HermitianMatrix([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        report = is_positive_definite(m, tol=1e-10)
        assert report.verdict is Verdict.INDETERMINATE

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianMatrix([[1.0, 2.0], [3.0, 1.0]])

    def test_tolerance_validation(self):
        m = HermitianMatrix([[1.0]])
        with pytest.raises(ValueError):
            is_positive_definite(m, tol=0.0)
        with pytest.raises(ValueError):
            is_positive_definite(m, mode="bogus")

    def test_exact_mode_minors(self):
        q = build_q_matrix(DiskCollection([0, 2], [1, 1]))
        report = is_positive_definite(q, mode="exact")
        assert report.verdict is Verdict.POSITIVE_DEFINITE
        assert report.minors == (Fraction(3), Fraction(8))
        assert report.tolerance_used == 0.0

    def test_exact_mode_not_positive(self):
        q = build_q_matrix(DiskCollection([0, 2], [Fraction(3, 2), Fraction(3, 2)]))
        report = is_positive_definite(q, mode="exact")
        assert report.verdict is Verdict.NOT_POSITIVE_DEFINITE
        assert report.failing_index == 1
        assert report.minors[1] <= 0

    def test_exact_mode_requires_rational_entries(self):
        q = build_q_matrix(DiskCollection([0.0, 2.0], [1, 1]))
        with pytest.raises(ValueError, match="exact"):
            is_positive_definite(q, mode="exact")

    def test_exact_agrees_with_floating_off_boundary(self):
        cases = [
            ([0, 2, (1, 2)], [1, 1, 1]),
            ([0, 3, (0, 3)], [2, 1, 1]),
            ([0, 2, 4], [Fraction(1, 2), 3, Fraction(1, 2)]),
        ]
        for centers, radii in cases:
            q = build_q_matrix(DiskCollection(centers, radii))
            exact = is_positive_definite(q, mode="exact").verdict
            floating = is_positive_definite(q, mode="floating").verdict
            assert exact is floating

    def test_zero_matrix_is_not_positive(self):
        m = HermitianMatrix([[0.0, 0.0], [0.0, 0.0]])
        assert is_positive_definite(m).verdict is Verdict.NOT_POSITIVE_DEFINITE

    def test_single_disk_positive_for_any_radius(self):
        for r in (1e-9, 1.0, 1e6):
            q = build_q_matrix(DiskCollection([0.0], [r]))
            assert is_positive_definite(q).verdict is Verdict.POSITIVE_DEFINITE

    @pytest.mark.parametrize("n", [30, 60])
    def test_collinear_disks_far_apart_are_positive(self, n):
        # disjoint collinear disks, positive by scale invariance; at spacing
        # 100 their Q entries overflow (n = 30) or become NaN (n = 60)
        c = DiskCollection([100.0 * k for k in range(n)], [10.0] * n)
        report = is_positive_definite(build_q_matrix(c))
        assert report.verdict is Verdict.POSITIVE_DEFINITE
        assert len(report.pivots) == n
        assert all(math.isfinite(p) for p in report.pivots)

    def test_large_shifted_polygon_past_rho_is_not_positive(self):
        base = regular_collection(32, 1.05 * maximal_radius(32).rho)
        c = DiskCollection(
            [1e3 * z + complex(3e3, -2e3) for z in base.centers], [1e3 * r for r in base.radii]
        )
        assert is_positive_definite(build_q_matrix(c)).verdict is Verdict.NOT_POSITIVE_DEFINITE

    def test_small_polygon_below_rho_is_positive(self):
        base = regular_collection(64, 0.9 * maximal_radius(64).rho)
        c = DiskCollection([1e-3 * z for z in base.centers], [1e-3 * r for r in base.radii])
        assert is_positive_definite(build_q_matrix(c)).verdict is Verdict.POSITIVE_DEFINITE

    def test_verdict_and_pivots_do_not_depend_on_the_scale(self):
        base = regular_collection(32, 1.05 * maximal_radius(32).rho)
        reports = [
            is_positive_definite(
                build_q_matrix(
                    DiskCollection(
                        [math.ldexp(1.0, k) * z for z in base.centers],
                        [math.ldexp(r, k) for r in base.radii],
                    )
                )
            )
            for k in (0, -30, -7, 5, 30)
        ]
        assert reports[0].verdict is Verdict.NOT_POSITIVE_DEFINITE
        assert all(r == reports[0] for r in reports[1:])

    def test_tangent_center_gives_a_zero_diagonal(self):
        # |a_1 - a_0| = R_0: Q_11 = 0 next to positive diagonal entries
        q = build_q_matrix(DiskCollection([0.0, 2.0], [2.0, 1.0]))
        assert q.entry(1, 1) == 0
        assert is_positive_definite(q).verdict is Verdict.NOT_POSITIVE_DEFINITE

    def test_coordinates_near_the_double_range(self):
        # Q itself over- or underflows; its verdict is that of the unit-scale copy
        base = regular_collection(8, 0.9 * maximal_radius(8).rho)
        want = is_positive_definite(build_q_matrix(base))
        for t in (1e-300, 1e300, 1e-310):
            c = DiskCollection([t * z for z in base.centers], [t * r for r in base.radii])
            got = is_positive_definite(build_q_matrix(c))
            assert got.verdict is Verdict.POSITIVE_DEFINITE
            if t > 1e-308:  # subnormal coordinates carry fewer digits
                assert got.pivots == pytest.approx(want.pivots, rel=1e-12)


class TestOverlapMeasure:
    def test_tangent_disks(self):
        assert overlap_measure(DiskCollection([0, 2], [1, 1])) == pytest.approx(1.0)

    def test_square_collection(self):
        c = DiskCollection(roots_of_unity(4), [0.5] * 4)
        assert overlap_measure(c) == pytest.approx(0.5 / math.sin(math.pi / 4), abs=1e-12)

    def test_cube_roots(self):
        c = DiskCollection(roots_of_unity(3), [1] * 3)
        assert overlap_measure(c) == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_needs_two_disks(self):
        with pytest.raises(ValueError):
            overlap_measure(DiskCollection([0], [1]))


class TestMaxUniformScale:
    def test_two_disks(self):
        s = max_uniform_scale(DiskCollection([-1, 1], [1, 1]))
        assert s == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_equilateral_triangle(self):
        s = max_uniform_scale(DiskCollection(roots_of_unity(3), [1] * 3))
        assert s == pytest.approx(1.0, abs=1e-8)

    def test_unit_square(self):
        c = DiskCollection([0, 2, 2 + 2j, 2j], [1, 1, 1, 1])
        assert max_uniform_scale(c) == pytest.approx(math.sqrt(2 / 3) * math.sqrt(2), abs=1e-8)

    def test_scale_is_monotone_boundary(self):
        c = DiskCollection([-1, 1], [1, 1])
        s = max_uniform_scale(c)
        assert is_positive_definite(build_q_matrix(c.scaled(s * 0.999))).is_positive
        assert not is_positive_definite(build_q_matrix(c.scaled(s * 1.001))).is_positive

    def test_single_disk_has_no_finite_scale(self):
        assert max_uniform_scale(DiskCollection([0], [1])) == math.inf

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            max_uniform_scale(DiskCollection([0, 2], [1, 1]), tol=-1)

    def test_scale_far_above_one_terminates(self):
        # the bisection midpoint stops falling strictly between adjacent doubles
        s = max_uniform_scale(DiskCollection([0.0, 2.0], [1e-5, 1e-5]))
        assert s == pytest.approx(2 / math.sqrt(2e-10), rel=1e-9)


class TestHermitianMatrix:
    def test_eigenvalues_match_numpy(self):
        rows = [[2.0, 1j], [-1j, 2.0]]
        m = HermitianMatrix(rows)
        assert m.eigenvalues() == pytest.approx(
            np.linalg.eigvalsh(np.array(rows)).tolist()
        )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix([[1.0, 2.0]])
