import ast
import cmath
import dataclasses
import decimal
import hashlib
import itertools
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import naive_q_entry, naive_q_matrix, roots_of_unity
from diskpd import cli, core, verify
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
from diskpd.verify import core_suite


def fraction_q(centers, radii):
    """Q from its definition, entries as (re, im) Fraction pairs."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    n = len(centers)
    q = [[None] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        prod = (Fraction(-1), Fraction(0))
        for (xk, yk), rk in zip(centers, radii):
            u = (centers[i][0] - xk, centers[i][1] - yk)
            v = (centers[j][0] - xk, -(centers[j][1] - yk))
            f = mul(u, v)
            prod = mul(prod, (f[0] - rk * rk, f[1]))
        q[i][j] = prod
    return q


def leibniz_minors(q):
    """Leading principal minors of a matrix of (re, im) Fraction pairs, each
    a sum over permutations."""
    minors = []
    for k in range(1, len(q) + 1):
        re = im = Fraction(0)
        for perm in itertools.permutations(range(k)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            tr, ti = Fraction((-1) ** inversions), Fraction(0)
            for i, j in enumerate(perm):
                er, ei = q[i][j]
                tr, ti = tr * er - ti * ei, tr * ei + ti * er
            re, im = re + tr, im + ti
        assert im == 0
        minors.append(re)
    return minors


def certificate_of(minors):
    """The certificate ends at the first zero minor."""
    return tuple(minors[: minors.index(0) + 1] if 0 in minors else minors)


RATIONAL_CENTERS = [(Fraction(1, 3), Fraction(-2, 7)), 5, GaussianRational(Fraction(1, 9))]


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
        c = DiskCollection(["1/2", "3"], ["1", "1"])  # a "p/q" center need not be a pair
        assert c.exact_centers == (GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(3)))
        assert c.centers == (0.5 + 0j, 3 + 0j)

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

    @pytest.mark.parametrize(
        "centers, radii, message",
        [
            ([(Fraction(10**400), 0)], [1], "center 0 is not finite as a double"),
            ([0, 1], [1, Fraction(10**400)], "radius 1 is not finite as a double"),
            ([0, 1], [1, Fraction(1, 10**400)], "radius 1 is not positive as a double"),
            ([10**400, 0], [1, 1], "center 0 is not finite as a double"),
            ([0, GaussianRational(Fraction(10**400))], [1, 1], "center 1 is not finite as a double"),
        ],
    )
    def test_rejections_name_the_disk_without_its_digits(self, centers, radii, message):
        with pytest.raises(ValueError) as info:
            DiskCollection(centers, radii)
        assert str(info.value) == message
        assert len(str(info.value)) < 80

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
        with pytest.raises(ValueError, match="^a disk collection needs at least one disk$"):
            c.subcollection([])

    @pytest.mark.parametrize(
        "centers, radii, factor",
        [
            ([0.1 - 0.0j, -0.0 + 2j, 3e-310], [0.7, 1e-300, 5.5], 0.37),
            (RATIONAL_CENTERS, [Fraction(1, 10), 2, "3/11"], Fraction(3, 7)),
            (RATIONAL_CENTERS, [Fraction(1, 10), 2, "3/11"], 0.37),
        ],
        ids=["float", "exact", "exact-by-float"],
    )
    def test_scaled_and_subcollection_views_are_the_constructors(self, centers, radii, factor):
        # both pass the stored views on, reading only new radii
        def views(d):
            return repr((d.centers, d.radii, d.exact_centers, d.exact_radii))

        c = DiskCollection(centers, radii)
        exact = c.is_exact and isinstance(factor, Fraction)
        scaled_radii = [r * factor for r in (c.exact_radii if exact else c.radii)]
        want = DiskCollection(c.exact_centers if exact else c.centers, scaled_radii)
        assert views(c.scaled(factor)) == views(want)
        pick = [2, 0]
        given = (c.exact_centers, c.exact_radii) if c.is_exact else (c.centers, c.radii)
        want = DiskCollection(*([view[i] for i in pick] for view in given))
        assert views(c.subcollection(pick)) == views(want)

    def test_scaled_radius_beyond_the_double_range_is_named(self):
        c = DiskCollection([0, 3], [1, Fraction(10**300)])
        with pytest.raises(ValueError, match="^radius 1 is not finite as a double$"):
            c.scaled(Fraction(10**10))
        with pytest.raises(ValueError, match="^radius 1 is not finite as a double$"):
            c.scaled(1e10)

    def test_max_uniform_scale_is_that_of_constructed_scalings(self, monkeypatch):
        collections = [
            seeded_collection(5),
            regular_collection(7, 1.0),
            DiskCollection([0, 3, 1j], [Fraction(1, 2), 1, "1/3"]),
        ]
        got = [max_uniform_scale(c) for c in collections]
        monkeypatch.setattr(
            DiskCollection, "scaled", lambda self, s: DiskCollection(self.centers, [r * s for r in self.radii])
        )
        assert got == [max_uniform_scale(c) for c in collections]

    def test_repr(self):
        assert repr(DiskCollection([0, 2], [Fraction(1, 2), 1])) == "DiskCollection(n=2, exact=True)"
        assert repr(DiskCollection([0, 2], [0.5, 1])) == "DiskCollection(n=2, exact=False)"


F, G = Fraction, GaussianRational

#: (label, centers, radii, views): the pinned views (centers, radii,
#: exact_centers, exact_radii, is_exact) of each kind of accepted input,
#: compared by repr, which shows types and signed zeros
READER_TABLE = [
    ("complex", [1 + 2j, -0.5j, 0j], [0.25, 1.0, 2.5],
     ((1 + 2j, -0.5j, 0j), (0.25, 1.0, 2.5), None, None, False)),
    ("numpy complex", [np.complex128(1 - 2j), np.complex128(3)], [1.0, 2.0],
     ((1 - 2j, 3 + 0j), (1.0, 2.0), None, None, False)),
    ("float", [0.0, 2.5, -1e-300], [0.5, 1.5, 1e300],
     ((0j, 2.5 + 0j, complex(-1e-300, 0)), (0.5, 1.5, 1e300), None, None, False)),
    ("int", [0, 3, -7], [1, 2, 10**20],
     ((0j, 3 + 0j, -7 + 0j), (1.0, 2.0, 1e20), (G(F(0), F(0)), G(F(3), F(0)), G(F(-7), F(0))),
      (F(1), F(2), F(10**20)), True)),
    ("Fraction", [F(1, 2), F(-7, 3)], [F(1, 3), F(5, 4)],
     ((0.5 + 0j, -2.3333333333333335 + 0j), (0.3333333333333333, 1.25),
      (G(F(1, 2), F(0)), G(F(-7, 3), F(0))), (F(1, 3), F(5, 4)), True)),
    ("decimal strings", ["0.5", "-1.25", "1e-3"], ["0.1", "2.5", "7"],
     ((0.5 + 0j, -1.25 + 0j, 0.001 + 0j), (0.1, 2.5, 7.0),
      (G(F(1, 2), F(0)), G(F(-5, 4), F(0)), G(F(1, 1000), F(0))), (F(1, 10), F(5, 2), F(7)), True)),
    ("p/q strings in pairs", [("1/3", "-2/7"), ("5/2", "0")], ["1/3", "3/4"],
     ((0.3333333333333333 - 0.2857142857142857j, 2.5 + 0j), (0.3333333333333333, 0.75),
      (G(F(1, 3), F(-2, 7)), G(F(5, 2), F(0))), (F(1, 3), F(3, 4)), True)),
    ("exact pairs", [(1, F(1, 2)), ("0.25", 3), (F(-1, 3), "-2/3")], [F(1, 8), "1/16", 2],
     ((1 + 0.5j, 0.25 + 3j, -0.3333333333333333 - 0.6666666666666666j), (0.125, 0.0625, 2.0),
      (G(F(1), F(1, 2)), G(F(1, 4), F(3)), G(F(-1, 3), F(-2, 3))), (F(1, 8), F(1, 16), F(2)), True)),
    ("mixed pairs", [(1, 0.5), (F(1, 2), "3/4")], [1, 0.5],
     ((1 + 0.5j, 0.5 + 0.75j), (1.0, 0.5), None, None, False)),
    ("exact centers, float radius", [0, 2], [1.5, 1],
     ((0j, 2 + 0j), (1.5, 1.0), None, None, False)),
    ("GaussianRational", [G(F(1, 2), F(-1, 3)), G(F(2))], [1, F(1, 2)],
     ((0.5 - 0.3333333333333333j, 2 + 0j), (1.0, 0.5), (G(F(1, 2), F(-1, 3)), G(F(2), F(0))),
      (F(1), F(1, 2)), True)),
    ("np.float64", [np.float64(0.5), np.float64(-1.5)], [np.float64(0.25), np.float64(1)],
     ((0.5 + 0j, -1.5 + 0j), (0.25, 1.0), None, None, False)),
    ("np.int64", [np.int64(0), np.int64(3)], [np.int64(1), np.int64(2)],
     ((0j, 3 + 0j), (1.0, 2.0), None, None, False)),
    ("bool", [False, True], [True, True], ((0j, 1 + 0j), (1.0, 1.0), None, None, False)),
    ("bool pairs", [(True, 0), (0, 1)], [1, 1], ((1 + 0j, 1j), (1.0, 1.0), None, None, False)),
    ("Decimal", [decimal.Decimal("0.1"), decimal.Decimal(2)], [decimal.Decimal("0.5"), decimal.Decimal(1)],
     ((0.1 + 0j, 2 + 0j), (0.5, 1.0), None, None, False)),
]


@pytest.mark.parametrize("label, centers, radii, views", READER_TABLE, ids=[row[0] for row in READER_TABLE])
def test_readers_keep_every_accepted_input(label, centers, radii, views):
    c = DiskCollection(centers, radii)
    assert repr((c.centers, c.radii, c.exact_centers, c.exact_radii, c.is_exact)) == repr(views)


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


def _stack_cases(n):
    """Collections of n disks for one stack: every scale, real centers with
    zero imaginary parts of both signs, and a tangent center (g = 0)."""
    rng = random.Random(n)
    grid = [complex(k % 8, k // 8) for k in range(n)]
    cases = [
        (
            [scale * (z + complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))) for z in grid],
            [scale * rng.uniform(0.1, 0.9) for _ in grid],
        )
        for scale in (1.0, 1e-300, 1e300, 1e-310)
    ]
    cases.append(([complex(k, -0.0 if k % 2 else 0.0) for k in range(n)], [0.4] * n))
    if n > 1:
        cases.append((grid, [1.0] + [0.3] * (n - 1)))  # |a_1 - a_0| = R_0
    return [DiskCollection(centers, radii) for centers, radii in cases]


class TestStackedBuild:
    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    def test_every_slice_is_the_build_of_one(self, n):
        cases = _stack_cases(n)
        e, log_scale, bound = core._equilibrated(
            np.array([c.centers for c in cases]), np.array([c.radii for c in cases])
        )
        assert e.shape == (len(cases), n, n) and log_scale.shape == bound.shape == (len(cases), n)
        for t, c in enumerate(cases):
            q = build_q_matrix(c)
            assert e[t].tobytes() == q._e.tobytes()
            assert log_scale[t].tobytes() == q._log_scale.tobytes()
            assert bound[t].tobytes() == q._bound.tobytes()
        if n > 1:
            assert e[-1][1, 1] == 0  # the tangent center

    @pytest.mark.parametrize("b", [1, 3, 50])
    def test_batched_factors_match_one_factor_at_a_time(self, b):
        # in every other collection of the stack each disk k > 0 nearly touches a_0
        # (R_k = |a_0 - a_k| (1 + 1e-15 x), |x| < 1), so that E_00 is a product of
        # factors near 1e16 and overflows at n = 45 to 70; 2^+-1000 moves every
        # input near the ends of the double range
        rng = np.random.default_rng(b)
        for n in [*range(1, 19), 23, 31, 32, 33, 45, 64, 70]:
            a = rng.uniform(-1, 1, (b, n)) + 1j * rng.uniform(-1, 1, (b, n))
            d = np.abs(a[:, :, None] - a[:, None, :]) + np.eye(n)
            r = d.min(axis=2) * rng.uniform(0.2, 1.5, (b, n))
            star = slice(n % 2, None, 2)
            r[star, 1:] = d[star, 0, 1:] * (1 + rng.uniform(-1e-15, 1e-15, r[star, 1:].shape))
            for t in (1.0, 2.0**1000, 2.0**-1000):
                with np.errstate(all="ignore"):
                    want = per_factor_equilibrated(a * t, r * t)
                    e = core._equilibrated(a * t, r * t)[0]
                assert e.flags.c_contiguous
                assert e.tobytes() == want.tobytes(), (n, t)

    def test_entry_bound_against_exact_arithmetic(self):
        # E* is the product of the factors in Fraction arithmetic on the
        # computed s_ik, which any positive values keep congruent to Q
        rng = random.Random(12)
        for trial in range(24):
            n = rng.randint(1, 10)
            centers = []
            while len(centers) < n:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(z - w) > 0.05 for w in centers):
                    centers.append(z)
            dmin = min((abs(z - w) for z, w in itertools.combinations(centers, 2)), default=1.0)
            t = math.ldexp(rng.uniform(1, 2), rng.randint(-40, 40))
            c = DiskCollection([t * z for z in centers], [t * dmin * rng.uniform(0.3, 1.6) for _ in centers])
            q = build_q_matrix(c)
            want = exact_equilibrated(c)
            for i, j in itertools.product(range(n), repeat=2):
                err_re = Fraction(q._e[i, j].real) - want[i][j][0]
                err_im = Fraction(q._e[i, j].imag) - want[i][j][1]
                assert err_re**2 + err_im**2 <= Fraction(q._bound[i]) ** 2 * Fraction(q._bound[j]) ** 2

    def test_rounded_inputs_get_an_infinite_bound(self):
        # bringing 1e300 to [1/2, 1) rounds the subnormal 1e-300 * 2^-997
        q = build_q_matrix(DiskCollection([0, 1e300], [1e-300 * 3, 1.0]))
        assert np.isinf(q._bound).all()
        report = is_positive_definite(q)
        assert report.verdict is Verdict.INDETERMINATE and report.pivots == ()


def per_factor_equilibrated(a, r):
    """E of core._equilibrated formed one rank-2 factor at a time, one
    matrix product and one multiplication per k: the reference that the
    batched products must match bit for bit."""
    b, n = a.shape
    top = np.maximum(np.hypot(a.real, a.imag), r).max(axis=1, initial=0.5**1001)
    unit = np.ldexp(1.0, -np.frexp(top)[1][:, None])
    a, r = a * unit, r * unit
    pairs = np.empty((b, n, n, 2), dtype=complex)
    w = np.subtract(a[:, None, :], a[:, :, None], out=pairs[..., 0])
    s = w.real * w.real
    s += w.imag * w.imag
    s -= (r * r)[:, :, None]
    np.sqrt(np.abs(s, out=s), out=s)
    s[s == 0] = 1.0
    w.real /= s
    w.imag /= s
    pairs[..., 1] = np.divide(r[:, :, None], s, out=s)
    e = np.ones((b, n, n), dtype=complex)
    f = np.empty_like(e)
    sign = np.array([1.0, -1.0])
    for k in range(n):
        p = pairs[:, k]
        e *= np.matmul(p * sign, p.conj().swapaxes(1, 2), out=f)
    h = np.conjugate(e.swapaxes(1, 2), out=f)
    h += e
    h *= -0.5
    return h


def exact_equilibrated(c):
    """E* = -prod_k F_k in Fraction arithmetic, from the s_ik that the
    build computes (the same power-of-two shift and float operations)."""
    a, r = np.array(c.centers), np.array(c.radii)
    top = max(np.hypot(a.real, a.imag).max(), r.max(), 0.5**1001)
    unit = math.ldexp(1.0, -math.frexp(top)[1])
    a, r = a * unit, r * unit
    d = a[None, :] - a[:, None]
    g = d.real * d.real + d.imag * d.imag - (r * r)[:, None]
    s = np.sqrt(np.abs(g))
    s[s == 0] = 1.0
    x = [(Fraction(z.real), Fraction(z.imag)) for z in a.tolist()]
    rr = [Fraction(v) for v in r.tolist()]
    ss = [[Fraction(v) for v in row] for row in s.tolist()]
    n = len(x)
    out = [[None] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        re, im = Fraction(-1), Fraction(0)
        for k in range(n):
            ur, ui = x[i][0] - x[k][0], x[i][1] - x[k][1]
            vr, vi = x[j][0] - x[k][0], x[j][1] - x[k][1]
            den = ss[k][i] * ss[k][j]
            fr, fi = (ur * vr + ui * vi - rr[k] ** 2) / den, (ui * vr - ur * vi) / den
            re, im = re * fr - im * fi, re * fi + im * fr
        out[i][j] = (re, im)
    return out


def _report_bits(report):
    floats = (report.tolerance_used, *report.pivots)
    return report.verdict, tuple(float(x).hex() for x in floats), report.failing_index


class TestStackedDecision:
    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    def test_every_slice_is_the_decision_of_one(self, n):
        rng = random.Random(n)
        cases = _stack_cases(n)
        grid = [complex(k % 8, k // 8) for k in range(n)]
        for level in (0.2, 0.45, 0.7, 1.2, 2.0):  # positive and not, some undecided
            cases.append(DiskCollection(grid, [level * rng.uniform(0.8, 1.2) for _ in grid]))
        e, log_scale, bound = core._equilibrated(
            np.array([c.centers for c in cases]), np.array([c.radii for c in cases])
        )
        e[-1, 0, -1] = np.nan  # a non-finite entry
        for tol in (1e-10, 1e-3):
            reports = core._decide_stack(e, core._norm_bound(bound), tol)
            for t in range(len(cases)):
                one = is_positive_definite(HermitianMatrix._built(e[t], log_scale[t], bound[t]), tol=tol)
                assert _report_bits(reports[t]) == _report_bits(one)
        if n > 1:
            assert {r.verdict for r in reports} == set(Verdict)

    def test_triangle_stack_matches_the_decision_of_one(self):
        rng = random.Random(3)
        centers = [cmath.exp(2j * math.pi * k / 3) for k in (1, 2, 3)]
        radii = np.array([[rng.uniform(0.05, 1.68) for _ in range(3)] for _ in range(400)])
        e, log_scale, reports = core._decide_disks(np.broadcast_to(np.array(centers), (400, 3)), radii)
        for t, report in enumerate(reports):
            q = build_q_matrix(DiskCollection(centers, radii[t].tolist()))
            assert e[t].tobytes() == q._e.tobytes()
            assert _report_bits(report) == _report_bits(is_positive_definite(q))


def _decide_disks_cases():
    """Collections of four disks: positive-definite, not (one with a zero
    diagonal entry of E), indeterminate inside the band at rho_4 =
    sqrt(2/3), and inputs that span past the double range."""
    rho = math.sqrt(2 / 3)
    generic = [0, 1.5, 0.3 + 1.1j, -0.8 + 0.6j]
    return [
        regular_collection(4, 0.5),
        DiskCollection(generic, [0.4, 0.5, 0.3, 0.6]),
        regular_collection(4, 1.2),
        DiskCollection([0, 1, 2j, 3 + 1j], [1.0, 0.3, 0.3, 0.3]),  # |a_1 - a_0| = R_0
        regular_collection(4, rho),
        regular_collection(4, rho * (1 + 1e-11)),
        DiskCollection([0, 1e300, 2e300, 3e300], [3e-300, 1.0, 1.0, 1.0]),  # v = inf
    ]


class TestDecideDisks:
    @pytest.mark.parametrize("b", [1, 2, 7])
    def test_every_slice_is_the_build_and_decision_of_one(self, b):
        cases = _decide_disks_cases()
        verdicts = []
        for first in range(0, len(cases), b):
            stack = [cases[(first + k) % len(cases)] for k in range(b)]
            e, log_scale, reports = core._decide_disks(
                np.array([c.centers for c in stack]), np.array([c.radii for c in stack])
            )
            assert len(reports) == b
            for t, c in enumerate(stack):
                q = build_q_matrix(c)
                one = is_positive_definite(q)
                assert e[t].tobytes() == q._e.tobytes()
                assert log_scale[t].tobytes() == q._log_scale.tobytes()
                assert _report_bits(reports[t]) == _report_bits(one)
                verdicts.append(one.verdict)
        assert verdicts.count(Verdict.INDETERMINATE) >= 3 and set(verdicts) == set(Verdict)
        past_range = build_q_matrix(cases[-1])
        assert np.isinf(past_range._bound).all() and is_positive_definite(past_range).pivots == ()

    def test_verify_reaches_no_other_private_part_of_core(self):
        assert private_core_names(verify) == {"_decide_disks"}

    def test_cli_reaches_only_the_readers_of_core(self):
        assert private_core_names(cli) == {"_read_scalar", "_of_views"}


def private_core_names(module) -> set[str]:
    """The _ names of core that a module's source reaches, as core._x,
    imported from core, or as X._x of a name X imported from core."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    imported = {"core"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("core", "diskpd.core"):
            imported.update(alias.name for alias in node.names)
    names = set(imported)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported:
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def _with_smallest_eigenvalue(lam, n=3):
    """Hermitian n x n rows with eigenvalues lam, 1, 2, ...: the 2 x 2 block
    [[1, c w], [c conj(w), 1]] has eigenvalues 1 -+ c."""
    w = cmath.exp(0.7j)
    c = 1.0 - lam
    rows = [[0j] * n for _ in range(n)]
    rows[0][0] = rows[1][1] = 1.0
    rows[0][1], rows[1][0] = c * w, c * w.conjugate()
    for k in range(2, n):
        rows[k][k] = float(k)
    return HermitianMatrix(rows)


class TestCertificates:
    TOL = 1e-6  # delta = tol * max |E_ii| = 2e-6

    def test_smallest_eigenvalue_two_deltas_above_is_positive(self):
        m = _with_smallest_eigenvalue(4e-6)
        report = is_positive_definite(m, tol=self.TOL)
        assert report.verdict is Verdict.POSITIVE_DEFINITE
        delta = report.tolerance_used
        assert delta == 2e-6
        want = np.linalg.cholesky(m.to_numpy() - delta * np.eye(3)).diagonal().real ** 2
        assert report.pivots == tuple(want.tolist())

    def test_smallest_eigenvalue_two_deltas_below_has_a_witness(self):
        m = _with_smallest_eigenvalue(-4e-6)
        report = is_positive_definite(m, tol=self.TOL)
        assert report.verdict is Verdict.NOT_POSITIVE_DEFINITE
        (bound,) = report.pivots
        # the eigenvector of -4e-6 is (1, -conj(w), 0) / sqrt 2: x^H E x = -4e-6
        assert -4e-6 < bound <= -report.tolerance_used
        assert report.failing_index in (0, 1)

    @pytest.mark.parametrize("lam", [1e-6, -1e-6, 0.0])
    def test_inside_the_band_is_indeterminate(self, lam):
        report = is_positive_definite(_with_smallest_eigenvalue(lam), tol=self.TOL)
        assert report.verdict is Verdict.INDETERMINATE
        assert report.tolerance_used == 2e-6

    def test_bounds_are_summed_with_upward_rounding(self):
        assert core._add_up(1.0, 2.0**-60) == math.nextafter(1.0, math.inf)
        assert core._add_up(-5.0, 0.0) == -5.0  # exact sums stay
        assert core._add_up(1.0, -(2.0**-60)) == 1.0

    def test_non_finite_entry_is_indeterminate(self):
        e = np.array([[1.0, 0.0], [0.0, np.nan]], dtype=complex)
        report = is_positive_definite(HermitianMatrix._built(e, np.zeros(2), np.zeros(2)))
        assert report.verdict is Verdict.INDETERMINATE
        assert report.pivots == () and report.failing_index == 1

    def test_rows_carry_no_entry_bound(self):
        m = HermitianMatrix([[2.0, 1j], [-1j, 2.0]])
        assert m._bound.tolist() == [0.0, 0.0]

    def test_exact_matrix_in_floating_mode_carries_its_rounding(self):
        # the off-diagonal 2^60 + 1 rounds to 2^60; u ||Q||_F enters delta
        big = 2**60 + 1
        exact = HermitianMatrix([[GaussianRational(Fraction(v)) for v in row] for row in ((3, big), (big, 5))])
        rounded = HermitianMatrix([[3.0, float(big)], [float(big), 5.0]])
        got = is_positive_definite(exact, tol=1e-300)
        plain = is_positive_definite(rounded, tol=1e-300)
        assert got.verdict is plain.verdict is Verdict.NOT_POSITIVE_DEFINITE
        assert got.tolerance_used - plain.tolerance_used >= 2.0**-53 * math.sqrt(2) * 2.0**60


class TestAdmissibility:
    def test_frozen_cases(self):
        assert is_admissible(DiskCollection([0, 2], [1, 1]))
        # boundary |a_2 - a_1| = R_1 is inadmissible (strict), decided exactly
        assert not is_admissible(DiskCollection([0, 2], [2, 1]))
        centers = roots_of_unity(3)
        assert is_admissible(DiskCollection(centers, [1.7] * 3))
        assert not is_admissible(DiskCollection(centers, [1.8] * 3))

    def test_exact_boundary_with_rational_input(self):
        # |a_2 - a_1| = 5/7 exactly, on a 3-4-5 triangle
        centers = [(0, 0), (Fraction(3, 7), Fraction(4, 7))]
        assert not is_admissible(DiskCollection(centers, [Fraction(5, 7), Fraction(1, 9)]))
        just_inside = Fraction(5, 7) - Fraction(1, 10**30)
        assert is_admissible(DiskCollection(centers, [just_inside, Fraction(1, 9)]))
        assert is_admissible(DiskCollection(centers, [Fraction(1, 9), just_inside]))
        assert not is_admissible(DiskCollection(centers, [Fraction(1, 9), "5/7"]))

    def test_single_disk_is_admissible(self):
        assert is_admissible(DiskCollection([5], [3]))


class TestPositivity:
    def test_identity_matrix(self):
        m = HermitianMatrix([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        report = is_positive_definite(m)
        assert report.verdict is Verdict.POSITIVE_DEFINITE
        # the Cholesky pivots of E - delta I, delta = tol
        assert report.tolerance_used == 1e-10
        assert report.pivots == (0.9999999999, 0.9999999999, 0.9999999999)

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

    @pytest.mark.parametrize("mu", [3.5e-10, 4e-10])
    def test_rows_hermitian_only_up_to_rounding_are_rejected(self, mu):
        # J + mu I with the upper triangle scaled by 1 - 0.999e-12 w_i w_j,
        # w_i = (-1)^i: the Hermitian part has w^T A w / |w|^2 < 0, yet the
        # lower triangle alone, which is all LAPACK reads, is positive definite
        n = 1000
        w = (-1.0) ** np.arange(n)
        a = np.ones((n, n)) + mu * np.eye(n)
        upper = np.triu_indices(n, 1)
        a[upper] *= 1 - 0.999e-12 * np.outer(w, w)[upper]
        assert w @ a @ w / n < -0.9e-10
        with pytest.raises(ValueError, match=r"not Hermitian at \(0,1\)"):
            HermitianMatrix(a.tolist())

    def test_off_diagonal_pair_one_ulp_apart_is_rejected(self):
        with pytest.raises(ValueError, match=r"not Hermitian at \(0,1\)"):
            HermitianMatrix([[2.0, 1.0], [math.nextafter(1.0, 2.0), 2.0]])

    def test_tolerance_validation(self):
        m = HermitianMatrix([[1.0]])
        with pytest.raises(ValueError):
            is_positive_definite(m, tol=0.0)
        with pytest.raises(ValueError):
            is_positive_definite(m, mode="bogus")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("mode", ["floating", "exact"])
    def test_tolerance_must_be_positive_and_finite(self, tol, mode):
        # a NaN tol made NaN pivots and certified r = 0.6 > rho_8 = 0.4608
        q = build_q_matrix(regular_collection(8, 0.6) if mode == "floating" else DiskCollection([0, 2], [1, 1]))
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            is_positive_definite(q, mode=mode, tol=tol)

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


    @pytest.mark.parametrize("n", [3, 8, 16, 32, 64])
    def test_scaling_by_powers_of_two_changes_no_bit(self, n):
        # exact for every input that stays normal: E, v and the verdict
        # stay the same bits, from 2^-1000 to 2^1000
        for level in (0.99, 1.01):
            base = regular_collection(n, level * maximal_radius(n).rho)
            want = build_q_matrix(base)
            verdict = is_positive_definite(want).verdict
            for k in range(-1000, 1001, 50):
                t = math.ldexp(1.0, k)
                got = build_q_matrix(DiskCollection([t * z for z in base.centers], [t * r for r in base.radii]))
                assert got._e.tobytes() == want._e.tobytes()
                assert got._bound.tobytes() == want._bound.tobytes()
                assert is_positive_definite(got).verdict is verdict

    @pytest.mark.parametrize("n", [3, 8, 16, 32, 64])
    def test_no_scale_swaps_the_verdict(self, n):
        # other scales round the inputs: the verdict may move to or from
        # indeterminate, but positive and not positive never swap
        for level in (0.99, 1.01):
            base = regular_collection(n, level * maximal_radius(n).rho)
            want = is_positive_definite(build_q_matrix(base)).verdict
            assert want is (Verdict.POSITIVE_DEFINITE if level < 1 else Verdict.NOT_POSITIVE_DEFINITE)
            for m in range(-300, 301, 20):
                t = 3.0 * 10.0**m
                c = DiskCollection([t * z for z in base.centers], [t * r for r in base.radii])
                assert is_positive_definite(build_q_matrix(c)).verdict in (want, Verdict.INDETERMINATE)


class TestExactDecision:
    def test_minors_match_an_independent_determinant(self):
        rng = random.Random(4)
        verdicts = set()
        for _ in range(16):
            n = rng.randint(2, 6)
            centers = []
            while len(centers) < n:
                z = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(2))
                if z not in centers:
                    centers.append(z)
            radii = [Fraction(rng.randint(1, 12), rng.choice([2, 3, 4, 6])) for _ in range(n)]
            q = build_q_matrix(DiskCollection(centers, radii))
            want = fraction_q(centers, radii)
            assert q.rows == tuple(tuple(GaussianRational(*e) for e in row) for row in want)
            report = is_positive_definite(q, mode="exact")
            assert report.minors == certificate_of(leibniz_minors(want))
            failing = next((k for k, d in enumerate(report.minors) if d <= 0), None)
            assert report.failing_index == failing
            assert report.is_positive is (failing is None)
            verdicts.add(report.verdict)
        assert verdicts == {Verdict.POSITIVE_DEFINITE, Verdict.NOT_POSITIVE_DEFINITE}

    @pytest.mark.parametrize(
        "upper",
        [
            # positive definite, then not: Gaussian-rational entries off the diagonal
            [["2", ("1/2", "-1/3"), ("-5/7", "3/4")], ["3/4", ("1/6", "2/9")], ["5/3"]],
            [["2", ("1/2", "-1/3"), ("-5/7", "3/4")], ["3/4", ("1/6", "2/9")], ["1/5"]],
            # a zero minor of order two
            [["1", "1", ("0", "1/2")], ["1", "0"], ["1"]],
        ],
    )
    def test_matrix_from_gaussian_rational_rows(self, upper):
        def entry(value):
            re, im = value if isinstance(value, tuple) else (value, "0")
            return (Fraction(re), Fraction(im))

        n = len(upper)
        q = [[None] * n for _ in range(n)]
        for i, row in enumerate(upper):
            for j, value in enumerate(row, start=i):
                re, im = entry(value)
                q[i][j], q[j][i] = (re, im), (re, -im)
        m = HermitianMatrix([[GaussianRational(*e) for e in row] for row in q])
        assert m.is_exact
        report = is_positive_definite(m, mode="exact")
        assert report.minors == certificate_of(leibniz_minors(q))
        assert report.verdict is (
            Verdict.POSITIVE_DEFINITE if all(d > 0 for d in report.minors)
            else Verdict.NOT_POSITIVE_DEFINITE
        )

    def test_zero_minor_ends_the_certificate(self):
        # |a_1 - a_0| = R_1, so Q_00 = 0
        report = is_positive_definite(build_q_matrix(DiskCollection([0, 2], [1, 2])), mode="exact")
        assert report.verdict is Verdict.NOT_POSITIVE_DEFINITE
        assert report.minors == (0,)
        assert report.failing_index == 0

    def test_minors_are_invariant_under_translation_and_scale_exactly(self):
        # Q depends on the centers only through their differences and is
        # multiplied by t^(2n) when every center and radius is, so minor k
        # (1-based) is multiplied by t^(2nk)
        rng = random.Random(23)
        collections = [([(0, 0)], [Fraction(5, 3)]), ([(0, 0), (2, 0)], [1, 2])]
        for n in range(1, 9):
            for _ in range(3):
                centers = set()
                while len(centers) < n:
                    centers.add(tuple(Fraction(rng.randint(-40, 40), rng.choice([1, 2, 5, 6])) for _ in range(2)))
                radii = [Fraction(rng.randint(1, 30), rng.choice([1, 3, 4, 10])) for _ in range(n)]
                collections.append((sorted(centers), radii))
        verdicts = set()
        for centers, radii in collections:
            n = len(centers)
            q = build_q_matrix(DiskCollection(centers, radii))
            report = is_positive_definite(q, mode="exact")
            verdicts.add(report.verdict)
            shift = (Fraction(rng.randint(-50, 50), 7), Fraction(rng.randint(-50, 50), 3))
            moved = DiskCollection([(x + shift[0], y + shift[1]) for x, y in centers], radii)
            # one primitive form: the same integers however Q is given
            assert math.gcd(*(v for row in q._upper for pair in row for v in pair)) == 1
            assert build_q_matrix(moved)._upper == HermitianMatrix(q.rows)._upper == q._upper
            got = is_positive_definite(build_q_matrix(moved), mode="exact")
            assert (got.minors, got.verdict, got.failing_index) == (
                report.minors, report.verdict, report.failing_index
            )
            t = Fraction(rng.randint(1, 99), rng.choice([7, 10, 1000]))
            scaled = DiskCollection([(x * t, y * t) for x, y in centers], [r * t for r in radii])
            got = is_positive_definite(build_q_matrix(scaled), mode="exact")
            assert got.minors == tuple(d * t ** (2 * n * k) for k, d in enumerate(report.minors, start=1))
            assert got.verdict is report.verdict and got.failing_index == report.failing_index
            assert is_positive_definite(HermitianMatrix(q.rows), mode="exact").minors == report.minors
            if n <= 6:
                assert report.minors == certificate_of(leibniz_minors(fraction_q(centers, radii)))
        assert verdicts == {Verdict.POSITIVE_DEFINITE, Verdict.NOT_POSITIVE_DEFINITE}

    def test_floating_verdict_agrees_with_exact_on_the_same_values(self):
        # every double is a dyadic rational, so the exact decision on
        # Fraction(x) decides the floating input itself
        rng = random.Random(8)
        verdicts = set()
        for trial in range(30):
            n = rng.randint(2, 12)
            if trial % 2:
                base = regular_collection(n, maximal_radius(n).rho * rng.choice([0.97, 1.03]))
                centers, radii = list(base.centers), list(base.radii)
            else:
                centers = []
                while len(centers) < n:
                    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    if all(abs(z - w) > 0.3 for w in centers):
                        centers.append(z)
                dmin = min(abs(z - w) for z, w in itertools.combinations(centers, 2))
                radii = [dmin * rng.uniform(0.3, 0.8) for _ in range(n)]
            t = math.ldexp(rng.uniform(1, 2), rng.randint(-30, 30))
            c = DiskCollection([t * z for z in centers], [t * r for r in radii])
            floating = is_positive_definite(build_q_matrix(c)).verdict
            if floating is Verdict.INDETERMINATE:
                continue
            exact = DiskCollection(
                [(Fraction(z.real), Fraction(z.imag)) for z in c.centers],
                [Fraction(r) for r in c.radii],
            )
            assert (exact.centers, exact.radii) == (c.centers, c.radii)
            assert is_positive_definite(build_q_matrix(exact), mode="exact").verdict is floating
            verdicts.add(floating)
        assert verdicts == {Verdict.POSITIVE_DEFINITE, Verdict.NOT_POSITIVE_DEFINITE}


    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 24),
        seed=st.integers(0, 2**32),
        level=st.floats(0.2, 1.2),
        exponent=st.integers(-30, 30),
    )
    def test_floating_verdict_agrees_with_exact_up_to_24_disks(self, n, seed, level, exponent):
        # centers and radii on a grid of step 2^(exponent - 8): the same
        # values in both arithmetics, with denominators small enough for
        # exact minors of order 24
        rng = random.Random(seed)
        points = set()
        while len(points) < n:
            points.add((rng.randrange(-256, 256), rng.randrange(-256, 256)))
        points = sorted(points)
        dmin = min(math.dist(p, q) for p, q in itertools.combinations(points, 2))
        radii = [max(1, round(dmin * level * rng.uniform(0.8, 1.2))) for _ in points]
        step = exponent - 8
        c = DiskCollection(
            [complex(math.ldexp(x, step), math.ldexp(y, step)) for x, y in points],
            [math.ldexp(r, step) for r in radii],
        )
        floating = is_positive_definite(build_q_matrix(c)).verdict
        if floating is not Verdict.INDETERMINATE:
            unit = Fraction(2) ** step
            exact = DiskCollection([(x * unit, y * unit) for x, y in points], [r * unit for r in radii])
            assert is_positive_definite(build_q_matrix(exact), mode="exact").verdict is floating


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


def seeded_collection(seed):
    """2 to 10 floating disks with centers at least 0.3 apart in a box of side 6."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    centers = []
    while len(centers) < n:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if all(abs(z - w) > 0.3 for w in centers):
            centers.append(z)
    return DiskCollection(centers, [rng.uniform(0.05, 1.0) for _ in centers])


def reference_scale(c, tol=1e-12):
    """max_uniform_scale by plain bisection, with a decision at every midpoint."""
    def positive(s):
        return is_positive_definite(build_q_matrix(c.scaled(s))).is_positive

    z, r = np.array(c.centers), np.array(c.radii)
    d = np.hypot((z[:, None] - z).real, (z[:, None] - z).imag)
    np.fill_diagonal(d, np.inf)
    hi = float((d / np.hypot(r[:, None], r)).min())
    while positive(hi):
        hi *= 2.0
    lo = hi / 2.0
    while not positive(lo):
        lo /= 2.0
    while hi - lo > tol * min(1.0, hi) and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
    return lo


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

    def test_positivity_is_regained_outside_the_admissible_range(self):
        # B(-3, 5s), B(0, s), B(4, 5s): from s_adm = 3/5 on, center 0 lies in
        # both outer disks, and the collection is positive definite again at 7/8
        def disks(s):
            return DiskCollection([(Fraction(x), Fraction(0)) for x in (-3, 0, 4)], [5 * s, s, 5 * s])

        scales = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1)]
        verdicts = [is_positive_definite(build_q_matrix(disks(s)), mode="exact").verdict for s in scales]
        assert verdicts == [Verdict.POSITIVE_DEFINITE, Verdict.NOT_POSITIVE_DEFINITE] * 2
        first_loss = max_uniform_scale(disks(Fraction(1)))
        assert first_loss <= 3 / 5 and first_loss == pytest.approx(0.58474, abs=1e-5)
        # the first loss, not the largest positive scale: the same from s = 7/8
        assert 7 / 8 * max_uniform_scale(disks(Fraction(7, 8))) == pytest.approx(first_loss, rel=1e-11)
        assert 1 / 2 < first_loss < 3 / 4

    def test_single_disk_has_no_finite_scale(self):
        assert max_uniform_scale(DiskCollection([0], [1])) == math.inf

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            max_uniform_scale(DiskCollection([0, 2], [1, 1]), tol=-1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a NaN tol used to end in "radius 0 is not finite as a double"
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            max_uniform_scale(DiskCollection([0, 2], [1, 1]), tol=tol)

    def test_scale_far_above_one_terminates(self):
        # the bisection midpoint stops falling strictly between adjacent doubles
        s = max_uniform_scale(DiskCollection([0.0, 2.0], [1e-5, 1e-5]))
        assert s == pytest.approx(2 / math.sqrt(2e-10), rel=1e-9)

    def test_scale_far_below_one_is_bracketed_relatively(self):
        s = max_uniform_scale(DiskCollection([0.0, 2.0], [1e11, 1e11]))
        assert s == pytest.approx(2 / math.sqrt(2e22), rel=1e-9, abs=0)

    def test_radius_leaving_the_double_range_is_rejected(self):
        # halving the scale underflows the smallest radius before any scale is positive
        c = DiskCollection([0, 1e300, 2e300j], [1e290, 1e299, 1e-300])
        with pytest.raises(ValueError, match="radius 2 is not positive as a double"):
            max_uniform_scale(c)

    def test_digits_are_pinned(self):
        # sha256 of the reprs from the bisection that decided every midpoint
        collections = [regular_collection(n, 1.0) for n in range(2, 65)]
        collections += [seeded_collection(seed) for seed in range(40)]
        text = repr([max_uniform_scale(c) for c in collections])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b8cbe856670008db7d5485626079d89bc9206c6c116085bc55a83e1d7a498cb4"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        disks=st.lists(
            st.tuples(*(st.floats(a, b).map(lambda x: round(x, 6)) for a, b in ((-4, 4), (-4, 4), (0.01, 3)))),
            min_size=2,
            max_size=6,
        )
    )
    def test_equals_a_bisection_deciding_every_midpoint(self, disks):
        centers = [complex(x, y) for x, y, _ in disks]
        assume(min(abs(z - w) for z, w in itertools.combinations(centers, 2)) > 0.05)
        c = DiskCollection(centers, [r for _, _, r in disks])
        assert max_uniform_scale(c) == reference_scale(c)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_at_most_twenty_builds(self, n, monkeypatch):
        calls = []
        build = core._equilibrated

        def counted(a, r):
            calls.append(len(a))
            return build(a, r)

        monkeypatch.setattr(core, "_equilibrated", counted)
        max_uniform_scale(regular_collection(n, 1.0))
        assert sum(calls) <= 20

    @pytest.mark.parametrize("s", [0.3, 1 / 3, 0.7071067811865476, 1.9, 1e-7, 3e5])
    def test_scaled_build_has_the_bits_of_a_scaled_collection(self, s):
        for c in (regular_collection(7, 1.0), seeded_collection(3), seeded_collection(11)):
            got = core._equilibrated(np.array([c.centers]), np.array([c.radii]) * s)
            want = build_q_matrix(c.scaled(s))
            assert got[0][0].tobytes() == want._e.tobytes()
            assert got[1][0].tobytes() == want._log_scale.tobytes()
            assert got[2][0].tobytes() == want._bound.tobytes()


def scales_with_references():
    """Collections for the fallback tests, each with the double of the
    bisection that decides every midpoint, computed before any patch."""
    collections = [regular_collection(5, 1.0), seeded_collection(3), seeded_collection(11)]
    return [(c, reference_scale(c)) for c in collections]


class TestScaleFallbacks:
    """Every way max_uniform_scale falls back to deciding midpoints gives
    the double of a bisection that decides every midpoint."""

    def test_brent_raising(self, monkeypatch):
        cases = scales_with_references()
        calls = []

        def raising(*args):
            calls.append(args)
            raise ArithmeticError("forced")

        monkeypatch.setattr(core, "_brent", raising)
        assert [max_uniform_scale(c) for c, _ in cases] == [want for _, want in cases]
        assert len(calls) == len(cases)

    def test_margin_without_a_sign_change(self, monkeypatch):
        cases = scales_with_references()
        eigvalsh, calls = np.linalg.eigvalsh, []

        def lifted(a):
            calls.append(len(a))
            return eigvalsh(a) + 1e3  # a positive margin at both ends

        def never(*args):
            raise AssertionError("Brent's method ran without a sign change")

        monkeypatch.setattr(np.linalg, "eigvalsh", lifted)
        monkeypatch.setattr(core, "_brent", never)
        assert [max_uniform_scale(c) for c, _ in cases] == [want for _, want in cases]
        assert len(calls) == 2 * len(cases)

    def test_brent_bisecting(self, monkeypatch):
        # a margin of +-1 never lets interpolation beat bisection, and its
        # sign changes where lambda_min(E) does, inside the decisions' band
        cases = scales_with_references()
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.sign(eigvalsh(a)))
        assert [max_uniform_scale(c) for c, _ in cases] == [want for _, want in cases]

    @pytest.mark.parametrize("failures", [1, 2])
    def test_a_failed_proof_of_the_lower_end(self, failures, monkeypatch):
        # after Brent's method, decisions 1 and 3 are the proofs of the lower end
        cases = scales_with_references()
        brent, decide = core._brent, core.is_positive_definite
        count, flipped = [None], []

        def counted_brent(*args):
            count[0] = 0
            return brent(*args)

        def flaky(m, *args, **kwargs):
            report = decide(m, *args, **kwargs)
            if count[0] is not None:
                count[0] += 1
                if count[0] in (1, 3)[:failures]:
                    flipped.append(report.verdict)
                    return dataclasses.replace(report, verdict=Verdict.INDETERMINATE)
            return report

        monkeypatch.setattr(core, "_brent", counted_brent)
        monkeypatch.setattr(core, "is_positive_definite", flaky)
        for c, want in cases:
            count[0] = None
            assert max_uniform_scale(c) == want
        assert flipped == [Verdict.POSITIVE_DEFINITE] * (failures * len(cases))

    def test_a_non_finite_build_above_the_boundary(self, monkeypatch):
        # every build past the reference scale has an infinite error bound:
        # the margin at the upper end raises, and no Brent step runs
        cases = scales_with_references()
        build, base = core.build_q_matrix, [None]

        def unbounded_above(c):
            m = build(c)
            if c.radii[0] <= base[0] * (1 + 1e-9):
                return m
            return HermitianMatrix._built(m._e, m._log_scale, np.full_like(m._bound, np.inf))

        def never(*args):
            raise AssertionError("Brent's method ran on a non-finite end")

        monkeypatch.setattr(core, "build_q_matrix", unbounded_above)
        monkeypatch.setattr(core, "_brent", never)
        for c, want in cases:
            base[0] = want * c.radii[0]
            assert max_uniform_scale(c) == want

    def test_a_decision_positive_at_every_scale(self, monkeypatch):
        always = core.PositivityReport(Verdict.POSITIVE_DEFINITE, 0.0)
        monkeypatch.setattr(core, "is_positive_definite", lambda m, *args, **kwargs: always)
        with pytest.raises(RuntimeError, match="^failed to bracket the scale from above$"):
            max_uniform_scale(DiskCollection([0, 2], [1, 1]))

    @pytest.mark.parametrize(
        "c",
        [DiskCollection([0, 2], [1, 1]), DiskCollection([0, 3 + 1j], [0.5, 1.2]), DiskCollection(roots_of_unity(3), [1] * 3)],
        ids=["pair", "unequal-pair", "triangle"],
    )
    def test_bracket_doubling_upward(self, c, monkeypatch):
        # a quarter of every distance puts the pair bound p / 4 below the
        # threshold, which lies in (p / 2, p] for these collections
        want = reference_scale(c)
        distances, scaled, scales = core._distances, DiskCollection.scaled, []
        z, r = np.array(c.centers), np.array(c.radii)
        d = np.hypot((z[:, None] - z).real, (z[:, None] - z).imag)
        np.fill_diagonal(d, np.inf)
        p = float((d / np.hypot(r[:, None], r)).min())

        def quartered(collection):
            dist, radii = distances(collection)
            return dist / 4, radii

        monkeypatch.setattr(core, "_distances", quartered)
        monkeypatch.setattr(DiskCollection, "scaled", lambda self, s: scales.append(s) or scaled(self, s))
        assert max_uniform_scale(c) == want
        assert scales[:3] == [p / 4, p / 2, p]


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

    def test_repr(self):
        assert repr(HermitianMatrix([[2.0, 1j], [-1j, 2.0]])) == "HermitianMatrix(order=2, exact=False)"
        assert repr(build_q_matrix(DiskCollection([0], [1]))) == "HermitianMatrix(order=1, exact=True)"

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([[math.nan]], r"\(0,0\)"),
            ([[1.0, 2.0], [complex(2.0, math.nan), 1.0]], r"\(1,0\)"),
            ([[1.0, complex(math.nan, 0.0)], [2.0, 1.0]], r"\(0,1\)"),
        ],
    )
    def test_nan_entry_is_named(self, rows, where):
        with pytest.raises(ValueError, match=rf"entry {where} is NaN"):
            HermitianMatrix(rows)

    def test_exact_matrix_reads_int_and_fraction_entries_as_exact_reals(self):
        g = GaussianRational
        m = HermitianMatrix([[g(2), g(1)], [g(1), 2]])
        assert m.is_exact and m.rows == ((g(2), g(1)), (g(1), g(2)))
        mixed = HermitianMatrix([[g(Fraction(1, 2)), 1], [Fraction(1), g(3)]])
        assert mixed.rows == ((g(Fraction(1, 2)), g(1)), (g(1), g(3)))
        assert is_positive_definite(mixed, mode="exact").minors == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([[GaussianRational(1), 0j], [0j, GaussianRational(1)]], r"\(0,1\)"),
            ([[GaussianRational(1), 0], [0, 1.0]], r"\(1,1\)"),
            ([[GaussianRational(1), True], [True, GaussianRational(1)]], r"\(0,1\)"),
            ([[GaussianRational(0.5)]], r"\(0,0\)"),
        ],
    )
    def test_exact_matrix_rejects_an_inexact_entry(self, rows, where):
        with pytest.raises(ValueError, match=rf"entry {where} is not exact"):
            HermitianMatrix(rows)


def test_hermitian_exact_check_catches_a_perturbed_entry(monkeypatch):
    build = core.build_q_matrix

    def perturbed(c):
        q = build(c)
        if not q.is_exact or q.order < 2:
            return q
        upper = [list(row) for row in q._upper]
        re, im = upper[0][1]
        upper[0][1] = (re + 1, im)
        return HermitianMatrix._built(upper=upper, den=q._den)

    monkeypatch.setattr(core, "build_q_matrix", perturbed)
    checks = {check.name: check.passed for check in core_suite(seed=0, samples=2)}
    assert checks["core.hermitian-exact"] is False
