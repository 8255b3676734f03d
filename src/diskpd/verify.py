"""Runtime verification suites for every module's invariants.

Each suite returns a list of CheckResult records and is driven by explicit
seeds, so identical arguments always reproduce identical outcomes.  Most
checks are generators that yield their counterexamples; the first one is
the failure's `detail`, and the check stops there.  The CLI `verify`
subcommand runs these; the test suite asserts on them as well.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import core, orthopoly, radius, symmetric, triangle
from .core import DiskCollection, Verdict

__all__ = [
    "CheckResult",
    "core_suite",
    "symmetric_suite",
    "orthopoly_suite",
    "radius_suite",
    "triangle_suite",
    "SUITES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    informational: bool = False


def _first_failure(name: str, failures: Iterator[str]) -> CheckResult:
    """The check `name`, failed with the first counterexample message that
    `failures` yields, or passed if it yields none.  Nothing after the
    first one is drawn."""
    detail = next(failures, None)
    return CheckResult(name, detail is None, detail or "")


def _sample_centers(rng: random.Random, nmax: int) -> tuple[list[complex], float]:
    """Random centers, n in [2, nmax], in the unit box with pairwise
    distance at least 0.1, and their least pairwise distance."""
    n = rng.randint(2, nmax)
    for _ in range(10_000):
        centers = [complex(rng.random(), rng.random()) for _ in range(n)]
        dmin = min(
            abs(centers[i] - centers[j]) for i in range(n) for j in range(i + 1, n)
        )
        if dmin >= 0.1:
            return centers, dmin
    raise RuntimeError("failed to sample a separated center configuration")


def _sample_disks(rng: random.Random, nmax: int, lo: float, hi: float) -> DiskCollection:
    """Random centers as _sample_centers draws them, with radii
    dmin * U(lo, hi) for their least distance dmin."""
    centers, dmin = _sample_centers(rng, nmax)
    return DiskCollection(centers, [dmin * rng.uniform(lo, hi) for _ in centers])


def _is_positive(c: DiskCollection) -> bool:
    report = core.is_positive_definite(core.build_q_matrix(c))
    return report.verdict is Verdict.POSITIVE_DEFINITE


def _sample_positive_collection(rng: random.Random, nmax: int) -> DiskCollection:
    """A random admissible collection known positive (disjoint-by-construction radii)."""
    while True:
        c = _sample_disks(rng, nmax, 0.1, 0.45)
        # subcollection closure and radius monotonicity, which the checks
        # drawing from here test, are hypotheses for admissible collections
        # only: outside that range positivity can be lost on a subcollection
        # or on smaller radii (max_uniform_scale).  Radii below dmin are
        # admissible, so no draw is rejected and the random stream is kept.
        if core.is_admissible(c) and _is_positive(c):
            return c


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------


def _naive_q_entry(c: DiskCollection, i: int, j: int) -> complex:
    prod = 1 + 0j
    for k in range(c.n):
        prod *= (c.centers[i] - c.centers[k]) * (
            c.centers[j] - c.centers[k]
        ).conjugate() - c.radii[k] ** 2
    return -prod


def _exact_q_entry(c: DiskCollection, i: int, j: int) -> core.GaussianRational:
    """Q_ij of an exact collection from the definition, in Fraction arithmetic."""
    a = c.exact_centers
    re, im = Fraction(-1), Fraction(0)
    for ak, rk in zip(a, c.exact_radii):
        # factor (a_i - a_k) conj(a_j - a_k) - R_k^2
        ur, ui, vr, vi = a[i].re - ak.re, a[i].im - ak.im, a[j].re - ak.re, a[j].im - ak.im
        fr, fi = ur * vr + ui * vi - rk * rk, ui * vr - ur * vi
        re, im = re * fr - im * fi, re * fi + im * fr
    return core.GaussianRational(re, im)


def core_suite(seed: int = 0, samples: int = 200, nmax: int = 8) -> list[CheckResult]:
    if samples < 1:  # a check that draws nothing must not pass
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    out = []

    # Hermitian symmetry, against an independent per-entry product loop
    def hermitian_entries():
        for _ in range(40):
            c = _sample_disks(rng, nmax, 0.2, 0.9)
            q = core.build_q_matrix(c)
            for i in range(c.n):
                for j in range(c.n):
                    direct = _naive_q_entry(c, j, i).conjugate()
                    built = q.entry(i, j)
                    if abs(built - direct) > 1e-12 * max(1.0, abs(direct)):
                        yield f"entry ({i},{j}) deviates from conjugate transpose"
                    if i == j and built.imag != 0.0:
                        yield f"diagonal entry {i} not real"
    out.append(_first_failure("core.hermitian-symmetry", hermitian_entries()))

    # exact Q, both triangles, against the definition in Fraction arithmetic
    exact_ok = True
    for _ in range(20):
        n = rng.randint(1, 5)
        centers = []
        while len(centers) < n:
            cand = (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
            if cand not in centers:
                centers.append(cand)
        radii = [Fraction(rng.randint(1, 8), 8) for _ in range(n)]
        c = DiskCollection(centers, radii)
        q = core.build_q_matrix(c)
        for i in range(n):
            for j in range(n):
                if q.entry(i, j) != _exact_q_entry(c, i, j):
                    exact_ok = False
    out.append(CheckResult("core.hermitian-exact", exact_ok))

    # small radii always positive
    def small_radii():
        for idx in range(samples):
            centers, dmin = _sample_centers(rng, nmax)
            scale = 1e-3 * dmin
            c = DiskCollection(centers, [scale * rng.uniform(0.05, 1.0) for _ in centers])
            if not _is_positive(c):
                yield f"sample {idx}: n={c.n} not positive at radii scale {scale:.2e}"
    out.append(_first_failure("core.small-radius-positivity", small_radii()))

    # subcollections of the disjoint positive collections drawn here stay
    # positive: a hypothesis, false outside the admissible range
    # (max_uniform_scale)
    def subcollections():
        for idx in range(samples):
            c = _sample_positive_collection(rng, nmax)
            size = rng.randint(1, c.n)
            subset = sorted(rng.sample(range(c.n), size))
            if not _is_positive(c.subcollection(subset)):
                yield f"sample {idx}: subcollection {subset} of n={c.n} lost positivity"
    out.append(_first_failure("core.subcollection-closure", subcollections()))

    # shrinking radii keeps the disjoint positive collections drawn here
    # positive: a hypothesis, false outside the admissible range
    # (max_uniform_scale)
    def shrunk_radii():
        for idx in range(samples):
            c = _sample_positive_collection(rng, nmax)
            shrunk = DiskCollection(c.centers, [r * rng.uniform(0.05, 1.0) for r in c.radii])
            if not _is_positive(shrunk):
                yield f"sample {idx}: shrunk radii lost positivity (n={c.n})"
    out.append(_first_failure("core.radius-monotonicity", shrunk_radii()))

    # verdict is invariant under center rotation + translation
    def rigid_motions():
        for idx in range(60):
            c = _sample_disks(rng, nmax, 0.2, 0.8)
            phase = cmath.exp(2j * math.pi * rng.random())
            shift = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            moved = DiskCollection([phase * z + shift for z in c.centers], c.radii)
            v1 = core.is_positive_definite(core.build_q_matrix(c)).verdict
            v2 = core.is_positive_definite(core.build_q_matrix(moved)).verdict
            if v1 is not v2:
                yield f"sample {idx}: verdict changed under rigid motion ({v1} vs {v2})"
    out.append(_first_failure("core.rigid-motion-invariance", rigid_motions()))

    # scaling centers and radii by t multiplies Q by t^(2n), verdict fixed;
    # by t = 2^k, which is exact for every input that stays normal, E and
    # its error bound v do not change by a bit
    def scalings():
        for idx in range(60):
            c = _sample_disks(rng, nmax, 0.2, 0.8)
            t = rng.uniform(0.3, 3.0)
            q1 = core.build_q_matrix(c)
            q2 = core.build_q_matrix(DiskCollection([t * z for z in c.centers], [t * r for r in c.radii]))
            factor = t ** (2 * c.n)
            a1, a2 = q1.to_numpy(), q2.to_numpy()
            if not np.allclose(a2, factor * a1, rtol=1e-9, atol=1e-9 * factor * np.abs(a1).max()):
                yield f"sample {idx}: entries do not scale by t^(2n)"
            v1 = core.is_positive_definite(q1).verdict
            if v1 is not core.is_positive_definite(q2).verdict:
                yield f"sample {idx}: verdict changed under similarity scaling"
            k = rng.randint(-1000, 1000)
            p = 2.0**k
            centers, radii = [p * z for z in c.centers], [p * r for r in c.radii]
            if [z / p for z in centers] != list(c.centers) or [r / p for r in radii] != list(c.radii):
                continue  # a subnormal input rounded: a different collection
            q3 = core.build_q_matrix(DiskCollection(centers, radii))
            same = q3._e.tobytes() == q1._e.tobytes() and q3._bound.tobytes() == q1._bound.tobytes()
            if not same or core.is_positive_definite(q3).verdict is not v1:
                yield f"sample {idx}: E, v or the verdict changed under scaling by 2^{k}"
    out.append(_first_failure("core.scaling-covariance", scalings()))
    return out


# ---------------------------------------------------------------------------
# symmetric
# ---------------------------------------------------------------------------


def symmetric_suite(nmax: int = 12, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    def spectra():
        for n in range(2, nmax + 1):
            for _ in range(20):
                z = rng.uniform(-1.0, 3.0)
                a = symmetric.a_matrix(n, z)
                eig = sorted(a.eigenvalues())
                tv = sorted(symmetric.circulant_spectrum(n, z))
                scale = max(1.0, max(abs(t) for t in tv))
                if any(abs(e - t) > 1e-7 * scale for e, t in zip(eig, tv)):
                    yield f"n={n}, z={z:.6f}: eigenvalues deviate from T values"
    out.append(_first_failure("symmetric.spectrum-identity", spectra()))

    def determinants():
        for n in range(2, nmax + 1):
            for _ in range(20):
                z = rng.uniform(-1.0, 3.0)
                tv = symmetric.circulant_spectrum(n, z)
                scale = max(abs(t) for t in tv)
                if min(abs(t) for t in tv) < 1e-6 * max(scale, 1.0):
                    continue  # too close to a determinant zero for a ratio
                sgn, logdet = np.linalg.slogdet(symmetric.a_matrix(n, z).to_numpy())
                t_sign, t_log = np.prod(np.sign(tv)), np.log(np.abs(tv)).sum()
                if (1 if sgn.real > 0 else -1) != t_sign or abs(logdet - t_log) > 1e-7 * max(1.0, abs(t_log)):
                    yield f"n={n}, z={z:.6f}: det A != prod T"
    out.append(_first_failure("symmetric.product-identity", determinants()))

    def q_matrices():
        for n in range(2, nmax + 1):
            r = rng.uniform(0.1, 1.5)
            q = core.build_q_matrix(symmetric.regular_collection(n, r)).to_numpy()
            a = symmetric.a_matrix(n, r * r - 1).to_numpy()
            scale = max(1.0, float(np.abs(q).max()))
            if float(np.abs(q + a).max()) > 1e-10 * scale:
                yield f"n={n}, r={r:.6f}: -A(r^2-1) deviates from Q"
    out.append(_first_failure("symmetric.core-consistency", q_matrices()))

    def t_coefficients():
        for n in range(2, nmax + 1):
            for m in range(1, n + 1):
                t = symmetric.t_polynomial(n, m)
                if any(c.denominator != 1 for c in t.coefficients):
                    yield f"T({n},{m}) has a non-integer coefficient"
                elif m < n and t.degree != n - m:
                    yield f"T({n},{m}) has degree {t.degree}, expected {n - m}"
    out.append(_first_failure("symmetric.integer-coefficients", t_coefficients()))

    def jacobi_links():
        for n in range(2, nmax + 1):
            for m in range(1, n):
                t = symmetric.t_polynomial(n, m)
                jac = orthopoly.jacobi_polynomial(m, n - 2 * m, -1)
                bridged = Fraction((-1) ** (n - m) * n * n, n - m) * jac.compose(
                    orthopoly.RationalPolynomial((1, 2))
                )
                if n - 2 * m >= 0:
                    ok = t == orthopoly.RationalPolynomial.monomial(n - 2 * m) * bridged
                else:
                    ok = orthopoly.RationalPolynomial.monomial(2 * m - n) * t == bridged
                if not ok:
                    yield f"Jacobi link fails at n={n}, m={m}"
    out.append(_first_failure("symmetric.jacobi-link", jacobi_links()))
    return out


# ---------------------------------------------------------------------------
# orthopoly
# ---------------------------------------------------------------------------


def _companion_real_roots(coeffs) -> list[tuple[float, int]]:
    """Real roots as (value, multiplicity) from numpy companion-matrix roots.

    A root of multiplicity k scatters into an eigenvalue cluster of radius
    about eps^(1/k) (2e-4 for k=4), so roots are grouped by single-linkage
    clustering at radius 2e-3 first.  Cluster centroids average that noise
    away; a cluster is a real root exactly when its centroid sits on the
    real axis (companion spectra are conjugate-symmetric).  Distinct roots
    closer than 2e-3 merge, so a product is better split into its factors
    (see _factored_real_roots).
    """
    roots = sorted(
        np.roots(list(reversed([float(c) for c in coeffs]))),
        key=lambda z: (z.real, z.imag),
    )
    clusters: list[list[complex]] = []
    for z in roots:
        for cluster in clusters:
            if any(abs(z - w) < 2e-3 for w in cluster):
                cluster.append(z)
                break
        else:
            clusters.append([z])
    out = []
    for cluster in clusters:
        centroid = sum(cluster) / len(cluster)
        if abs(centroid.imag) < 1e-6:
            out.append((float(centroid.real), len(cluster)))
    out.sort()
    return out


def _factored_real_roots(factors) -> list[tuple[float, int]]:
    """Real roots as (value, multiplicity) of a product of (coeffs, power)
    factors: the companion roots of each factor, its multiplicities times
    the power, with roots of different factors closer than 1e-6 (a root
    they share) taken as one."""
    roots = sorted(
        (value, mult * power)
        for coeffs, power in factors
        for value, mult in _companion_real_roots(coeffs)
    )
    out: list[tuple[float, int]] = []
    for value, mult in roots:
        if out and value - out[-1][0] < 1e-6:
            out[-1] = (out[-1][0], out[-1][1] + mult)
        else:
            out.append((value, mult))
    return out


def orthopoly_suite(seed: int = 0, nmax: int = 12) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    def companion_oracles():
        for idx in range(100):
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            poly = orthopoly.RationalPolynomial(coeffs)
            factors = [(coeffs, 1)]
            if rng.random() < 0.3:
                extra = [rng.randint(-4, 4) for _ in range(2)] + [rng.randint(1, 4)]
                factors.append((extra, 2))  # exercises multiplicity handling
                poly = poly * orthopoly.RationalPolynomial(extra) ** 2
            iso = orthopoly.isolate_real_roots(poly, None, 1e-9)
            oracle = _factored_real_roots(factors)
            agree = len(oracle) == iso.count_distinct and all(
                abs(value - approx) < 1e-6 and mult == want
                for (value, want), approx, (_, _, mult) in zip(
                    oracle, iso.refined, iso.intervals
                )
            )
            if not agree:
                yield (
                    f"sample {idx}: isolation {list(zip(iso.refined, [m for _, _, m in iso.intervals]))}"
                    f" vs companion oracle {oracle}"
                )
    out.append(_first_failure("orthopoly.sturm-vs-companion", companion_oracles()))

    # constructed integer roots with known multiplicities, checked exactly
    def known_roots():
        for idx in range(40):
            roots = rng.sample(range(-6, 7), rng.randint(1, 4))
            mults = [rng.randint(1, 3) for _ in roots]
            poly = orthopoly.RationalPolynomial([rng.randint(1, 5)])
            for root, mult in zip(roots, mults):
                poly = poly * orthopoly.RationalPolynomial((-root, 1)) ** mult
            iso = orthopoly.isolate_real_roots(poly, None, 1e-9)
            expected = sorted(zip(roots, mults))
            if len(iso.intervals) != len(expected) or not all(
                lo < root <= hi and mult == want_mult
                for (lo, hi, mult), (root, want_mult) in zip(iso.intervals, expected)
            ):
                yield f"sample {idx}: roots {expected} not recovered"
    out.append(_first_failure("orthopoly.isolation-known-roots", known_roots()))

    identities = (
        f"identity {check.identity} fails at n={n}, m={check.m}"
        for n in range(4, nmax + 1)
        for check in orthopoly.v_identity_suite(n)
        if not check.passed
    )
    out.append(_first_failure("orthopoly.v-identities-exact", identities))

    zero_structures = (
        f"zero structure fails at n={n}, m={m}"
        for n in range(4, nmax + 1)
        for m in range(2, n)
        if not orthopoly.zero_structure_check(n, m).passed
    )
    out.append(_first_failure("orthopoly.zero-structure", zero_structures))

    # second-largest zero comparison: interior Chebyshev node vs the
    # generalized parameters (-1, 0)
    def markov_pairs():
        for n in range(2, 11):
            cheb = orthopoly.jacobi_polynomial(n, Fraction(-1, 2), Fraction(-1, 2))
            gen = orthopoly.jacobi_polynomial(n, -1, 0)
            z_cheb = orthopoly.isolate_real_roots(cheb, (Fraction(-1), Fraction(1)), 1e-12)
            z_gen = orthopoly.isolate_real_roots(gen, (Fraction(-1), Fraction(1)), 1e-12)
            if len(z_cheb.refined) < 2 or len(z_gen.refined) < 2:
                yield f"n={n}: unexpected root counts"
            elif not sorted(z_cheb.refined)[-2] < sorted(z_gen.refined)[-2] - 1e-9:
                yield f"n={n}: zero monotonicity in the parameters fails"
    out.append(_first_failure("orthopoly.markov-monotonicity", markov_pairs()))

    def stieltjes_families():
        for n in range(2, 11):
            zero_lists = []
            for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
                p = orthopoly.jacobi_polynomial(n, lam - Fraction(1, 2), lam - Fraction(1, 2))
                iso = orthopoly.isolate_real_roots(p, (Fraction(0), Fraction(1)), 1e-12)
                zero_lists.append(sorted(iso.refined, reverse=True))
            for prev, cur in zip(zero_lists, zero_lists[1:]):
                for a, b in zip(prev, cur):
                    if not b < a - 1e-9:
                        yield f"n={n}: positive zeros fail to decrease with the parameter"
    out.append(_first_failure("orthopoly.stieltjes-monotonicity", stieltjes_families()))

    half_x_minus_1 = orthopoly.RationalPolynomial((Fraction(-1, 2), Fraction(1, 2)))

    def reductions():
        for n in range(2, nmax + 1):
            lhs = n * orthopoly.jacobi_polynomial(n, -1, -1)
            rhs = (n - 1) * half_x_minus_1 * orthopoly.jacobi_polynomial(n - 1, 1, -1)
            if lhs != rhs:
                yield f"reduction formula fails at n={n}"
    out.append(_first_failure("orthopoly.reduction-formula", reductions()))

    minus_x = orthopoly.RationalPolynomial((0, -1))
    params = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]

    def swaps():
        for k in range(1, 9):
            for alpha in params:
                for beta in params:
                    s = alpha + beta
                    if s.denominator == 1 and -2 * k <= s <= -k - 1:
                        continue  # degenerate line, construction refuses
                    lhs = orthopoly.jacobi_polynomial(k, alpha, beta)
                    rhs = (-1) ** k * orthopoly.jacobi_polynomial(k, beta, alpha).compose(minus_x)
                    if lhs != rhs:
                        yield f"swap transformation fails at k={k}, alpha={alpha}, beta={beta}"
    out.append(_first_failure("orthopoly.swap-transformation", swaps()))
    return out


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------


def radius_suite(nmax: int = 64) -> list[CheckResult]:
    out = []
    results = {n: radius.maximal_radius(n) for n in range(2, nmax + 1)}

    increases = (
        f"rho_{n} >= rho_{n - 1}" for n in range(3, nmax + 1) if not results[n].rho < results[n - 1].rho
    )
    out.append(_first_failure("radius.monotone-decreasing", increases))

    # Lower-bound equality holds at n = 3 AND n = 5 (rho_5 = sqrt(2)/2 =
    # sin(pi/4), where the two bounds pinch), upper-bound equality at n = 5
    # only; strict everywhere else at 1e-10 resolution.
    def bound_violations():
        for n in range(3, nmax + 1):
            res = results[n]
            lower, upper = res.lower_bound, res.upper_bound
            if n in (3, 5):
                if abs(res.rho - lower) > 1e-10:
                    yield f"lower-bound equality at n={n} violated"
            elif not lower < res.rho - 1e-10:
                yield f"lower bound not strict at n={n}"
            if n == 5:
                if abs(res.rho - upper) > 1e-10:
                    yield "upper-bound equality at n=5 violated"
            elif n >= 4 and not res.rho < upper - 1e-10:
                yield f"upper bound not strict at n={n}"
    out.append(_first_failure("radius.two-sided-bounds", bound_violations()))

    def overlaps():
        for n in range(2, nmax + 1):
            if not results[n].beta > 1:
                yield f"beta_{n} <= 1"
            if not results[n].rho > math.sin(math.pi / n):
                yield f"rho_{n} <= sin(pi/{n})"
    out.append(_first_failure("radius.overlap-above-one", overlaps()))

    # the interval comes from the Jacobi recurrence; the hypergeometric
    # central polynomial and T_{n,nu} are independent oracles for it
    def central_roots():
        for n in range(4, min(nmax, 64) + 1):
            nu = n // 2
            a, b = results[n].isolating_interval
            oracles = [(f"the central polynomial of n={n}", radius.central_polynomial(n))]
            if n <= 12:
                oracles.append((f"T({n},{nu})", symmetric.t_polynomial(n, nu)))
            for label, poly in oracles:
                va, vb = poly(a), poly(b)
                if not (vb == 0 or (va < 0) != (vb < 0)):
                    yield f"{label} shows no sign change over the mu_{n} interval"
    out.append(_first_failure("radius.central-root-shared", central_roots()))

    def scale_searches():
        for n in range(2, min(nmax, 10) + 1):
            brute = core.max_uniform_scale(symmetric.regular_collection(n, 1.0))
            if abs(results[n].rho - brute) > 1e-8:
                yield f"n={n}: scale search {brute!r} vs exact {results[n].rho!r}"
    out.append(_first_failure("radius.scale-search-consistency", scale_searches()))

    j11 = radius.bessel_j1_first_zero()
    trend_ns = (16, 32, 64, 128, 256)
    errors = [abs(n * radius.maximal_radius(n).rho - j11) for n in trend_ns]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    rel_last = errors[-1] / j11
    out.append(
        CheckResult(
            "radius.bessel-zero-trend",
            decreasing and rel_last < 0.05,
            f"errors {['%.3e' % e for e in errors]}, relative at n={trend_ns[-1]}: {rel_last:.2e}",
        )
    )

    evens = [results[n].beta for n in range(4, nmax + 1, 2)]
    odds = [results[n].beta for n in range(3, nmax + 1, 2)]
    even_up = all(a < b for a, b in zip(evens, evens[1:]))
    odd_up = all(a < b for a, b in zip(odds, odds[1:]))
    out.append(
        CheckResult(
            "radius.beta-subsequences",
            True,
            "observed (never asserted): beta over even n>=4 increasing="
            f"{even_up}, over odd n>=3 increasing={odd_up}",
            informational=True,
        )
    )
    return out


# ---------------------------------------------------------------------------
# triangle
# ---------------------------------------------------------------------------

#: Kept samples built as one stack: 10,000 at once would raise the peak
#: memory of a verify run by about 14 MB.
_TRIANGLE_CHUNK = 1_000


def triangle_suite(seed: int = 0, samples: int = 10_000) -> list[CheckResult]:
    if samples < 1:  # a check that draws nothing must not pass
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    out = []
    centers = np.array([cmath.exp(2j * math.pi * k / 3) for k in (1, 2, 3)])
    rmax = math.sqrt(3) - 0.05

    bad = None
    mismatches = 0
    checked = 0
    worst_minor = 0.0

    def kept_draws():
        """(index, radii) of the samples off the boundary sum 3."""
        for idx in range(samples):
            radii = [rng.uniform(0.05, rmax) for _ in range(3)]
            if abs(sum(r * r for r in radii) - 3.0) >= 1e-6:
                yield idx, radii

    draws = kept_draws()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # triangle_positive near the boundary
        while kept := list(itertools.islice(draws, _TRIANGLE_CHUNK)):
            e, log_scale, reports = core._decide_disks(
                np.broadcast_to(centers, (len(kept), 3)), np.array([r for _, r in kept])
            )
            q = e * np.exp(log_scale[:, :, None] + log_scale[:, None, :])
            minors = zip(*(np.linalg.det(q[:, :k, :k]).real.tolist() for k in (1, 2, 3)))
            for (idx, radii), numeric, report in zip(kept, minors, reports):
                checked += 1
                closed = triangle.triangle_positive(*radii)
                generic = report.verdict is Verdict.POSITIVE_DEFINITE
                if closed != generic:
                    mismatches += 1
                    if bad is None:
                        bad = (
                            f"sample {idx}: radii {radii} "
                            f"closed-form {closed} vs generic {generic}"
                        )
                closed_minors = triangle.triangle_minors(*(r * r for r in radii))
                for cf, num in zip(closed_minors, numeric):
                    worst_minor = max(worst_minor, abs(cf - num) / max(1.0, abs(num)))
    out.append(
        CheckResult(
            "triangle.criterion-equivalence",
            mismatches == 0,
            bad or f"{checked} samples, 0 mismatches",
        )
    )
    out.append(
        CheckResult(
            "triangle.minor-consistency",
            worst_minor < 1e-9,
            f"worst relative deviation {worst_minor:.3e}",
        )
    )

    out.append(
        CheckResult(
            "triangle.phi-symmetry",
            triangle.phi_reflection_symmetric(),
            "phi(3-x) == phi(x) coefficientwise",
        )
    )

    def equal_radii():
        for r in [0.1 + 0.05 * k for k in range(32)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                verdict = triangle.triangle_positive(r, r, r)
            if verdict != (r < 1.0):
                yield f"equal radii r={r}: criterion disagrees with rho_3 = 1"
    out.append(_first_failure("triangle.symmetric-reduction", equal_radii()))
    return out


SUITES = {
    "core": core_suite,
    "symmetric": symmetric_suite,
    "orthopoly": orthopoly_suite,
    "radius": radius_suite,
    "triangle": triangle_suite,
}
