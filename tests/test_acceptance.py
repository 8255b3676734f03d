"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Randomized criteria use fixed seeds and are fully
deterministic.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from diskpd import verify
from diskpd.core import build_q_matrix, is_positive_definite, max_uniform_scale
from diskpd.orthopoly import (
    RationalPolynomial,
    jacobi_polynomial,
    v_identity_suite,
    zero_structure_check,
)
from diskpd.radius import bessel_j1, bessel_j1_first_zero, maximal_radius
from diskpd.symmetric import (
    a_matrix,
    circulant_spectrum,
    det_factorization_check,
    positivity_by_t,
    regular_collection,
    t_polynomial,
)


def _conclude(criterion: str, started: float, budget: float, failures: list[str]):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    for message in failures:
        print(f"    {message}")
    assert not failures, f"{criterion}: " + "; ".join(failures)
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s exceeds {budget}s"


def test_criterion_01_golden_radii():
    started = time.perf_counter()
    failures = []
    golden = {2: math.sqrt(2), 3: 1.0, 5: math.sqrt(2) / 2}
    for n, want in golden.items():
        got = maximal_radius(n).rho
        if abs(got - want) > 1e-12:
            failures.append(f"rho_{n} = {got!r}, expected {want!r} to 1e-12")
    res4 = maximal_radius(4)
    if abs(res4.rho - math.sqrt(2 / 3)) > 1e-12:
        failures.append(f"rho_4 = {res4.rho!r}, expected sqrt(2/3) to 1e-12")
    lo, hi = res4.isolating_interval
    if not lo < Fraction(-1, 3) <= hi:
        failures.append("isolating interval for mu_4 misses the exact root -1/3")
    brute = max_uniform_scale(regular_collection(4, 1.0))
    if abs(brute - res4.rho) > 1e-8:
        failures.append(f"scale search {brute!r} deviates from rho_4 beyond 1e-8")
    _conclude("01 golden-radii", started, 1.0, failures)


def test_criterion_02_boundary_sharpness():
    started = time.perf_counter()
    failures = []
    for n in range(3, 17):
        rho = maximal_radius(n).rho
        if not positivity_by_t(n, rho - 1e-6):
            failures.append(f"n={n}: not positive just below rho")
        if positivity_by_t(n, rho + 1e-6):
            failures.append(f"n={n}: positive just above rho")
        below = is_positive_definite(build_q_matrix(regular_collection(n, rho - 1e-4)))
        above = is_positive_definite(build_q_matrix(regular_collection(n, rho + 1e-4)))
        if not below.is_positive:
            failures.append(f"n={n}: floating test rejects rho - 1e-4")
        if above.is_positive:
            failures.append(f"n={n}: floating test accepts rho + 1e-4")
    _conclude("02 boundary-sharpness", started, 10.0, failures)


def test_criterion_03_determinant_factorization():
    started = time.perf_counter()
    failures = []
    rng = random.Random(2024)
    for n in range(2, 17):
        done = 0
        while done < 5:
            r = rng.uniform(0.05, 1.4)
            res = det_factorization_check(n, r)
            if res.boundary:
                continue  # numerically singular draw; the contract reports it
            done += 1
            if not res.signs_agree:
                failures.append(f"n={n}, r={r:.6f}: signs disagree")
            elif res.log_relative_error >= 1e-7:
                failures.append(
                    f"n={n}, r={r:.6f}: log relative error {res.log_relative_error:.2e}"
                )
    _conclude("03 determinant-factorization", started, 30.0, failures)


def test_criterion_04_spectrum_identity():
    started = time.perf_counter()
    failures = []
    rng = random.Random(7)
    for n in range(2, 25):
        for _ in range(20):
            z = rng.uniform(-1.0, 3.0)
            eig = sorted(a_matrix(n, z).eigenvalues())
            tv = sorted(circulant_spectrum(n, z))
            scale = max(1.0, max(abs(t) for t in tv))
            worst = max(abs(e - t) for e, t in zip(eig, tv))
            if worst > 1e-7 * scale:
                failures.append(f"n={n}, z={z:.6f}: deviation {worst:.2e}")
                break
        if failures:
            break
    _conclude("04 spectrum-identity", started, 60.0, failures)


def test_criterion_05_exact_identities():
    started = time.perf_counter()
    failures = []
    for n in range(4, 13):
        for check in v_identity_suite(n):
            if not check.passed:
                failures.append(f"{check.identity} fails at n={n}, m={check.m}")
    # bridge to the Jacobi family, exact for every admissible order
    two_z_plus_1 = RationalPolynomial((1, 2))
    for n in range(2, 13):
        for m in range(1, n):
            t = t_polynomial(n, m)
            bridged = Fraction((-1) ** (n - m) * n * n, n - m) * jacobi_polynomial(
                m, n - 2 * m, -1
            ).compose(two_z_plus_1)
            if n - 2 * m >= 0:
                ok = t == RationalPolynomial.monomial(n - 2 * m) * bridged
            else:
                ok = RationalPolynomial.monomial(2 * m - n) * t == bridged
            if not ok:
                failures.append(f"Jacobi link fails at n={n}, m={m}")
    minus_x = RationalPolynomial((0, -1))
    for k in range(1, 13):
        for alpha in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
            for beta in (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)):
                s = alpha + beta
                if s.denominator == 1 and -2 * k <= s <= -k - 1:
                    continue
                lhs = jacobi_polynomial(k, alpha, beta)
                rhs = (-1) ** k * jacobi_polynomial(k, beta, alpha).compose(minus_x)
                if lhs != rhs:
                    failures.append(f"swap fails at k={k}, ({alpha},{beta})")
    half_x_minus_1 = RationalPolynomial((Fraction(-1, 2), Fraction(1, 2)))
    for n in range(2, 13):
        lhs = n * jacobi_polynomial(n, -1, -1)
        rhs = (n - 1) * half_x_minus_1 * jacobi_polynomial(n - 1, 1, -1)
        if lhs != rhs:
            failures.append(f"alternation reduction fails at n={n}")
    _conclude("05 exact-identities", started, 60.0, failures)


def test_criterion_06_zero_structure():
    started = time.perf_counter()
    failures = []
    for n in range(4, 13):
        for m in range(2, n):
            report = zero_structure_check(n, m)
            if not report.passed:
                failures.append(
                    f"n={n}, m={m}: multiplicity {report.multiplicity_at_one}"
                    f"/{report.expected_multiplicity_at_one}, interior "
                    f"{report.roots_beyond_one}/{report.expected_roots_beyond_one}, "
                    f"interlacing {report.interlaces_previous}"
                )
    _conclude("06 zero-structure", started, 60.0, failures)


def test_criterion_07_bounds_and_monotonicity():
    started = time.perf_counter()
    failures = []
    results = {n: maximal_radius(n) for n in range(2, 65)}
    for n in range(3, 65):
        if not results[n].rho < results[n - 1].rho:
            failures.append(f"rho_{n} >= rho_{n - 1}")
    for n in range(3, 65):
        res = results[n]
        # stated equality cases: n=3 on the lower bound, n=5 on the upper.
        # At n=5 the two bounds coincide (both sin(pi/4)), so the upper
        # equality forces lower equality there as well.
        if n in (3, 5):
            if abs(res.rho - res.lower_bound) > 1e-10:
                failures.append(f"lower-bound equality violated at n={n}")
        elif not res.lower_bound < res.rho - 1e-10:
            failures.append(f"lower bound not strict at n={n}")
        if n == 5:
            if abs(res.rho - res.upper_bound) > 1e-10:
                failures.append("upper-bound equality violated at n=5")
        elif n >= 4 and not res.rho < res.upper_bound - 1e-10:
            failures.append(f"upper bound not strict at n={n}")
    for n in range(2, 65):
        if not results[n].beta > 1:
            failures.append(f"beta_{n} <= 1")
        if not results[n].rho > math.sin(math.pi / n):
            failures.append(f"rho_{n} <= sin(pi/{n})")
    _conclude("07 bounds-and-monotonicity", started, 300.0, failures)


def test_criterion_08_bessel_asymptotics():
    started = time.perf_counter()
    failures = []
    j11 = bessel_j1_first_zero()
    if round(j11, 6) != 3.831706:
        failures.append(f"first zero {j11!r} does not round to 3.831706")
    if abs(bessel_j1(j11)) > 1e-12:
        failures.append("residual at the computed zero exceeds 1e-12")
    ns = (16, 32, 64, 128, 256)
    errors = [abs(n * maximal_radius(n).rho - j11) for n in ns]
    for (n_a, a), (n_b, b) in zip(zip(ns, errors), zip(ns[1:], errors[1:])):
        if not a > b:
            failures.append(f"|n rho_n - j11| fails to decrease from n={n_a} to n={n_b}")
    if errors[-1] / j11 >= 0.05:
        failures.append(f"relative error at n=256 is {errors[-1] / j11:.3f}")
    _conclude("08 bessel-asymptotics", started, 600.0, failures)


def test_criterion_09_triangle_criterion():
    started = time.perf_counter()
    failures = []
    for check in verify.triangle_suite(seed=0, samples=10_000):
        if not check.passed and not check.informational:
            failures.append(f"{check.name}: {check.detail}")
    _conclude("09 triangle-criterion", started, 30.0, failures)


def test_criterion_10_general_collection_properties():
    started = time.perf_counter()
    failures = []
    for check in verify.core_suite(seed=0, samples=200, nmax=8):
        if not check.passed and not check.informational:
            failures.append(f"{check.name}: {check.detail}")
    _conclude("10 collection-properties", started, 60.0, failures)
