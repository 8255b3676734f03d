"""The failing branch of each verify check: one oracle broken per test, and
the FAIL line that the check must print for it."""

import dataclasses
import math
import random
import types
from fractions import Fraction

import pytest

from diskpd import core, orthopoly, radius, symmetric, verify
from diskpd.cli import main
from diskpd.orthopoly import RationalPolynomial


def run_suite(suite, capsys, *flags):
    code = main(["verify", "--suite", suite, *flags])
    return code, capsys.readouterr().out.splitlines()


def floating_build(alter):
    """build_q_matrix with alter(collection, E, l, v) -> (E, l, v) applied
    to every floating build."""
    build = core.build_q_matrix

    def patched(c):
        m = build(c)
        if m.is_exact:
            return m
        return core.HermitianMatrix._built(*alter(c, m._e.copy(), m._log_scale, m._bound))

    return patched


def off_diagonal_error(c, e, l, v):
    e[0, -1] += 1.0 if c.n > 1 else 0.0
    return e, l, v


def imaginary_diagonal(c, e, l, v):
    e[-1, -1] += 1e-30j
    return e, l, v


def radius_dependent_scale(c, e, l, v):
    # Q times max(R)^2: no longer multiplied by t^(2n) when everything is
    return e, l + math.log(max(c.radii)), v


def every_other(func, alter):
    calls = [0]

    def patched(*args, **kwargs):
        calls[0] += 1
        result = func(*args, **kwargs)
        return alter(result) if calls[0] % 2 == 0 else result

    return patched


def random_with(method, args, value):
    """verify's random module, whose Random returns value from method(*args)."""

    def fixed(self, *given):
        return value if given == args else getattr(random.Random, method)(self, *given)

    return types.SimpleNamespace(Random=type("Fixed", (random.Random,), {method: fixed}))


def first_root_on_minus_one_one(p, bounds, precision, isolate=orthopoly.isolate_real_roots):
    """isolate_real_roots, but only the first root on (-1, 1]."""
    iso = isolate(p, bounds, precision)
    if bounds != (-1, 1):
        return iso
    return dataclasses.replace(iso, intervals=iso.intervals[:1], refined=iso.refined[:1])


def jacobi_with(params, alter):
    jacobi = orthopoly.jacobi_polynomial
    return lambda k, a, b: alter(k, jacobi(k, a, b)) if (a, b) == params else jacobi(k, a, b)


def radius_with(n, **fields):
    """maximal_radius with fields of the result for n replaced, each a
    function of that result."""
    maximal_radius = radius.maximal_radius

    def patched(m, *args):
        res = maximal_radius(m, *args)
        return dataclasses.replace(res, **{k: f(res) for k, f in fields.items()}) if m == n else res

    return patched


def _faults():
    """(suite, target, attribute, replacement factory, FAIL line)."""
    undecided = lambda report: dataclasses.replace(report, verdict=core.Verdict.INDETERMINATE)
    times_x = RationalPolynomial((0, 1))
    t_polynomial, regular_collection = symmetric.t_polynomial, symmetric.regular_collection
    zero_structure_check = orthopoly.zero_structure_check
    subcollection = core.DiskCollection.subcollection
    return [
        ("core", core, "build_q_matrix", lambda: floating_build(off_diagonal_error),
         "FAIL core.hermitian-symmetry: entry (0,7) deviates from conjugate transpose"),
        ("core", core, "build_q_matrix", lambda: floating_build(imaginary_diagonal),
         "FAIL core.hermitian-symmetry: diagonal entry 7 not real"),
        ("core", core.DiskCollection, "subcollection",
         lambda: lambda c, indices: subcollection(c, indices).scaled(10.0),
         "FAIL core.subcollection-closure: sample 1: subcollection [0, 1] of n=2 lost positivity"),
        ("core", verify, "random", lambda: random_with("uniform", (0.05, 1.0), 10.0),
         "FAIL core.radius-monotonicity: sample 0: shrunk radii lost positivity (n=4)"),
        ("core", core, "build_q_matrix", lambda: floating_build(radius_dependent_scale),
         "FAIL core.scaling-covariance: sample 0: entries do not scale by t^(2n)"),
        ("core", core, "is_positive_definite", lambda: every_other(core.is_positive_definite, undecided),
         "FAIL core.scaling-covariance: sample 0: verdict changed under similarity scaling"),
        ("symmetric", symmetric, "regular_collection",
         lambda: lambda n, r: regular_collection(n, 1.01 * r),
         "FAIL symmetric.core-consistency: n=2, r=0.786448: -A(r^2-1) deviates from Q"),
        ("symmetric", symmetric, "t_polynomial",
         lambda: lambda n, m: t_polynomial(n, m) * (times_x if (n, m) == (5, 2) else 1),
         "FAIL symmetric.integer-coefficients: T(5,2) has degree 4, expected 3"),
        ("orthopoly", orthopoly, "zero_structure_check",
         lambda: lambda n, m: dataclasses.replace(zero_structure_check(n, m), passed=(n, m) != (6, 3)),
         "FAIL orthopoly.zero-structure: zero structure fails at n=6, m=3"),
        ("orthopoly", orthopoly, "isolate_real_roots", lambda: first_root_on_minus_one_one,
         "FAIL orthopoly.markov-monotonicity: n=2: unexpected root counts"),
        ("orthopoly", orthopoly, "jacobi_polynomial",
         lambda: jacobi_with((-1, 0), lambda k, p: orthopoly.jacobi_polynomial(k, Fraction(-1, 2), Fraction(-1, 2))),
         "FAIL orthopoly.markov-monotonicity: n=2: zero monotonicity in the parameters fails"),
        ("orthopoly", orthopoly, "jacobi_polynomial", lambda: jacobi_with((1, -1), lambda k, p: 2 * p),
         "FAIL orthopoly.reduction-formula: reduction formula fails at n=2"),
        ("orthopoly", orthopoly, "jacobi_polynomial", lambda: jacobi_with((0, -1), lambda k, p: 2 * p),
         "FAIL orthopoly.swap-transformation: swap transformation fails at k=1, alpha=-1, beta=0"),
        ("radius", radius, "maximal_radius", lambda: radius_with(3, rho=lambda r: r.rho + 0.1),
         "FAIL radius.two-sided-bounds: lower-bound equality at n=3 violated"),
        ("radius", radius, "maximal_radius", lambda: radius_with(4, lower_bound=lambda r: r.rho),
         "FAIL radius.two-sided-bounds: lower bound not strict at n=4"),
        ("radius", radius, "maximal_radius", lambda: radius_with(5, upper_bound=lambda r: r.rho + 0.1),
         "FAIL radius.two-sided-bounds: upper-bound equality at n=5 violated"),
        ("radius", radius, "maximal_radius", lambda: radius_with(2, beta=lambda r: 1.0),
         "FAIL radius.overlap-above-one: beta_2 <= 1"),
        ("radius", radius, "maximal_radius", lambda: radius_with(2, rho=lambda r: 1.0),
         "FAIL radius.overlap-above-one: rho_2 <= sin(pi/2)"),
        ("radius", radius, "central_polynomial", lambda: lambda n: RationalPolynomial([1]),
         "FAIL radius.central-root-shared: the central polynomial of n=4 shows no sign change over the mu_4 interval"),
    ]




@pytest.mark.parametrize(
    "suite, target, name, fault, line", _faults(), ids=[line.split(":")[0][5:] for *_, line in _faults()]
)
def test_a_broken_oracle_fails_its_check(suite, target, name, fault, line, capsys, monkeypatch):
    monkeypatch.setattr(target, name, fault())
    code, out = run_suite(suite, capsys)
    assert code == 1
    assert line in out


def test_a_power_of_two_that_rounds_an_input_is_skipped(capsys, monkeypatch):
    # 2^-1074 rounds every sampled center and radius: each scaling by it is
    # skipped as a different collection, and the check passes
    monkeypatch.setattr(verify, "random", random_with("randint", (-1000, 1000), -1074))
    code, out = run_suite("core", capsys)
    assert code == 0
    assert "PASS core.scaling-covariance" in out


def test_a_sampler_that_never_separates_the_centers_raises(monkeypatch):
    monkeypatch.setattr(verify, "random", random_with("random", (), 0.5))
    with pytest.raises(RuntimeError, match="^failed to sample a separated center configuration$"):
        verify.core_suite()


def test_two_faults_in_one_matrix_report_the_first(capsys, monkeypatch):
    def both(c, e, l, v):
        return imaginary_diagonal(c, *off_diagonal_error(c, e, l, v))

    monkeypatch.setattr(core, "build_q_matrix", floating_build(both))
    code, out = run_suite("core", capsys)
    assert code == 1
    assert "FAIL core.hermitian-symmetry: entry (0,7) deviates from conjugate transpose" in out


@pytest.mark.parametrize("suite", [verify.core_suite, verify.triangle_suite])
def test_a_suite_that_draws_no_sample_raises(suite):
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        suite(samples=0)


@pytest.mark.parametrize(
    "suite, nmax",
    [(suite, nmax) for suite in verify.SUITES for nmax in (1, 2, 9, 10)] + [("symmetric", 32), ("symmetric", 40)],
)
def test_every_suite_at_small_and_large_nmax(suite, nmax, capsys):
    # --nmax 9 and below ended in a KeyError from the radius scale searches;
    # the symmetric suite at 32 and beyond failed on float Horner T values
    code = main(["verify", "--suite", suite, "--nmax", str(nmax)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert "FAIL" not in out
    assert out.endswith("\nverify: ok\n")
