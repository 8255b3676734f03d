"""Seeded inputs, their oracle answers, and the checks applied to each output.

Every workload is a fixed list of operations built from the seed.  The grid
of sizes (n) and coordinate scales is the same for every seed, so the cost
of a pass barely depends on the seed; the seed moves the geometry inside
each grid cell.  The program only ever sees the generated documents and
argv.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import HarnessError, TSigns, exact_q, integer_verdict, leading_minors

PD = "positive-definite"
NOT_PD = "not-positive-definite"
INDETERMINATE = "indeterminate"

#: rho_n to 7 digits.  Only used to place radii a few percent inside or
#: outside the boundary; every verdict is decided by an oracle.
RHO_APPROX = {
    4: 0.8164966, 5: 0.7071068, 6: 0.5958616, 7: 0.5257311, 8: 0.4608042,
    9: 0.4155396, 10: 0.3738447, 11: 0.3427424, 12: 0.313903, 13: 0.2913555,
    14: 0.2702856, 15: 0.2532389, 16: 0.2371973, 23: 0.165983, 32: 0.1194548,
    45: 0.08506716, 64: 0.05983464, 91: 0.04209676, 128: 0.02993073,
}

FLOAT_NS = (8, 11, 16, 23, 32, 45, 64, 91, 128)  # log-spaced over 8..128
EXACT_NS = tuple(range(4, 17))
EXACT_MEDIAN_N = 10
SUITES = ("core", "symmetric", "orthopoly", "radius", "triangle")

BETA_RTOL = 1e-9
SCALE_RTOL = 1e-9


@dataclass
class Op:
    """One CLI call.  "{doc}" in argv stands for the path of `doc`."""

    argv: list[str]
    doc: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failures: list[str]
    decided: bool


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def _float_doc(centers, radii) -> str:
    disks = [{"center": [z.real, z.imag], "radius": r} for z, r in zip(centers, radii)]
    return json.dumps({"disks": disks})


def _rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _exact_doc(xs, ys, rs) -> str:
    disks = [
        {"center": [_rational(x), _rational(y)], "radius": _rational(r)}
        for x, y, r in zip(xs, ys, rs)
    ]
    return json.dumps({"disks": disks})


def _beta(xs, ys, rs) -> float:
    n = len(xs)
    return max(
        (rs[i] + rs[j]) / math.hypot(xs[i] - xs[j], ys[i] - ys[j])
        for i in range(n)
        for j in range(i + 1, n)
    )


def _admissible(xs, ys, rs) -> bool:
    n = len(xs)
    return all(
        (xs[j] - xs[k]) ** 2 + (ys[j] - ys[k]) ** 2 > rs[k] ** 2
        for k in range(n)
        for j in range(n)
        if j != k
    )


def _separated_points(rng: random.Random, n: int, box: int) -> list[tuple[int, int]]:
    """n integer points in [0, box)^2, pairwise at least box / (2 sqrt n) apart."""
    dmin2 = (box / (2 * math.sqrt(n))) ** 2
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        for _ in range(10_000):
            p = (rng.randrange(box), rng.randrange(box))
            if all((p[0] - a) ** 2 + (p[1] - b) ** 2 >= dmin2 for a, b in pts):
                pts.append(p)
                break
        else:
            pts = []
    return pts


def _nearest(xs, ys) -> list[float]:
    n = len(xs)
    return [
        min(math.hypot(xs[i] - xs[j], ys[i] - ys[j]) for j in range(n) if j != i)
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# check-float: generic, regular-image and collinear floating documents
# ---------------------------------------------------------------------------


def _regular_image(rng, n, r_factor, scale, scale_flag=False, theta=None, shift=None) -> Op:
    """Similarity image of the regular n-gon of radius rho_n * r_factor."""
    r = RHO_APPROX[n] * r_factor
    theta = rng.uniform(0, 2 * math.pi) if theta is None else theta
    if shift is None:
        shift = complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) * scale
    centers = [scale * cmath.exp(1j * (theta + 2 * math.pi * k / n)) + shift for k in range(n)]
    argv = ["check", "{doc}", "--format", "json"] + (["--scale"] if scale_flag else [])
    return Op(
        argv,
        _float_doc(centers, [scale * r] * n),
        {"family": "regular", "n": n, "r": r, "beta": r / math.sin(math.pi / n)},
    )


def _collinear(rng, n, spacing, truth, fixed=False) -> Op:
    """Disks of radius 0.1 * spacing, centers `spacing` apart on a line."""
    if fixed:
        step, start = complex(spacing, 0), 0j
    else:
        step = spacing * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        start = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * spacing * n
    centers = [start + k * step for k in range(n)]
    return Op(
        ["check", "{doc}", "--format", "json"],
        _float_doc(centers, [0.1 * spacing] * n),
        {"family": "collinear", "n": n, "truth": truth, "beta": 0.2},
    )


def _generic(rng, n, exponent, level) -> Op:
    """Separated random centers on a dyadic grid, radii a share of the gap.

    Coordinates are integers times a power of two, so the document holds
    them exactly and the integer oracle sees the same collection.
    """
    box = 2 ** 20
    shift = 2 ** 21
    for _ in range(100):
        pts = _separated_points(rng, n, box)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        gaps = _nearest(xs, ys)
        rs = [max(1, int(level * rng.uniform(0.6, 1.0) * g)) for g in gaps]
        tx, ty = rng.randrange(-shift, shift), rng.randrange(-shift, shift)
        xs = [x + tx for x in xs]
        ys = [y + ty for y in ys]
        try:
            truth = integer_verdict(xs, ys, rs)
        except HarnessError:
            continue  # too close to the boundary for any oracle; draw again
        break
    else:
        raise HarnessError("could not draw a decidable generic collection")
    e = round(exponent * math.log2(10)) - 20
    centers = [complex(math.ldexp(x, e), math.ldexp(y, e)) for x, y in zip(xs, ys)]
    return Op(
        ["check", "{doc}", "--format", "json"],
        _float_doc(centers, [math.ldexp(r, e) for r in rs]),
        {"family": "generic", "n": n, "truth": truth, "beta": _beta(xs, ys, rs),
         "admissible": _admissible(xs, ys, rs)},
    )


def check_float_ops(rng: random.Random, tsigns: TSigns) -> list[Op]:
    ops = []
    for i, n in enumerate(FLOAT_NS):
        # the extreme scales carry the known floating defects; the middle
        # cell (one per n) also runs --scale when n is small enough
        cells = [(-3, +1), (-3, -1), (3, +1), (3, -1), ((i % 5) - 2, (-1) ** i)]
        for c, (exponent, side) in enumerate(cells):
            delta = rng.uniform(0.02, 0.10)
            scale = 10.0 ** exponent * rng.uniform(1.0, 1.25)
            ops.append(_regular_image(rng, n, 1 + side * delta, scale, c == 4 and n <= 32))
    # the two wrong verdicts found on the seed, exactly as reported
    ops.append(_regular_image(rng, 32, 1.05, 1e3, theta=0.0, shift=complex(3e3, -2e3)))
    ops.append(_regular_image(rng, 64, 0.90, 1e-3, theta=0.0, shift=0j))

    canonical: dict[int, bool] = {}

    def collinear_truth(n):
        if n not in canonical:
            canonical[n] = integer_verdict([10 * k for k in range(n)], [0] * n, [1] * n)
        return canonical[n]

    for n, spacing in ((30, 100.0), (60, 100.0), (200, 1.0), (40, 1.0), (40, 0.01)):
        ops.append(_collinear(rng, n, spacing, collinear_truth(n), fixed=True))
    # 45 operations cost less than the n = 32 cells and 43 cost more, so the
    # median latency falls inside that block, not in a gap between sizes
    for n in (8, 11, 16, 23, 32, 64, 128):
        for exponent in (-2, 0, 2):
            spacing = 10.0 ** exponent * rng.uniform(1.0, 1.25)
            ops.append(_collinear(rng, n, spacing, collinear_truth(n)))

    for i, n in enumerate(FLOAT_NS):
        for j, exponent in enumerate((-3, 0, 3)):
            ops.append(_generic(rng, n, exponent, (0.2, 0.45, 0.7)[(i + j) % 3]))

    for op in ops:
        if op.expect["family"] == "regular":
            op.expect["truth"] = tsigns.positive(op.expect["n"], Fraction(op.expect["r"]))
        op.expect.setdefault("admissible", True)  # radius < spacing by construction
    return ops


def _finite_pivots(cert: dict) -> bool:
    return all(math.isfinite(p) for p in cert.get("pivots") or [])


def check_float_answer(op: Op, out: dict, tsigns: TSigns) -> Outcome:
    e = op.expect
    fails = []
    if out.get("n") != e["n"] or out.get("mode") != "floating":
        fails.append("wrong-shape")
    if out.get("admissible") is not e["admissible"]:
        fails.append("wrong-admissible")
    beta = out.get("beta")
    if beta is None or not math.isclose(beta, e["beta"], rel_tol=BETA_RTOL):
        fails.append("wrong-beta")
    finite = _finite_pivots(out.get("certificate", {}))
    if not finite:
        fails.append("nonfinite-pivot")
    verdict = out.get("verdict")
    if verdict not in (PD, NOT_PD, INDETERMINATE):
        fails.append("wrong-shape")
    elif verdict != INDETERMINATE and (verdict == PD) != e["truth"]:
        fails.append("wrong-verdict")
    if "--scale" in op.argv:
        s = out.get("max_uniform_scale")
        if s is None or not tsigns.brackets_rho(e["n"], s * e["r"], SCALE_RTOL):
            fails.append("wrong-scale")
    decided = verdict in (PD, NOT_PD) and "wrong-verdict" not in fails and finite
    return Outcome(fails, decided)


# ---------------------------------------------------------------------------
# check-exact: rational documents, decided by exact minors
# ---------------------------------------------------------------------------

_DENOMS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def _exact_generic(rng, n):
    """Separated rational centers and radii; the denominators depend on n only,
    so the bit sizes, and with them the cost, do not depend on the seed."""
    q = _DENOMS[1 + n % 8]
    qr = _DENOMS[n % 9]
    level = (0.3, 0.55, 0.8)[n % 3]
    pts = _separated_points(rng, n, 40 * q)
    xs = [Fraction(p[0] - 20 * q, q) for p in pts]
    ys = [Fraction(p[1] - 20 * q, q) for p in pts]
    gaps = _nearest([float(x) for x in xs], [float(y) for y in ys])
    rs = [Fraction(max(1, int(level * rng.uniform(0.6, 1.0) * g * qr)), qr) for g in gaps]
    return xs, ys, rs


def _exact_regular(rng, n):
    """Rounded regular n-gon, scaled and shifted by rationals."""
    side = (-1) ** n
    delta = rng.uniform(0.02, 0.10)
    scale = Fraction(rng.randint(11, 30), (1, 10, 100)[n % 3])
    shift = (Fraction(rng.randint(-50, 50), 7), Fraction(rng.randint(-50, 50), 3))
    theta = rng.uniform(0, 2 * math.pi)
    xs, ys = [], []
    for k in range(n):
        w = cmath.exp(1j * (theta + 2 * math.pi * k / n))
        xs.append(Fraction(round(w.real * 1000), 1000) * scale + shift[0])
        ys.append(Fraction(round(w.imag * 1000), 1000) * scale + shift[1])
    r = Fraction(round(RHO_APPROX[n] * (1 + side * delta) * 1000), 1000) * scale
    return xs, ys, [r] * n


def check_exact_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n in EXACT_NS:
        # the cost of one exact decision varies with its numbers; six more
        # generic documents at the middle size make the median latency the
        # median of several such costs rather than a single one
        makers = (_exact_generic, _exact_regular) + (_exact_generic,) * (6 if n == EXACT_MEDIAN_N else 0)
        for make in makers:
            xs, ys, rs = make(rng, n)
            den = math.lcm(*(v.denominator for v in xs + ys + rs))
            ints = [[int(v * den) for v in vals] for vals in (xs, ys, rs)]
            minors = leading_minors(exact_q(*ints))
            ops.append(Op(
                ["check", "{doc}", "--format", "json"],
                _exact_doc(xs, ys, rs),
                {"n": n, "den": den, "minors": [str(m) for m in minors],
                 "truth": len(minors) == n and all(m > 0 for m in minors),
                 "beta": _beta([float(v) for v in xs], [float(v) for v in ys],
                               [float(v) for v in rs]),
                 "admissible": _admissible(xs, ys, rs)},
            ))
    return ops


def check_exact_answer(op: Op, out: dict) -> Outcome:
    e = op.expect
    fails = []
    if out.get("n") != e["n"] or out.get("mode") != "exact" or out.get("exact_input") is not True:
        fails.append("wrong-shape")
    if out.get("admissible") is not e["admissible"]:
        fails.append("wrong-admissible")
    beta = out.get("beta")
    if beta is None or not math.isclose(beta, e["beta"], rel_tol=BETA_RTOL):
        fails.append("wrong-beta")
    verdict = out.get("verdict")
    if verdict not in (PD, NOT_PD) or (verdict == PD) != e["truth"]:
        fails.append("wrong-verdict")
    # minor k of the integer matrix is den^(2nk) times minor k of Q; a
    # certificate may stop at the first minor <= 0
    given = out.get("certificate", {}).get("leading_minors") or []
    want = [int(m) for m in e["minors"]]
    needed = len(want) if e["truth"] else next(k for k, m in enumerate(want) if m <= 0) + 1
    try:
        ok = len(given) >= needed and all(
            Fraction(g) * e["den"] ** (2 * e["n"] * (k + 1)) == w
            for k, (g, w) in enumerate(zip(given, want))
        )
    except (ValueError, ZeroDivisionError):
        ok = False
    if not ok:
        fails.append("wrong-minors")
    return Outcome(fails, not fails)


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def verify_ops(seed: int) -> list[Op]:
    """Every suite with the seed; the orthopoly suite, whose cost is the
    median, also with the next two seeds, so that the median latency is
    taken over several operations spread through the pass."""
    ops = [Op(["verify", "--suite", s, "--seed", str(seed)]) for s in SUITES]
    return ops + [Op(["verify", "--suite", "orthopoly", "--seed", str(seed + k)]) for k in (1, 2)]


def verify_answer(op: Op, text: str) -> Outcome:
    lines = text.splitlines()
    tags = [line.split(" ", 1)[0] for line in lines[:-1]]
    ok = (
        bool(lines)
        and lines[-1] == "verify: ok"
        and "FAIL" not in tags
        and "PASS" in tags
        and set(tags) <= {"PASS", "INFO"}
    )
    return Outcome([] if ok else ["verify-fail"], ok)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    exact: bool  # every answer is claimed exact, so any failure is a hard one
    pass_s: float  # time of one pass on the reference machine (README)
    min_passes: int = 1

    def passes(self, seconds: int, trace: bool) -> int:
        """A fixed number of passes per run, so that every run (and every
        version of the program) yields the same number of samples."""
        return max(self.min_passes, 2 if trace else 1, round(seconds / self.pass_s))

    def build(self, seed: int, tsigns: TSigns) -> list[Op]:
        """The operation list, in a seeded order: operations of similar cost
        are spread through the pass, so a slow spell of the machine does not
        land on all of them."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.name == "check-float":
            ops = check_float_ops(rng, tsigns)
        elif self.name == "check-exact":
            ops = check_exact_ops(rng)
        else:
            ops = verify_ops(seed)
        rng.shuffle(ops)
        return ops

    def judge(self, op: Op, text: str, tsigns: TSigns) -> Outcome:
        if self.name == "verify-all":
            return verify_answer(op, text)
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            return Outcome(["wrong-shape"], False)
        if self.name == "check-float":
            return check_float_answer(op, out, tsigns)
        return check_exact_answer(op, out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("check-float", exact=False, pass_s=6.5),
        Workload("check-exact", exact=True, pass_s=8.5),
        # at least 20 samples, so the tail percentile is not below the median
        Workload("verify-all", exact=True, pass_s=6.5, min_passes=4),
    )
}

