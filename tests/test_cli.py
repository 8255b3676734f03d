import argparse
import cmath
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskpd import cli, core, orthopoly, radius, symmetric, triangle
from diskpd.cli import build_parser, main, parse_collection_document, SchemaError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

TANGENT_DOC = json.dumps(
    {"disks": [{"center": [0, 0], "radius": 1}, {"center": [2, 0], "radius": 1}]}
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exact_documents() -> list[str]:
    """Seeded rational documents, n = 2..16: per n a regular n-gon with
    vertices rounded to 1/1000, scaled by p / 10^j and shifted by
    (p/7, q/3), and a generic collection on a (1/q)Z grid."""
    def document(points, radii) -> str:
        disks = [{"center": [str(x), str(y)], "radius": str(r)} for (x, y), r in zip(points, radii)]
        return json.dumps({"disks": disks})

    rng = random.Random(2007)
    docs = []
    for n in range(2, 17):
        scale = Fraction(rng.randint(11, 30), 10 ** (n % 3))
        shift = (Fraction(rng.randint(-50, 50), 7), Fraction(rng.randint(-50, 50), 3))
        theta = rng.uniform(0, 2 * math.pi)
        points = [
            (Fraction(round(math.cos(a) * 1000), 1000) * scale + shift[0],
             Fraction(round(math.sin(a) * 1000), 1000) * scale + shift[1])
            for a in (theta + 2 * math.pi * k / n for k in range(n))
        ]
        r = Fraction(round(math.sin(math.pi / n) * rng.uniform(0.9, 1.5) * 1000), 1000) * scale
        docs.append(document(points, [r] * n))
        q = rng.choice([1, 2, 3, 4, 6, 8, 12])
        grid = set()
        while len(grid) < n:
            grid.add((rng.randint(-20 * q, 20 * q), rng.randint(-20 * q, 20 * q)))
        points = [(Fraction(x, q), Fraction(y, q)) for x, y in sorted(grid)]
        gap = min(math.dist(a, b) for a in points for b in points if a != b)
        qr = rng.choice([1, 2, 5, 10])
        radii = [Fraction(max(1, int(gap * rng.uniform(0.3, 1.3) * qr)), qr) for _ in points]
        docs.append(document(points, radii))
    return docs


def floating_documents() -> list[tuple[str, list[str]]]:
    """Seeded floating documents with the check flags to run them with,
    n = 3..45: regular n-gons at rho_n (1 +- delta), scaled by 10^-3..10^3,
    rotated and shifted; collinear rows with radius 0.1..0.6 x spacing;
    generic collections on a dyadic grid.  The n-gons with n <= 12 and the
    shortest rows also run --scale."""
    def document(points, radii) -> str:
        return json.dumps({"disks": [{"center": [z.real, z.imag], "radius": r} for z, r in zip(points, radii)]})

    rng = random.Random(4007)
    docs = []
    for n in (3, 4, 5, 6, 7, 8, 10, 12, 16, 23, 32, 45):
        for sign in (1, -1):
            scale = 10.0 ** rng.uniform(-3, 3)
            shift = complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) * scale
            theta = rng.uniform(0, 2 * math.pi)
            r = radius.maximal_radius(n).rho * (1 + sign * rng.uniform(0.001, 0.1)) * scale
            points = [scale * cmath.exp(1j * (theta + 2 * math.pi * k / n)) + shift for k in range(n)]
            docs.append((document(points, [r] * n), ["--scale"] if n <= 12 else []))
    for n in (3, 5, 9, 17, 30, 45):
        spacing = 10.0 ** rng.uniform(-2, 2)
        ratio = rng.choice([0.1, 0.3, 0.45, 0.6])
        docs.append((document([complex(spacing * k, 0) for k in range(n)], [ratio * spacing] * n),
                     ["--scale"] if n <= 5 else []))
    for n in (3, 6, 11, 20, 33, 45):
        grid = set()
        while len(grid) < n:
            grid.add((rng.randint(-64, 64), rng.randint(-64, 64)))
        points = [complex(x, y) / 16 for x, y in sorted(grid)]
        gap = min(abs(a - b) for a in points for b in points if a != b)
        docs.append((document(points, [gap * rng.uniform(0.2, 1.2) for _ in points]), []))
    return docs


class TestParsing:
    def test_rational_strings_give_exact_collections(self):
        doc = json.dumps(
            {"disks": [{"center": ["1/2", "0"], "radius": "3/4"}, {"center": [2, 0], "radius": 1}]}
        )
        collection, _ = parse_collection_document(doc)
        assert collection.is_exact

    def test_empty_disk_list_is_a_schema_error(self):
        with pytest.raises(SchemaError, match="disks"):
            parse_collection_document('{"disks": []}')

    def test_field_targeted_messages(self):
        with pytest.raises(SchemaError, match=r"disks\[1\]\.radius"):
            parse_collection_document(
                '{"disks": [{"center": [0,0], "radius": 1}, {"center": [2,0], "radius": -1}]}'
            )
        with pytest.raises(SchemaError, match=r"disks\[0\]\.center"):
            parse_collection_document('{"disks": [{"center": [0], "radius": 1}]}')

    def test_malformed_json(self):
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_collection_document("{nope")


class TestCheckCommand:
    def test_tangent_disks(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "disks.json"
        path.write_text(TANGENT_DOC)
        code, out, err = run(["check", str(path)], capsys)
        assert code == 0
        assert "positive-definite" in out
        assert "beta:        1" in out

    def test_stdin_and_json_format(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TANGENT_DOC))
        code, out, err = run(["check", "-", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "positive-definite"
        assert payload["beta"] == 1.0
        assert payload["admissible"] is True
        assert payload["mode"] == "exact"
        assert payload["certificate"]["leading_minors"] == ["3", "8"]

    def test_scale_flag(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TANGENT_DOC))
        code, out, err = run(["check", "-", "--scale", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["max_uniform_scale"] == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_scale_flag_on_collinear_disks_far_apart(self, capsys, monkeypatch):
        # Q overflows double range at every scale the bisection tries
        doc = json.dumps(
            {"disks": [{"center": [100.0 * k, 0.0], "radius": 10.0} for k in range(30)]}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", "--scale", "--format", "json"], capsys)
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["verdict"] == "positive-definite"
        assert math.isfinite(payload["max_uniform_scale"])

    @pytest.mark.parametrize(
        "disks, flags, key, text",
        [
            ([{"center": [0, 0], "radius": 1}], ["--scale"], "max_uniform_scale", "max scale:   inf"),
            (
                [{"center": [0, 0], "radius": 1e300}, {"center": [5e-324, 0], "radius": 1e300}],
                [],
                "beta",
                "beta:        inf",
            ),
        ],
        ids=["one-disk-scale", "overflowing-beta"],
    )
    def test_json_holds_no_nonfinite_constant(self, disks, flags, key, text, capsys, monkeypatch):
        # both used to print Infinity, which strict JSON parsers reject
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        doc = json.dumps({"disks": disks})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", "--format", "json", *flags], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out, parse_constant=reject)[key] is None
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", *flags], capsys)
        assert (code, err) == (0, "")
        assert text in out.splitlines()

    def test_json_minors_beyond_the_int_to_str_limit(self, capsys, monkeypatch):
        # the largest exact minor of these 30 integer disks has 5,073 digits
        doc = json.dumps({"disks": [{"center": [100 * k, 0], "radius": 10} for k in range(30)]})
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        assert payload["verdict"] == "positive-definite"
        minors = payload["certificate"]["leading_minors"]
        assert len(minors) == 30
        assert max(map(len, minors)) > limit

    def test_text_minors_beyond_the_int_to_str_limit(self, capsys, monkeypatch):
        doc = json.dumps(
            {"disks": [{"center": [10**25 * k, 0], "radius": 10**24} for k in range(10)]}
        )
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-"], capsys)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        minors = next(line for line in out.splitlines() if line.startswith("minors:")).split()[1:]
        assert len(minors) == 10
        assert max(map(len, minors)) > limit

    def test_floating_mode_on_rational_input_decides_on_e(self, capsys, monkeypatch):
        # the unequilibrated Q of these disks overflows; E is that of the
        # same document written with float values
        def check(value):
            doc = json.dumps(
                {"disks": [{"center": [value(100 * k), 0], "radius": value(10)} for k in range(30)]}
            )
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            code, out, err = run(["check", "-", "--mode", "floating", "--format", "json"], capsys)
            assert (code, err) == (0, "")
            return json.loads(out)

        rational, floating = check(int), check(float)
        assert rational["exact_input"] and not floating["exact_input"]
        assert rational["verdict"] == "positive-definite"
        assert rational["certificate"] == floating["certificate"]

    @pytest.mark.parametrize(
        "flags", [["--mode", "auto"], ["--mode", "exact", "--scale"], ["--mode", "floating"]]
    )
    def test_rational_centers_that_round_to_one_double_exit_two(self, flags, capsys, monkeypatch):
        disks = [
            {"center": ["0", "0"], "radius": "1"},
            {"center": [f"1/{10**400}", "0"], "radius": "1"},
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"disks": disks})))
        code, out, err = run(["check", "-", *flags], capsys)
        assert (code, out) == (2, "")
        assert err == "error: disks: centers must be pairwise distinct\n"

    @pytest.mark.parametrize(
        "disk, field",
        [
            ({"center": ["1" + "0" * 400, "0"], "radius": "1"}, "center"),
            ({"center": ["0", "0"], "radius": "1" + "0" * 400}, "radius"),
        ],
    )
    def test_rational_beyond_the_double_range_exits_two(self, disk, field, capsys, monkeypatch):
        doc = json.dumps({"disks": [disk, {"center": ["3", "0"], "radius": "1"}]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: disks[0].{field}: ") and "finite" in err
        assert "0" * 20 not in err

    @pytest.mark.parametrize(
        "doc, flags, message",
        [
            ('{"disks": [{"center": [true, 0], "radius": 1}]}', [],
             "disks[0].center[0]: must be a number or rational string"),
            ('{"disks": [{"center": [0, "x"], "radius": 1}]}', [], "disks[0].center[1]: invalid rational literal 'x'"),
            ('{"disks": [{"center": [0, 0], "radius": "1/0"}]}', [], "disks[0].radius: invalid rational literal '1/0'"),
            ("[1]", [], "document: must be a JSON object"),
            ('{"disks": [{"center": [0, 0], "radius": 1}], "metadata": [1]}', [], "metadata: must be an object"),
            ('{"disks": [1]}', [], "disks[0]: must be an object"),
            ('{"disks": [{"center": [0, 0]}]}', [], "disks[0].radius: missing"),
            ('{"disks": [{"center": [0, 0], "radius": 1}, {"center": [0.0, 0], "radius": 1}]}', [],
             "disks: centers must be pairwise distinct"),
            (json.dumps({"disks": [{"center": [0, 0], "radius": f"1/{10**400}"}]}), [],
             "disks: radius 0 is not positive as a double"),
            (TANGENT_DOC.replace("1}", "1.0}"), ["--mode", "exact"], "exact mode needs rational centers and radii"),
            (None, [], "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        ],
    )
    def test_unusable_input_exits_two(self, doc, flags, message, capsys, monkeypatch, tmp_path):
        path = "-"
        if doc is None:  # a file that cannot be read
            path = str(tmp_path / "missing.json")
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", path, *flags], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=path)}\n"

    def test_minors_print_in_full_with_no_digit_limit(self, capsys, monkeypatch):
        # PYTHONINTMAXSTRDIGITS=0 turns the limit off; the printer leaves it so
        doc = json.dumps({"disks": [{"center": [10**25 * k, 0], "radius": 10**24} for k in range(10)]})
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        sys.set_int_max_str_digits(0)
        try:
            code, out, err = run(["check", "-"], capsys)
            assert sys.get_int_max_str_digits() == 0
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, err) == (0, "")
        minors = next(line for line in out.splitlines() if line.startswith("minors:")).split()[1:]
        assert max(map(len, minors)) > limit

    def test_malformed_document_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"disks": []}'))
        code, out, err = run(["check", "-"], capsys)
        assert code == 2
        assert "disks" in err

    def test_strict_admissible_exits_three(self, capsys, monkeypatch):
        doc = json.dumps(
            {"disks": [{"center": [0, 0], "radius": 3}, {"center": [2, 0], "radius": 1}]}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", "--strict-admissible"], capsys)
        assert code == 3

    def test_three_gon_verdicts(self, capsys, monkeypatch):
        def doc(r):
            disks = []
            for k in range(3):
                z = complex(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3))
                disks.append({"center": [z.real, z.imag], "radius": r})
            return json.dumps({"disks": disks})

        monkeypatch.setattr("sys.stdin", io.StringIO(doc(0.9)))
        code, out, _ = run(["check", "-"], capsys)
        assert code == 0 and "verdict:     positive-definite" in out
        monkeypatch.setattr("sys.stdin", io.StringIO(doc(1.1)))
        code, out, _ = run(["check", "-"], capsys)
        assert code == 0 and "not-positive-definite" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "1e-400", "-1"])
    def test_bad_tol_exits_two(self, capsys, monkeypatch, tol):
        # with --tol nan two overlapping disks were certified positive-definite
        doc = json.dumps({"disks": [{"center": [0, 0], "radius": 1.5}, {"center": [2, 0], "radius": 1.5}]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol must be positive and finite")

    @pytest.mark.parametrize(
        "centers, radius, why",
        [
            ([[0, 0], [1e300, 0]], 1e-300, "left the double range"),  # the pair bound overflows
            ([[0, 0], [5e-324, 0]], 1e300, "left the double range"),  # the pair bound underflows to 0
            ([[0, 2], [0, 2.225e-309]], 1, "could not bracket the scale"),
        ],
    )
    def test_scale_search_that_fails_exits_two(self, capsys, monkeypatch, centers, radius, why):
        # each of these ended in a traceback and exit code 1
        doc = json.dumps({"disks": [{"center": z, "radius": radius} for z in centers]})
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(["check", "-", "--scale"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --scale: the scale search {why}\n"


class TestRhoCommand:
    def test_golden_column(self, capsys):
        code, out, err = run(["rho", "--n-range", "2:5"], capsys)
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        rhos = [float(row[1]) for row in rows]
        assert rhos == pytest.approx(
            [math.sqrt(2), 1.0, math.sqrt(2 / 3), math.sqrt(2) / 2], abs=1e-11
        )

    def test_limits_row(self, capsys):
        code, out, err = run(["rho", "--n", "4", "--limits"], capsys)
        assert code == 0
        assert "3.83170597021" in out
        assert "1.21966989127" in out

    def test_csv_round_trip(self, capsys):
        code, out, err = run(["rho", "--n-range", "2:8", "--csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        from diskpd.radius import maximal_radius

        for row in rows:
            n = int(row["n"])
            res = maximal_radius(n)
            for column, value in (
                ("rho", res.rho),
                ("mu", res.mu),
                ("beta", res.beta),
                ("n_rho", n * res.rho),
            ):
                parsed = float(row[column])
                assert parsed == pytest.approx(value, rel=1e-11), column

    def test_deterministic_output(self, capsys):
        _, first, _ = run(["rho", "--n-range", "2:6", "--csv", "--limits"], capsys)
        _, second, _ = run(["rho", "--n-range", "2:6", "--csv", "--limits"], capsys)
        assert first == second

    def test_golden_csv_with_limits(self, capsys):
        code, out, _ = run(["rho", "--n-range", "2:64", "--csv", "--limits"], capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "bdbf3995e35e2162297d4fa33670511bcb6d1d5b922bdbebbbe6898637182aee"

    def test_out_of_domain_exits_two(self, capsys):
        code, _, err = run(["rho", "--n", "1"], capsys)
        assert code == 2
        code, _, err = run(["rho", "--n-range", "5:3"], capsys)
        assert code == 2
        code, _, err = run(["rho", "--n-range", "nope"], capsys)
        assert code == 2

    @pytest.mark.parametrize("precision", ["nan", "inf", "0", "1e-400", "-1", "1e300", "0.5", "1e-10"])
    def test_bad_precision_exits_two(self, capsys, precision):
        # a coarse one printed rho 0.707106781187 (1e300), 0.5 (0.5) and
        # 0.460804229847 (1e-10) for n = 8, whose rho is 0.460804229841
        why = "at most 1e-13" if 0 < float(precision) < math.inf else "positive and finite"
        code, out, err = run(["rho", "--n", "8", "--precision", precision], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --precision must be {why}, got {float(precision)!r}\n"

    def test_finer_precision_prints_the_default_digits(self, capsys):
        default = run(["rho", "--n", "8"], capsys)
        assert run(["rho", "--n", "8", "--precision", "1e-15"], capsys) == default
        assert "0.460804229841" in default[1]


class TestVerifyCommand:
    def test_triangle_suite_passes(self, capsys):
        code, out, err = run(["verify", "--suite", "triangle"], capsys)
        assert code == 0
        assert "PASS triangle.criterion-equivalence" in out
        assert out.strip().endswith("verify: ok")

    def test_golden_verify_all(self, capsys):
        # a passing check prints only its name, so strengthening one keeps this
        goldens = {
            "0": "350066330514644e4919ad9c474e7ed71779a7c5e1e9cee7d01a4088500dcc08",
            "1": "c849ef7cab6ea4b0dcf514cd79e1f090befd94f0d6ef498a935bafc2bfe4d0c7",
            "2": "5614d15394dc9a3350473c12f3349956b228fc09d14ccb51629c5e8f477176a8",
            "3": "02ee0a042ef097880dcce5feace326445ff5a79eac0ac38cd4dc1f73cbf11bbc",
        }
        for seed, want in goldens.items():
            code, out, _ = run(["verify", "--suite", "all", "--seed", seed], capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_golden_verify_failures(self, capsys, monkeypatch):
        # every suite fails some checks, so this pins each failure detail
        # and the random draws that follow a check stopped early
        def every(k, func, alter):
            calls = [0]

            def patched(*args, **kwargs):
                calls[0] += 1
                result = func(*args, **kwargs)
                return alter(result) if calls[0] % k == 0 else result

            return patched

        undecided = lambda report: dataclasses.replace(report, verdict=core.Verdict.INDETERMINATE)
        drop_last = lambda iso: dataclasses.replace(iso, intervals=iso.intervals[:-1], refined=iso.refined[:-1])
        monkeypatch.setattr(core, "is_positive_definite", every(97, core.is_positive_definite, undecided))
        monkeypatch.setattr(orthopoly, "isolate_real_roots", every(13, orthopoly.isolate_real_roots, drop_last))
        spectrum, t_polynomial = symmetric.circulant_spectrum, symmetric.t_polynomial
        maximal_radius, triangle_positive = radius.maximal_radius, triangle.triangle_positive
        monkeypatch.setattr(
            symmetric,
            "circulant_spectrum",
            lambda n, z: [t * (1.001 if n == 7 else 1) for t in spectrum(n, z)],
        )
        monkeypatch.setattr(
            symmetric, "t_polynomial", lambda n, m: t_polynomial(n, m) * (Fraction(1, 2) if (n, m) == (9, 4) else 1)
        )
        monkeypatch.setattr(
            radius,
            "maximal_radius",
            lambda n, *args: dataclasses.replace(r := maximal_radius(n, *args), rho=r.rho * (1.5 if n == 9 else 1)),
        )
        monkeypatch.setattr(
            triangle, "triangle_positive", lambda r1, r2, r3: triangle_positive(r1, r2, r3) != (r1 > 1.6)
        )
        code, out, _ = run(["verify", "--suite", "all", "--seed", "0"], capsys)
        assert code == 1
        assert out.count("\nFAIL ") == 16
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "1c40d6e663a80ac4a02d64a44aff95c6f2ec118b9beb77deb7f6cb787b630cc4"

    def test_golden_exact_check(self, capsys, monkeypatch):
        # exact minors print in full, so any change to the exact build or
        # decision that is not the same Fractions shows here
        digest = hashlib.sha256()
        for doc in exact_documents():
            for fmt in ("json", "text"):
                monkeypatch.setattr("sys.stdin", io.StringIO(doc))
                code, out, err = run(["check", "-", "--format", fmt], capsys)
                assert (code, err) == (0, "")
                digest.update(out.encode())
        assert digest.hexdigest() == "d7933e8f10f7d549c22ef84f63a593b6fde156a3e179405df306aad6a71b4d2b"

    def test_golden_floating_check(self, capsys, monkeypatch):
        # pivots, witness bounds and scales print to 12 digits, so this pins
        # the floating build, decision and scale search on every n-gon, row
        # and grid of floating_documents
        digest = hashlib.sha256()
        for doc, flags in floating_documents():
            for fmt in ("json", "text"):
                monkeypatch.setattr("sys.stdin", io.StringIO(doc))
                code, out, err = run(["check", "-", "--format", fmt, *flags], capsys)
                assert (code, err) == (0, "")
                digest.update(out.encode())
        assert digest.hexdigest() == "7a54205b49b52e3e3b6ead1800ecf2d1088811c660584c5dae7bf52015e2edf9"

    def test_unknown_suite_exits_two(self, capsys):
        code, out, err = run(["verify", "--suite", "bogus"], capsys)
        assert code == 2

    def test_seed_and_nmax_accepted(self, capsys):
        code, out, err = run(
            ["verify", "--suite", "symmetric", "--nmax", "6", "--seed", "1"], capsys
        )
        assert code == 0

    def test_deterministic_report(self, capsys):
        args = ["verify", "--suite", "core", "--seed", "3"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_failures_exit_one(self, capsys, monkeypatch):
        from diskpd.verify import CheckResult

        def failing_suite(seed=0, samples=0, nmax=0):
            return [CheckResult("core.stub", False, "first counterexample here")]

        monkeypatch.setitem(__import__("diskpd.verify", fromlist=["SUITES"]).SUITES, "core", failing_suite)
        code, out, err = run(["verify", "--suite", "core"], capsys)
        assert code == 1
        assert "FAIL core.stub: first counterexample here" in out
        assert "1 failure(s)" in out


USAGE = "usage: diskpd [-h] {check,rho,verify} ...\n"
CHECK_USAGE = (
    "usage: diskpd check [-h] [--mode {auto,floating,exact}] [--tol TOL] [--scale]\n"
    "                    [--strict-admissible] [--format {text,json}]\n"
    "                    input\n"
)
RHO_USAGE = (
    "usage: diskpd rho [-h] (--n N | --n-range N_RANGE) [--precision PRECISION]\n"
    "                  [--csv] [--limits]\n"
)
VERIFY_USAGE = (
    "usage: diskpd verify [-h]\n"
    "                     [--suite {core,symmetric,orthopoly,radius,triangle,all}]\n"
    "                     [--nmax NMAX] [--seed SEED]\n"
)
PARSER_OUTPUT = [
    (
        ["--help"],
        0,
        USAGE + "\n"
        "Positive definiteness of disk collections and maximal n-gon radii\n"
        "\n"
        "positional arguments:\n"
        "  {check,rho,verify}\n"
        "    check             check a JSON disk collection\n"
        "    rho               maximal radius table\n"
        "    verify            run verification suites\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n",
        "",
    ),
    (
        ["check", "--help"],
        0,
        CHECK_USAGE + "\n"
        "positional arguments:\n"
        "  input                 path to a JSON document, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --mode {auto,floating,exact}\n"
        "                        decision arithmetic (auto: exact when the input is\n"
        "                        rational)\n"
        "  --tol TOL             floating pivot tolerance\n"
        "  --scale               also compute the first radius scale where positivity\n"
        "                        is lost\n"
        "  --strict-admissible   reject non-admissible collections with exit code 3\n"
        "  --format {text,json}\n",
        "",
    ),
    (
        ["rho", "--help"],
        0,
        RHO_USAGE + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N                 single n\n"
        "  --n-range N_RANGE     inclusive range LO:HI\n"
        "  --precision PRECISION\n"
        "  --csv                 emit CSV instead of a table\n"
        "  --limits              append the Bessel-zero limit row\n",
        "",
    ),
    (
        ["verify", "--help"],
        0,
        VERIFY_USAGE + "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --suite {core,symmetric,orthopoly,radius,triangle,all}\n"
        "  --nmax NMAX           cap the symmetric/orthopoly/radius ranges\n"
        "  --seed SEED           seed for randomized checks\n",
        "",
    ),
    (
        ["bogus"],
        2,
        "",
        USAGE + "diskpd: error: argument command: invalid choice: 'bogus' (choose from 'check', 'rho', 'verify')\n",
    ),
    ([], 2, "", USAGE + "diskpd: error: the following arguments are required: command\n"),
    (["check"], 2, "", CHECK_USAGE + "diskpd check: error: the following arguments are required: input\n"),
    (["check", "X", "--bogus"], 2, "", USAGE + "diskpd: error: unrecognized arguments: --bogus\n"),
    (["--bogus", "check", "X"], 2, "", USAGE + "diskpd: error: unrecognized arguments: --bogus\n"),
    (
        ["check", "X", "--mode", "nope"],
        2,
        "",
        CHECK_USAGE
        + "diskpd check: error: argument --mode: invalid choice: 'nope' (choose from 'auto', 'floating', 'exact')\n",
    ),
    (["rho"], 2, "", RHO_USAGE + "diskpd rho: error: one of the arguments --n --n-range is required\n"),
    (
        ["rho", "--n", "3", "--n-range", "1:2"],
        2,
        "",
        RHO_USAGE + "diskpd rho: error: argument --n-range: not allowed with argument --n\n",
    ),
    (
        ["verify", "--suite", "nope"],
        2,
        "",
        VERIFY_USAGE + "diskpd verify: error: argument --suite: invalid choice: 'nope' "
        "(choose from 'core', 'symmetric', 'orthopoly', 'radius', 'triangle', 'all')\n",
    ),
]


class TestParser:
    @pytest.mark.parametrize(
        "argv, code, out, err", PARSER_OUTPUT, ids=[" ".join(case[0]) or "no-command" for case in PARSER_OUTPUT]
    )
    def test_help_and_usage_errors(self, argv, code, out, err, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(argv, capsys) == (code, out, err)

    def test_success_paths_build_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (["check", "-"], ["rho", "--n", "4"], ["verify", "--suite", "triangle"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(TANGENT_DOC))
            code, out, err = run(argv, capsys)
            assert (code, err) == (0, "")
        assert built == []
        monkeypatch.setattr("sys.stdin", io.StringIO(TANGENT_DOC))
        assert run(["check", "-", "--form", "json"], capsys)[0] == 0
        assert built == ["diskpd", "diskpd check", "diskpd rho", "diskpd verify"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "-", "--form", "json"],
            ["check", "-", "--strict"],
            ["check", "-", "--tol=1e-9", "--format=json"],
            ["check", "-"],
            ["check", "--mode", "exact", "--scale", "-"],
            ["check", "-", "extra"],
            ["check", "-", "--mode", "nope"],
            ["check", "--format", "json"],
            ["check", "-", "--", "-"],
            ["rho", "--n", "4", "--csv"],
            ["rho", "--n", "3", "--n-range", "1:2"],
            ["rho", "--n=4", "extra"],
            ["verify", "--suite", "nope"],
            ["verify", "--suite", "triangle", "--h"],
            ["-h", "check", "-"],
            ["chec", "-"],
            ["check", "-", "--tol", "-1"],
            ["check", "-", "--tol", "nan"],
            ["check", "-", "--tol", "-"],
            ["check", "-", "--tol"],
            ["check", "-", "--format", "json", "--format", "text"],
            ["check", "-", "--scale", "--scale"],
            ["check", "-", "-h"],
            ["check", "--", "-"],
            ["check", "-", "-"],
            ["rho", "--n", "1_0", "--csv"],
            ["rho", "--n-range", "-3:4"],
            ["rho", "--n-range", "2:3", "--limits", "--csv"],
            ["rho", "--n", "-1"],
            ["rho", "--n"],
            ["rho", "--n-range"],
            ["rho", "--n", "4", "--n", "5"],
            ["rho", "--n", "4", "-h"],
            ["rho", "-", "--n", "4"],
            ["rho"],
            ["verify", "--suite", "triangle", "--seed", "-1"],
            ["verify", "--suite=triangle"],
            ["verify", "--suite", "triangle", "--seed", "1_0", "--nmax", "3"],
        ],
        ids=" ".join,
    )
    def test_dispatch_matches_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

        def full_parser(argv):
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return exc.code
            return args.func(args)

        results = []
        for call in (main, full_parser):
            monkeypatch.setattr("sys.stdin", io.StringIO(TANGENT_DOC))
            code = call(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]


ARGV_VALUES = [
    "-", "-1", "-3:4", "nan", "1_0", "4", "2:5", "1e-9", "0", "X", "",
    "json", "text", "auto", "exact", "core", "triangle", "all",
]
ARGV_TOKENS = [
    *sorted({flag for command in cli._COMMANDS.values() for flag in command.options}),
    *ARGV_VALUES,
    "--", "--format=json", "--n=4", "--tol=1e-9", "--form", "--strict", "--n-r",
    "-h", "--help", "--bogus", "junk",
]

FITTING = {int: ("4", "1_0", " 3 "), float: ("1e-9", "nan", "4"), str: ("2:5", "4", "")}


@st.composite
def command_lines(draw) -> list[str]:
    """A command line built to the table (a command's positional, one, both
    or none of its required pair and any of its other options, with values
    that mostly fit them, in any order) with up to two tokens deleted or
    inserted, or the same for a name that is no command."""
    name = draw(st.sampled_from([*cli._COMMANDS] * 3 + ["chec", "-h", "--bogus"]))
    command = cli._COMMANDS.get(name, cli._COMMANDS["check"])
    parts = [[draw(st.sampled_from(["-", "doc.json", "doc.json", "doc.json", "-1", "-x"]))]] if command.positional else []
    pair = command.one_of
    given = draw(st.sampled_from([(flag,) for flag in pair] + [pair, ()])) if pair else ()
    for flag, option in command.options.items():
        if flag not in given and (flag in pair or draw(st.booleans())):
            continue
        if option.get("action") == "store_true":
            parts.append([flag])
        else:
            fitting = st.sampled_from(option.get("choices") or FITTING[option.get("type", str)])
            dashed = st.sampled_from(["-", "-1", "-3:4", "-x"])
            parts.append([flag, draw(st.one_of(fitting, fitting, fitting, dashed, st.sampled_from(ARGV_VALUES)))])
    argv = [name, *(token for part in draw(st.permutations(parts)) for token in part)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(1, len(argv)))
        if at < len(argv) and draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(st.sampled_from(ARGV_TOKENS)))
    return argv


def stub_command(args) -> int:
    """Prints the arguments that a command reads."""
    print(sorted((k, repr(v)) for k, v in vars(args).items() if k not in ("func", "command")))
    return 0


class TestArgvReader:
    """main reads a canonical argv without argparse; argparse is the reference."""

    @staticmethod
    def outcome(call, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def full_parser(argv):
        args = build_parser().parse_args(argv)
        return args.func(args)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(command_lines())
    def test_reader_agrees_with_argparse(self, argv):
        name = argv[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("COLUMNS", "80")
            for command in cli._COMMANDS:
                patch.setattr(cli, f"cmd_{command}", stub_command)
            args = cli._read_argv(argv)
            if args is not None:
                parser = argparse.ArgumentParser(prog=f"diskpd {name}")
                cli._add_arguments(parser, name)
                want, rest = parser.parse_known_args(argv[1:])
                assert rest == []
                assert {k: repr(v) for k, v in vars(args).items()} == {k: repr(v) for k, v in vars(want).items()}
            assert self.outcome(main, argv) == self.outcome(self.full_parser, argv)

    def test_canonical_argv_of_every_command_is_read(self):
        for argv in (
            ["check", "doc.json", "--format", "json", "--scale"],
            ["check", "--mode", "exact", "--strict-admissible", "-", "--tol", "1e-9"],
            ["rho", "--n-range", "2:64", "--csv", "--limits", "--precision", "1e-14"],
            ["verify", "--suite", "all", "--seed", "3", "--nmax", "8"],
        ):
            assert cli._read_argv(argv) is not None, argv


class TestEntryPoint:
    """main() reads sys.argv, as the diskpd console script calls it."""

    def diskpd(self, *argv, stdin=""):
        env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
        done = subprocess.run(
            [sys.executable, "-m", "diskpd.cli", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    def test_check_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TANGENT_DOC))
        in_process = run(["check", "-", "--format", "json"], capsys)
        assert in_process[0] == 0 and json.loads(in_process[1])["verdict"] == "positive-definite"
        assert self.diskpd("check", "-", "--format", "json", stdin=TANGENT_DOC) == in_process

    def test_help(self):
        assert self.diskpd("--help") == PARSER_OUTPUT[0][1:]

    def test_unrecognized_argument(self):
        assert self.diskpd("check", "X", "--bogus") == (2, "", USAGE + "diskpd: error: unrecognized arguments: --bogus\n")
