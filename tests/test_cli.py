import csv
import io
import json
import math

import pytest

from diskpd.cli import main, parse_collection_document, SchemaError

TANGENT_DOC = json.dumps(
    {"disks": [{"center": [0, 0], "radius": 1}, {"center": [2, 0], "radius": 1}]}
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_out_of_domain_exits_two(self, capsys):
        code, _, err = run(["rho", "--n", "1"], capsys)
        assert code == 2
        code, _, err = run(["rho", "--n-range", "5:3"], capsys)
        assert code == 2
        code, _, err = run(["rho", "--n-range", "nope"], capsys)
        assert code == 2


class TestVerifyCommand:
    def test_triangle_suite_passes(self, capsys):
        code, out, err = run(["verify", "--suite", "triangle"], capsys)
        assert code == 0
        assert "PASS triangle.criterion-equivalence" in out
        assert out.strip().endswith("verify: ok")

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
