import csv
import io
import json
import math
import subprocess
import sys

import pytest

from qstarlike.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(out, err, *words):
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert all(word in lines[0] for word in words)


def write_function(path, taylor, order=None):
    order = order or len(taylor)
    coeffs = list(taylor) + [0.0] * (order - len(taylor))
    path.write_text(json.dumps({
        "order": order,
        "coeffs": [[float(c), 0.0] for c in coeffs],
    }))
    return str(path)


class TestQnum:
    def test_symmetric_hand_value(self, capsys):
        code, out, _ = run_cli(capsys, "qnum", "--n", "3", "--q", "0.5", "--symmetric")
        assert code == EXIT_OK
        assert out.strip() == "5.25"

    def test_plain_q_number(self, capsys):
        code, out, _ = run_cli(capsys, "qnum", "--n", "3", "--q", "0.5")
        assert code == EXIT_OK
        assert out.strip() == "1.75"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "qnum", "--n", "2", "--q", "0.5",
                               "--symmetric", "--format", "json")
        doc = json.loads(out)
        assert doc["value"] == 2.5
        assert doc["params"]["symmetric"] is True
        assert doc["version"]

    def test_csv_matches_json(self, capsys):
        _, json_out, _ = run_cli(capsys, "qnum", "--n", "2", "--q", "0.5",
                                 "--symmetric", "--format", "json")
        _, csv_out, _ = run_cli(capsys, "qnum", "--n", "2", "--q", "0.5",
                                "--symmetric", "--format", "csv")
        doc = json.loads(json_out)
        row = next(csv.DictReader(io.StringIO(csv_out)))
        assert float(row["value"]) == doc["value"]
        assert float(row["params.q"]) == doc["params"]["q"]

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "qnum", "--n", "3")
        assert code == EXIT_ERROR
        assert "--q" in err

    def test_out_of_range_q(self, capsys):
        code, _, err = run_cli(capsys, "qnum", "--n", "3", "--q", "1.5")
        assert code == EXIT_ERROR
        assert "--q" in err

    def test_symmetric_overflow_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "qnum", "--n", "400", "--q", "0.001", "--symmetric")
        assert code == EXIT_ERROR
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "overflows" in lines[0]

    def test_conditioning_warning(self, capsys):
        code, _, err = run_cli(capsys, "qnum", "--n", "2", "--q", "1e-4", "--symmetric")
        assert code == EXIT_OK
        assert "warning" in err

    # These used to sum n terms in a Python loop that nothing stopped (the first
    # two never returned), so they run in a child process that the timeout ends.
    @pytest.mark.parametrize("n, q, code, value", [
        ("1e300", "1", EXIT_OK, 1e300),
        ("3e7", "1", EXIT_OK, 3e7),
        ("1e12", "0.9999999999", EXIT_ERROR, None),
        ("1048577", "0.5", EXIT_ERROR, None),
    ], ids=["q1-1e300", "q1-3e7", "near-q1-1e12", "over-cap"])
    def test_symmetric_large_n_returns(self, n, q, code, value):
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlike", "qnum", "--n", n, "--q", q, "--symmetric",
             "--format", "json"],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == code
        if value is None:
            assert_one_error_line(proc.stdout, proc.stderr, "n <= 1048576")
        else:
            assert json.loads(proc.stdout)["value"] == value


class TestDeriv:
    def test_symmetric_derivative_file(self, capsys, tmp_path):
        fpath = write_function(tmp_path / "f.json", [1.0, 1.0])
        code, out, _ = run_cli(capsys, "deriv", "--in", fpath, "--q", "0.5",
                               "--symmetric", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "derivative"
        assert doc["coeffs"][0] == [1.0, 0.0]
        assert doc["coeffs"][1] == [2.5, 0.0]

    def test_plain_derivative(self, capsys, tmp_path):
        fpath = write_function(tmp_path / "f.json", [1.0, 1.0])
        code, out, _ = run_cli(capsys, "deriv", "--in", fpath, "--q", "0.5",
                               "--format", "json")
        doc = json.loads(out)
        assert doc["coeffs"][1] == [1.5, 0.0]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "deriv", "--in", str(tmp_path / "nope.json"),
                               "--q", "0.5")
        assert code == EXIT_ERROR


class TestMemberAndExtremal:
    def test_identity_is_inconclusive_exit_zero(self, capsys, tmp_path):
        fpath = write_function(tmp_path / "f.json", [1.0], order=4)
        code, out, _ = run_cli(capsys, "member", "--in", fpath, "--q", "0.5",
                               "--k", "1", "--alpha", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["sampled"]["certified"] == "inconclusive"
        assert doc["sampled"]["margin"] == pytest.approx(1.0, abs=1e-12)
        assert doc["sufficient"]["margin"] == pytest.approx(1.0, abs=1e-15)

    def test_extremal_roundtrip_margin_zero(self, capsys, tmp_path):
        out_path = tmp_path / "f2.json"
        code, out, _ = run_cli(capsys, "extremal", "--n", "2", "--q", "0.5",
                               "--k", "1", "--alpha", "0",
                               "--format", "json", "--out", str(out_path))
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        assert doc["coeffs"][0] == [1.0, 0.0]
        assert doc["coeffs"][1] == [-0.25, 0.0]
        code, out, _ = run_cli(capsys, "member", "--in", str(out_path), "--q", "0.5",
                               "--k", "1", "--alpha", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert abs(doc["sufficient"]["margin"]) < 1e-12
        assert doc["t_form"]["certified"] == "member-iff-negative"

    def test_extremal_size_caps(self, capsys, tmp_path):
        from qstarlike.classes import MAX_EXTREMAL_ORDER
        cls_flags = ("--q", "1", "--k", "0", "--alpha", "0")
        out_path = tmp_path / "f.json"
        code, _, _ = run_cli(capsys, "extremal", "--n", str(MAX_EXTREMAL_ORDER), *cls_flags,
                             "--order", str(MAX_EXTREMAL_ORDER), "--out", str(out_path))
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["order"] == MAX_EXTREMAL_ORDER
        # refused before anything is allocated, so 10^18 is as cheap as the cap + 1
        for flag, value in (("--n", MAX_EXTREMAL_ORDER + 1), ("--order", MAX_EXTREMAL_ORDER + 1),
                            ("--n", 10**18), ("--order", 10**18)):
            argv = {"--n": "2", "--order": "32", flag: str(value)}
            code, out, err = run_cli(capsys, "extremal", *cls_flags,
                                     *(item for pair in argv.items() for item in pair))
            assert code == EXIT_ERROR
            assert out == ""
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert f"{flag.lstrip('-')} = {value}" in lines[0]
            assert f"must not exceed {MAX_EXTREMAL_ORDER}" in lines[0]

    def test_extremal_order_below_n_is_usage_error(self, capsys, tmp_path):
        cls_flags = ("--q", "0.5", "--k", "0", "--alpha", "0")
        for n, order in (("3", "-7"), ("5", "2")):
            out_path = tmp_path / f"f{n}.json"
            code, out, err = run_cli(capsys, "extremal", "--n", n, "--order", order, *cls_flags,
                                     "--out", str(out_path))
            assert code == EXIT_ERROR
            assert out == "" and not out_path.exists()
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert f"order = {order}" in lines[0] and f"= {n}" in lines[0]
        out_path = tmp_path / "f40.json"
        code, _, _ = run_cli(capsys, "extremal", "--n", "40", *cls_flags, "--out", str(out_path))
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["order"] == 40

    def test_vanishing_function_is_witness(self, capsys, tmp_path):
        # f = z + z^2/0.52 vanishes at the grid point -0.52
        fpath = write_function(tmp_path / "f.json", [1.0, 1.0 / 0.52], order=16)
        code, out, _ = run_cli(capsys, "member", "--in", fpath, "--q", "0.5",
                               "--k", "0", "--alpha", "0", "--format", "json")
        assert code == EXIT_FINDINGS

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["sampled"]["certified"] == "not-member-witness"
        assert doc["sampled"]["margin"] is None
        assert complex(*doc["sampled"]["witness"]) == pytest.approx(-0.52)

    def test_witness_exit_code(self, capsys, tmp_path):
        fpath = write_function(tmp_path / "fat.json", [1.0, -0.9], order=8)
        # negative-coefficient form that badly violates the budget
        code, out, _ = run_cli(capsys, "member", "--in", fpath, "--q", "0.5",
                               "--k", "1", "--alpha", "0", "--format", "json")
        assert code == EXIT_FINDINGS
        doc = json.loads(out)
        assert doc["t_form"]["certified"] == "not-member-witness"


class TestScalarVerbs:
    def test_distortion(self, capsys):
        code, out, _ = run_cli(capsys, "distortion", "--r", "0.5", "--q", "0.5",
                               "--k", "1", "--alpha", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["upper"] == pytest.approx(0.5 + 0.25 * 0.25)
        assert doc["derivative_upper"] == pytest.approx(1.25)

    def test_decompose(self, capsys, tmp_path):
        out_path = tmp_path / "f2.json"
        run_cli(capsys, "extremal", "--n", "2", "--q", "0.5", "--k", "1",
                "--alpha", "0", "--format", "json", "--out", str(out_path))
        code, out, _ = run_cli(capsys, "decompose", "--in", str(out_path),
                               "--q", "0.5", "--k", "1", "--alpha", "0",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["lambdas"][1] == pytest.approx(1.0, abs=1e-12)

    def test_hankel_bound(self, capsys):
        code, out, _ = run_cli(capsys, "hankel-bound", "--q", "1", "--k", "0",
                               "--alpha", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(7.0)
        assert doc["quantities"]["V"] == pytest.approx(84.0)

    def test_fs_bound(self, capsys):
        code, out, _ = run_cli(capsys, "fs-bound", "--mu", "0", "--q", "1",
                               "--k", "0", "--alpha", "0", "--format", "json")
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(3.0)
        assert doc["bound_real_branch"] == pytest.approx(3.0)
        assert doc["breakpoint"] == pytest.approx(0.5)

    def test_user_conic_flags(self, capsys):
        code, out, _ = run_cli(capsys, "fs-bound", "--mu", "0", "--q", "1",
                               "--k", "2", "--alpha", "0",
                               "--P1", "2", "--P2", "2", "--P3", "2",
                               "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(3.0)
        assert doc["params"]["provenance"] == "user"

    def test_unsupported_regime_without_user_conic(self, capsys):
        code, _, err = run_cli(capsys, "fs-bound", "--mu", "0", "--q", "1",
                               "--k", "2", "--alpha", "0")
        assert code == EXIT_ERROR
        assert "k=2" in err

    def test_conic_file(self, capsys, tmp_path):
        conic = tmp_path / "p.json"
        conic.write_text(json.dumps({"P": [2.0, 2.0, 2.0]}))
        code, out, _ = run_cli(capsys, "hankel-bound", "--q", "1", "--k", "3",
                               "--alpha", "0", "--conic", str(conic),
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["bound"] == pytest.approx(7.0)


H2_ORACLE = ("oracle", "--which", "h2", "--q", "1", "--k", "0", "--alpha", "0")


class TestOracleVerb:
    def test_h2_oracle_classical_point(self, capsys):
        # the Janteng-Halim-Darus value H2 <= 1 for starlike functions, attained
        code, out, _ = run_cli(capsys, "oracle", "--which", "h2", "--q", "1", "--k", "0",
                               "--alpha", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["max"] == pytest.approx(1.0, abs=1e-12)
        assert set(doc) == {"tool", "version", "params", "max", "argmax"}

    def test_fs_oracle_reports_no_grid(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--which", "fs", "--mu", "0.5", "--q", "0.5",
                               "--k", "1", "--alpha", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "grid" not in doc["params"]
        assert doc["argmax"]["B1"] in (0.0, 2.0)
        assert "levels" not in doc

    @pytest.mark.parametrize("flags", [
        ("--nB", "4", "--refine", "99"),
        ("--nB", "101"),
        ("--nRho", "41"),
        ("--refine", "2"),
    ])
    def test_fs_oracle_refuses_grid_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, "oracle", "--which", "fs", "--mu", "0.5", "--q", "0.5",
                                 "--k", "0", "--alpha", "0", *flags)
        assert code == EXIT_ERROR
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert all(flag in lines[0] for flag in flags if flag.startswith("--"))

    def test_fs_oracle_requires_mu(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--which", "fs", "--q", "1",
                               "--k", "0", "--alpha", "0")
        assert code == EXIT_ERROR
        assert "--mu" in err

    # no verb takes a grid any more: the flags are unknown to the parser, so
    # they are refused before anything is computed, whatever their value
    @pytest.mark.parametrize("verb", [H2_ORACLE, ("ledger",)])
    def test_grid_over_cap_is_usage_error(self, capsys, verb):
        code, out, err = run_cli(capsys, *verb, "--nB", "100000", "--nRho", "100000")
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "unrecognized arguments", "--nB", "--nRho")

    def test_refinement_over_cap_is_usage_error(self, capsys):
        for verb in (H2_ORACLE, ("ledger",)):
            for refine in ("0", "20", "21", str(10**18)):
                code, out, err = run_cli(capsys, *verb, "--refine", refine)
                assert code == EXIT_ERROR
                assert_one_error_line(out, err, "unrecognized arguments", "--refine")


class TestNonFiniteFlags:
    # a NaN or inf used to reach the output ("value": NaN is not strict JSON)
    # or an oracle (a numpy RuntimeWarning and "oracle max: nan")
    @pytest.mark.parametrize("argv, flag", [
        (("qnum", "--n", "nan", "--q", "0.5", "--format", "json"), "--n"),
        (("qnum", "--n", "inf", "--q", "0.5"), "--n"),
        (("qnum", "--n=-inf", "--q", "0.5"), "--n"),
        (("qnum", "--n", "nan", "--q", "0.5", "--symmetric"), "--n"),
        (("fs-bound", "--mu", "nan", "--q", "0.5", "--k", "0", "--alpha", "0"), "--mu"),
        (("fs-bound", "--mu", "0.5", "--mu-imag", "inf", "--q", "0.5", "--k", "0",
          "--alpha", "0"), "--mu-imag"),
        (("oracle", "--which", "fs", "--mu", "inf", "--q", "0.5", "--k", "0",
          "--alpha", "0"), "--mu"),
        (("oracle", "--which", "fs", "--mu", "0", "--mu-imag", "nan", "--q", "0.5",
          "--k", "0", "--alpha", "0"), "--mu-imag"),
        (("oracle", "--which", "h2", "--mu", "nan", "--q", "1", "--k", "0",
          "--alpha", "0"), "--mu"),
    ])
    def test_refused(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, flag, "must be finite")

    # P1 = inf used to be written as "P1": Infinity, P2 = nan as "<= nan", both exit 0
    @pytest.mark.parametrize("argv, name", [
        (("hankel-bound", "--q", "1", "--k", "2", "--alpha", "0", "--P1", "inf",
          "--P2", "1", "--P3", "1", "--format", "json"), "P1"),
        (("fs-bound", "--mu", "0.5", "--q", "1", "--k", "2", "--alpha", "0", "--P1", "1",
          "--P2", "nan", "--P3", "1"), "P2"),
        (("hankel-bound", "--q", "1", "--k", "2", "--alpha", "0", "--P1", "1",
          "--P2", "1", "--P3=-inf"), "P3"),
        (("oracle", "--which", "h2", "--q", "1", "--k", "2", "--alpha", "0", "--P1", "nan",
          "--P2", "1", "--P3", "1"), "P1"),
    ])
    def test_non_finite_conic_flags_refused(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, name, "must be finite")

    @pytest.mark.parametrize("verb", [
        ("hankel-bound", "--q", "1", "--k", "2", "--alpha", "0"),
        ("fs-bound", "--mu", "0.5", "--q", "1", "--k", "2", "--alpha", "0"),
        ("ledger", "--format", "json"),
    ])
    def test_non_finite_conic_file_refused(self, capsys, tmp_path, verb):
        conic = tmp_path / "p.json"
        conic.write_text('{"P": [1e400, 1.0, 1.0]}')  # json loads 1e400 as inf
        code, out, err = run_cli(capsys, *verb, "--conic", str(conic))
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "P1", "must be finite")

    def test_phi_overflow_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "extremal", "--n", "3", "--q", "0.5", "--k", "1",
                                 "--alpha", "0", "--order", "1024")
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "phi_1024", "overflows")


class TestLedgerVerb:
    def test_single_point_with_reports(self, capsys, tmp_path):
        points = tmp_path / "points.json"
        points.write_text(json.dumps([{"q": 1.0, "k": 0.0, "alpha": 0.0}]))
        json_out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "ledger", "--points", str(points),
            "--json-out", str(json_out), "--csv-out", str(csv_out),
        )
        assert code == EXIT_FINDINGS  # printed shortcut rows violate by design
        assert "violated" in out
        doc = json.loads(json_out.read_text())
        with open(csv_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["records"])
        by_claim = {r["claim"]: r for r in rows}
        rec = by_claim["second-hankel-bound"]
        json_rec = next(r for r in doc["records"] if r["claim"] == "second-hankel-bound")
        assert float(rec["bound"]) == json_rec["bound"] == pytest.approx(7.0)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_file_matches_stdout(self, capsys, tmp_path, fmt):
        points = tmp_path / "points.json"
        points.write_text(json.dumps([{"q": 0.8, "k": 0.0, "alpha": 0.25}]))
        report = tmp_path / f"report.{fmt}"
        out_path = tmp_path / f"out.{fmt}"
        base = ("ledger", "--points", str(points), "--format", fmt)
        code, out, _ = run_cli(capsys, *base, f"--{fmt}-out", str(report))
        assert code == EXIT_FINDINGS  # the printed shortcut rows
        assert out.encode() == report.read_bytes()
        code, out, _ = run_cli(capsys, *base, "--out", str(out_path))
        assert code == EXIT_FINDINGS and out == ""
        assert out_path.read_bytes() == report.read_bytes()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path, tolerance):
        # NaN and inf used to pass every slack (exit 0), -1 to fail 11 of 13 records
        points = tmp_path / "points.json"
        points.write_text(json.dumps([{"q": 1.0, "k": 0.0, "alpha": 0.0}]))
        base = ("ledger", "--points", str(points))
        code, out, _ = run_cli(capsys, *base)
        assert code == EXIT_FINDINGS and "1 violated" in out
        code, out, err = run_cli(capsys, *base, f"--tolerance={tolerance}")
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "tolerance")

    def test_malformed_points_file(self, capsys, tmp_path):
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"q": 1.0}))
        code, _, err = run_cli(capsys, "ledger", "--points", str(points))
        assert code == EXIT_ERROR
        assert "--points" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlike", "qnum", "--n", "3", "--q", "0.5",
             "--symmetric"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5.25"

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlike", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("qstarlike ")

    @pytest.mark.parametrize("argv, missing", [
        (("deriv", "--q", "0.5"), "--in"),
        (("member", "--q", "0.5", "--k", "0"), "--alpha, --in"),
        (("extremal", "--q", "0.5", "--k", "0", "--alpha", "0"), "--n"),
        (("distortion", "--q", "0.5", "--k", "0", "--alpha", "0"), "--r"),
        (("fs-bound", "--q", "0.5", "--k", "0", "--alpha", "0"), "--mu"),
        (("oracle", "--which", "h2", "--k", "0", "--alpha", "0"), "--q"),
    ])
    def test_required_flags(self, capsys, argv, missing):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: the following arguments are required: {missing}\n"

    @pytest.mark.parametrize("argv, code, numpy_loaded", [
        (("--version",), EXIT_OK, False),
        (("qnum", "--n", "3", "--q", "0.5", "--symmetric", "--format", "json"), EXIT_OK, False),
        (("deriv", "--in", "{f}", "--q", "0.5", "--symmetric"), EXIT_OK, False),
        (("hankel-bound", "--q", "0.5", "--k", "1", "--alpha", "0"), EXIT_OK, False),
        (("fs-bound", "--mu", "0.5", "--q", "0.8", "--k", "0", "--alpha", "0"), EXIT_OK, False),
        (("distortion", "--r", "1.5", "--q", "0.5", "--k", "0", "--alpha", "0"),
         EXIT_ERROR, False),
        (("extremal", "--n", "0", "--q", "0.5", "--k", "0", "--alpha", "0"), EXIT_ERROR, False),
        (("qnum", "--n", "nan", "--q", "0.5"), EXIT_ERROR, False),
        # the sampled membership test evaluates on a numpy grid; this case keeps
        # the probe from passing by never reporting numpy at all
        (("member", "--in", "{f}", "--q", "0.5", "--k", "0", "--alpha", "0"), EXIT_OK, True),
    ], ids=["version", "qnum", "deriv", "hankel-bound", "fs-bound", "bad-radius",
            "bad-extremal-index", "nan-n", "member"])
    def test_closed_form_verbs_do_not_load_numpy(self, tmp_path, argv, code, numpy_loaded):
        fpath = write_function(tmp_path / "f.json", [1.0, 0.01])
        probe = (
            "import contextlib, io, json, sys\n"
            "from qstarlike import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        code = cli.main(json.loads(sys.argv[1]))\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(json.dumps([code, 'numpy' in sys.modules]))\n"
        )
        argv = [a.format(f=fpath) for a in argv]
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, numpy_loaded]

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlike", "qnum", "--frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
