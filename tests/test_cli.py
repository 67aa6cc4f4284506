import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

from qstarlike import series as ser
from qstarlike.conic import conic_coefficients
from qstarlike.cli import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, MAX_INPUT_BYTES, MAX_POINTS, main


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
        # refused while the arguments are parsed, so 10^18 is as cheap as the cap + 1
        for flag, value in (("--n", MAX_EXTREMAL_ORDER + 1), ("--order", MAX_EXTREMAL_ORDER + 1),
                            ("--n", 10**18), ("--order", 10**18)):
            argv = {"--n": "2", "--order": "32", flag: str(value)}
            code, out, err = run_cli(capsys, "extremal", *cls_flags,
                                     *(item for pair in argv.items() for item in pair))
            assert code == EXIT_ERROR
            assert_one_error_line(out, err, f"argument {flag}: must lie in [1, {MAX_EXTREMAL_ORDER}]"
                                            f", got {value}")

    def test_extremal_order_below_n_is_usage_error(self, capsys, tmp_path):
        cls_flags = ("--q", "0.5", "--k", "0", "--alpha", "0")
        for n, order in (("1", "1"), ("5", "2")):
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

    def test_conic_file(self, capsys):
        # the coefficients a --conic file used to carry now come only as flags
        code, out, _ = run_cli(capsys, "hankel-bound", "--q", "1", "--k", "3",
                               "--alpha", "0", "--P1", "2", "--P2", "2", "--P3", "2",
                               "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["bound"] == pytest.approx(7.0)

    def test_user_conic_at_a_builtin_aperture(self, capsys):
        # outside the ledger, user coefficients replace the built-in ones at any k
        code, out, _ = run_cli(capsys, "hankel-bound", "--q", "1", "--k", "0", "--alpha", "0",
                               "--P1", "5", "--P2", "5", "--P3", "5", "--format", "json")
        assert code == EXIT_OK
        params = json.loads(out)["params"]
        assert (params["P1"], params["P2"], params["P3"]) == (5.0, 5.0, 5.0)
        assert params["provenance"] == "user"

    @pytest.mark.parametrize("argv", [
        ("hankel-bound", "--q", "1", "--k", "3", "--alpha", "0", "--P1", "2", "--P2", "2"),
        ("ledger", "--P3", "2"),
    ], ids=["hankel-bound", "ledger"])
    def test_user_conic_flags_come_together(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "--P1, --P2 and --P3 must be given together")


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

    def test_phi_overflow_is_one_line_error(self, capsys):
        code, out, err = run_cli(capsys, "extremal", "--n", "3", "--q", "0.5", "--k", "1",
                                 "--alpha", "0", "--order", "1024")
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "phi_1024", "overflows")


K1_FLAGS = ("--q", "0.5", "--k", "1", "--alpha", "0")
K1_ECHO = {"q": 0.5, "k": 1.0, "alpha": 0.0}
P_ECHO = dataclasses.asdict(conic_coefficients(1.0, 0.0))  # the built-in parabolic map
FS_MU = ("--mu", "0.5", "--mu-imag", "0.25")
ECHO_CASES = {
    # name: (argv, with {f} for a function file; the params echo, in order)
    "qnum": (("qnum", "--n", "3", "--q", "0.5", "--symmetric"),
             {"n": 3.0, "q": 0.5, "symmetric": True}),
    "deriv": (("deriv", "--in", "{f}", "--q", "0.5"), {"q": 0.5, "symmetric": False, "in": "{f}"}),
    "member": (("member", "--in", "{f}", *K1_FLAGS), {**K1_ECHO, "in": "{f}"}),
    "extremal": (("extremal", "--n", "3", *K1_FLAGS), {"n": 3, **K1_ECHO, "order": 32}),
    "distortion": (("distortion", "--r", "0.5", *K1_FLAGS), {"r": 0.5, **K1_ECHO}),
    "decompose": (("decompose", "--in", "{f}", *K1_FLAGS), {**K1_ECHO, "in": "{f}"}),
    "hankel-bound": (("hankel-bound", *K1_FLAGS), {**K1_ECHO, **P_ECHO}),
    "fs-bound": (("fs-bound", *FS_MU, *K1_FLAGS), {**K1_ECHO, "mu": [0.5, 0.25], **P_ECHO}),
    # the oracle used to echo "mu": 0.5 for fs and "mu": null for h2, and no provenance
    "oracle-h2": (("oracle", "--which", "h2", *K1_FLAGS), {"which": "h2", **K1_ECHO, **P_ECHO}),
    "oracle-fs": (("oracle", "--which", "fs", *FS_MU, *K1_FLAGS),
                  {"which": "fs", **K1_ECHO, "mu": [0.5, 0.25], **P_ECHO}),
}


def echo_inputs(tmp_path) -> dict:
    """The {f} of ECHO_CASES: a small class member at the point K1_FLAGS."""
    return {"f": write_function(tmp_path / "f.json", [1.0, -0.01], order=8)}


class TestParamsEcho:
    # params echoes the objects each verb computed with: its own flags, the
    # class point and, where a disk map is used, P1..P3 with their provenance
    @pytest.mark.parametrize("argv, echo", [
        pytest.param(*case, id=name) for name, case in ECHO_CASES.items()
    ])
    def test_echo_is_what_the_verb_used(self, capsys, tmp_path, argv, echo):
        paths = echo_inputs(tmp_path)
        code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv), "--format", "json")
        assert code == EXIT_OK, err
        want = {k: v.format(**paths) if isinstance(v, str) else v for k, v in echo.items()}
        assert list(json.loads(out)["params"].items()) == list(want.items())

    # the h2 oracle reads no mu: these used to be accepted and echoed
    @pytest.mark.parametrize("flags", [("--mu", "0.5"), ("--mu-imag", "0.25"), FS_MU],
                             ids=["mu", "mu-imag", "both"])
    def test_h2_oracle_refuses_mu(self, capsys, flags):
        code, out, err = run_cli(capsys, "oracle", "--which", "h2", *flags, *K1_FLAGS)
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "--mu", "fs oracle only")


class TestLedgerVerb:
    def test_single_point_with_reports(self, capsys, tmp_path):
        points = tmp_path / "points.json"
        points.write_text(json.dumps([{"q": 1.0, "k": 0.0, "alpha": 0.0}]))
        json_out = tmp_path / "report.json"
        csv_out = tmp_path / "report.csv"
        for fmt, path in (("json", json_out), ("csv", csv_out)):
            code, out, _ = run_cli(capsys, "ledger", "--points", str(points),
                                   "--format", fmt, "--out", str(path))
            assert code == EXIT_FINDINGS and out == ""  # printed shortcut rows violate by design
        doc = json.loads(json_out.read_text())
        assert "violated" in {r["status"] for r in doc["records"]}
        with open(csv_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(doc["records"])
        by_claim = {r["claim"]: r for r in rows}
        rec = by_claim["second-hankel-bound"]
        json_rec = next(r for r in doc["records"] if r["claim"] == "second-hankel-bound")
        assert float(rec["bound"]) == json_rec["bound"] == pytest.approx(7.0)

    # every verb, the ledger included, renders once and writes that text to
    # --out or to stdout, so the two are the same bytes with the same exit code
    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_report_file_matches_stdout(self, capsys, tmp_path, fmt):
        paths = echo_inputs(tmp_path)
        points = tmp_path / "points.json"
        points.write_text(json.dumps([{"q": 0.8, "k": 0.0, "alpha": 0.25}]))
        verbs = {name: argv for name, (argv, _) in ECHO_CASES.items()}
        verbs["ledger"] = ("ledger", "--points", str(points))
        for name, argv in verbs.items():
            base = (*(a.format(**paths) for a in argv), "--format", fmt)
            code, stdout, err = run_cli(capsys, *base)
            want = EXIT_FINDINGS if name == "ledger" else EXIT_OK  # the printed shortcut rows
            assert code == want, (name, err)
            out_path = tmp_path / f"{name}.{fmt}"
            assert run_cli(capsys, *base, "--out", str(out_path)) == (code, "", err)
            assert out_path.read_bytes() == stdout.encode(), name

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
        (("extremal", "--n", "5000", "--q", "0.5", "--k", "0", "--alpha", "0"), EXIT_ERROR, False),
        (("extremal", "--n", "2", "--order", "5000", "--q", "0.5", "--k", "0", "--alpha", "0"),
         EXIT_ERROR, False),
        (("qnum", "--n", "nan", "--q", "0.5"), EXIT_ERROR, False),
        # the sampled membership test evaluates on a numpy grid; this case keeps
        # the probe from passing by never reporting numpy at all
        (("member", "--in", "{f}", "--q", "0.5", "--k", "0", "--alpha", "0"), EXIT_OK, True),
        # the points file is read, and refused, before the ledger's modules load
        (("ledger", "--points", "{points}"), EXIT_ERROR, False),
        # and so are the conic flags, which must come as a full set
        (("ledger", "--P1", "1"), EXIT_ERROR, False),
    ], ids=["version", "qnum", "deriv", "hankel-bound", "fs-bound", "bad-radius",
            "bad-extremal-index", "extremal-n-above-cap", "extremal-order-above-cap", "nan-n",
            "member", "ledger-points-above-cap", "ledger-partial-P"])
    def test_closed_form_verbs_do_not_load_numpy(self, tmp_path, argv, code, numpy_loaded):
        fpath = write_function(tmp_path / "f.json", [1.0, 0.01])
        points = tmp_path / "points.json"
        points.write_text(POINTS_PAST_CAP)
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
        argv = [a.format(f=fpath, points=points) for a in argv]
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [code, numpy_loaded]

    # each datum has one way in and one way out: P1..P3 only as flags, and a
    # ledger report only as --format X with --out or stdout
    @pytest.mark.parametrize("argv", [
        ("hankel-bound", "--q", "1", "--k", "3", "--alpha", "0", "--conic", "p.json"),
        ("fs-bound", "--mu", "0", "--q", "1", "--k", "3", "--alpha", "0", "--conic", "p.json"),
        ("oracle", "--which", "h2", "--q", "1", "--k", "3", "--alpha", "0", "--conic", "p.json"),
        ("ledger", "--conic", "p.json"),
        ("ledger", "--json-out", "x.json"),
        ("ledger", "--csv-out", "x.csv"),
    ], ids=["hankel-bound-conic", "fs-bound-conic", "oracle-conic", "ledger-conic",
            "ledger-json-out", "ledger-csv-out"])
    def test_removed_options_are_unknown(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "unrecognized arguments", argv[-2])

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlike", "qnum", "--frobnicate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1


class TestOverflow:
    # each used to exit 0 with NaN or Infinity in the output, or to print
    # "error: (34, 'Numerical result out of range')" or numpy RuntimeWarnings
    @pytest.mark.parametrize("argv", [
        ("hankel-bound", "--q", "0.5", "--k", "2", "--alpha", "0", "--P1", "1e100",
         "--P2", "1e300", "--P3", "1"),
        ("fs-bound", "--mu", "0.5", "--q", "0.5", "--k", "2", "--alpha", "0", "--P1", "1",
         "--P2", "1e308", "--P3", "1", "--format", "json"),
        ("hankel-bound", "--q", "0.5", "--k", "2", "--alpha", "0", "--P1", "1e200",
         "--P2", "1", "--P3", "1"),
        ("fs-bound", "--mu", "0.5", "--q", "0.5", "--k", "2", "--alpha", "0", "--P1", "1e200",
         "--P2", "1", "--P3", "1"),
        ("oracle", "--which", "h2", "--q", "0.5", "--k", "2", "--alpha", "0", "--P1", "1e200",
         "--P2", "1", "--P3", "1"),
        ("oracle", "--which", "fs", "--mu", "0.5", "--q", "0.5", "--k", "2", "--alpha", "0",
         "--P1", "1e200", "--P2", "1", "--P3", "1"),
        ("oracle", "--which", "h2", "--q", "0.5", "--k", "2", "--alpha", "0", "--P1", "1",
         "--P2", "1e300", "--P3", "1e300"),
        ("qnum", "--n", "-2000", "--q", "0.5"),
    ], ids=["hankel-nan", "fs-inf", "hankel-pow", "fs-pow", "h2-pow", "fs-oracle-pow",
            "h2-warnings", "qnum-pow"])
    def test_overflow_is_one_line_error(self, argv):
        proc = subprocess.run([sys.executable, "-m", "qstarlike", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "overflows" in lines[0]
        assert "(34," not in proc.stderr and "Warning" not in proc.stderr

    # f = z - 1e308 z^2 is finite, but phi_2 |a_2| and [2]~_q a_2 are not: these
    # printed RuntimeWarnings and "series coefficients must be finite"
    @pytest.mark.parametrize("argv", [
        ("member", "--q", "0.5", "--k", "0", "--alpha", "0"),
        ("decompose", "--q", "0.5", "--k", "0", "--alpha", "0"),
        ("deriv", "--symmetric", "--q", "0.5"),
    ], ids=["member", "decompose", "deriv"])
    def test_huge_coefficient_is_one_line_error(self, tmp_path, argv):
        path = write_function(tmp_path / "huge.json", [1.0, -1e308], order=32)
        proc = subprocess.run([sys.executable, "-m", "qstarlike", *argv, "--in", path],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "overflows" in lines[0] and "must be finite" not in lines[0]
        assert "Warning" not in proc.stderr


class TestDeeplyNestedJson:
    # json's decoder recurses once per "[", so each of these used to end in a
    # RecursionError traceback
    @pytest.mark.parametrize("argv", [
        ("member", "--q", "0.5", "--k", "0", "--alpha", "0", "--in"),
        ("deriv", "--q", "0.5", "--in"),
        ("ledger", "--points"),
    ], ids=["member", "deriv", "ledger"])
    def test_is_one_line_error(self, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        proc = subprocess.run([sys.executable, "-m", "qstarlike", *argv, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in proc.stderr


class TestFunctionFileOrderCap:
    # the work of the --in verbs grows with the file's order, so an order above
    # the extremal cap is refused before any coefficient entry is read
    @pytest.mark.parametrize("argv", [
        ("member", "--q", "1", "--k", "0", "--alpha", "0"),
        ("deriv", "--q", "1", "--symmetric"),
        ("decompose", "--q", "1", "--k", "0", "--alpha", "0"),
    ], ids=["member", "deriv", "decompose"])
    def test_order_above_the_cap_is_one_line_error(self, capsys, tmp_path, argv):
        from qstarlike.classes import MAX_EXTREMAL_ORDER
        at_cap = tmp_path / "f.json"
        code, _, _ = run_cli(capsys, "extremal", "--n", str(MAX_EXTREMAL_ORDER), "--q", "1",
                             "--k", "0", "--alpha", "0", "--order", str(MAX_EXTREMAL_ORDER),
                             "--out", str(at_cap))
        assert code == EXIT_OK
        assert run_cli(capsys, *argv, "--in", str(at_cap))[0] == EXIT_OK
        doc = json.loads(at_cap.read_text())
        doc["order"] += 1
        doc["coeffs"].append([0.0, 0.0])
        past_cap = tmp_path / "g.json"
        past_cap.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, "--in", str(past_cap))
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, f"order {MAX_EXTREMAL_ORDER + 1}", str(MAX_EXTREMAL_ORDER))
        assert "Traceback" not in err


class TestInputByteCap:
    # an input file is read at most MAX_INPUT_BYTES + 1 bytes deep before it is
    # parsed: a 2,000,000-entry function file used to take deriv to a peak RSS
    # of about 350 MB before its entry count was refused
    @pytest.mark.parametrize("source", ["two-million-entries", "endless-device"])
    def test_refused_before_parsing(self, tmp_path, source):
        if source == "endless-device":
            path = "/dev/zero"
            if not os.path.exists(path):
                pytest.skip("no /dev/zero")
        else:
            path = tmp_path / "big.json"
            with open(path, "w") as fh:
                fh.write('{"order": 2, "coeffs": [' + ", ".join(["[0.5, 0]"] * 2_000_000) + "]}")
            path = str(path)
        probe = (
            "import resource, subprocess, sys\n"
            "proc = subprocess.run([sys.executable, '-m', 'qstarlike', 'deriv', '--q', '0.5',"
            " '--in', sys.argv[1]], capture_output=True, text=True, timeout=60)\n"
            "print(proc.returncode)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
            "sys.stdout.write(proc.stdout + proc.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe, path],
                              capture_output=True, text=True, timeout=120)
        code, maxrss_kb, output = proc.stdout.split("\n", 2)
        assert int(code) == EXIT_ERROR
        assert_one_error_line("", output, "--in", path, f"larger than {MAX_INPUT_BYTES} bytes")
        assert int(maxrss_kb) < 100 * 1024


IN_VERBS = {
    "member": ("member", "--q", "0.5", "--k", "0", "--alpha", "0", "--in"),
    "deriv": ("deriv", "--q", "0.5", "--in"),
    "decompose": ("decompose", "--q", "0.5", "--k", "0", "--alpha", "0", "--in"),
}
LOOSE_FUNCTION_FILES = {
    # (document, a word the one error line must name)
    "coeffs-not-a-list": ({"order": 2, "coeffs": 5}, "coeffs"),
    "string-entries": ({"order": 2, "coeffs": ["10", "20"]}, "coefficient entry"),
    "dict-entry": ({"order": 2, "coeffs": [{"0": 1, "1": 0}, [0.5, 0]]}, "coefficient entry"),
    "bool-entry": ({"order": 2, "coeffs": [[True, 0], [0.5, 0]]}, "coefficient entry"),
    "three-number-entry": ({"order": 2, "coeffs": [[1, 0, 9], [0.5, 0]]}, "coefficient entry"),
    "fractional-order": ({"order": 2.7, "coeffs": [[1, 0], [0.5, 0]]}, "order"),
    "bool-order": ({"order": True, "coeffs": [[1, 0]]}, "order"),
}
LOOSE_FILE_CASES = [
    pytest.param(IN_VERBS[verb], doc, word, id=f"{verb}-{name}")
    for verb in IN_VERBS for name, (doc, word) in LOOSE_FUNCTION_FILES.items()
]


class TestStrictFileReading:
    # function files are read as written or refused: a string, a
    # bool, an object or an entry of the wrong length is never converted, and
    # a fractional order is never rounded; the error line names what is wrong
    @pytest.mark.parametrize("argv, doc, word", LOOSE_FILE_CASES)
    def test_is_one_line_error(self, capsys, tmp_path, argv, doc, word):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, word)


BIG_INT = "1" + "0" * 400  # a JSON integer that no double can hold
# what deriv --out writes: readable by no verb, since each needs a normalized series
DERIVATIVE_FILE = json.dumps(ser.to_json_dict(ser.TruncatedSeries((1, 1.5, 0)), kind="derivative"))
CLASS_FLAGS = ("--q", "0.5", "--k", "0", "--alpha", "0")
POINTS_PAST_CAP = json.dumps([{"q": 1, "k": 0, "alpha": 0}] * (MAX_POINTS + 1))
ONE_DIAGNOSTIC_ROWS = {
    # name: (argv, with {path} for the input file; the file's text or None; the flag)
    "k-nan": (("distortion", "--r", "0.5", "--q", "0.5", "--k", "nan", "--alpha", "0"),
              None, "--k"),
    "k-inf": (("hankel-bound", "--q", "0.5", "--k", "inf", "--alpha", "0"), None, "--k"),
    "alpha-nan": (("distortion", "--r", "0.5", "--q", "0.5", "--k", "0", "--alpha", "nan"),
                  None, "--alpha"),
    "P1-nan": (("hankel-bound", "--q", "1", "--k", "2", "--alpha", "0", "--P1", "nan",
                "--P2", "1", "--P3", "1"), None, "--P1"),
    "mu-inf": (("fs-bound", "--mu", "inf", *CLASS_FLAGS), None, "--mu"),
    "member-not-json": ((*IN_VERBS["member"], "{path}"), "not json", "--in"),
    "deriv-not-json": ((*IN_VERBS["deriv"], "{path}"), "not json", "--in"),
    "decompose-not-json": ((*IN_VERBS["decompose"], "{path}"), "not json", "--in"),
    "in-huge-int": ((*IN_VERBS["member"], "{path}"),
                    f'{{"order": 2, "coeffs": [[{BIG_INT}, 0], [0.5, 0]]}}', "--in"),
    "points-huge-int": (("ledger", "--points", "{path}"),
                        f'[{{"q": 1, "k": {BIG_INT}, "alpha": 0}}]', "--points"),
    "points-string-q": (("ledger", "--points", "{path}"),
                        '[{"q": "0.5", "k": 0, "alpha": 0}]', "--points"),
    "points-bool-k": (("ledger", "--points", "{path}"),
                      '[{"q": 0.5, "k": true, "alpha": 0}]', "--points"),
    # an empty list padded past the cap: read whole, it would run a ledger of no points
    "points-above-byte-cap": (("ledger", "--points", "{path}"), "[" + " " * MAX_INPUT_BYTES + "]",
                              "--points"),
    # well inside the byte cap, yet each point would cost a ledger's worth of records
    "points-above-count-cap": (("ledger", "--points", "{path}"), POINTS_PAST_CAP, "--points"),
    "member-derivative-file": ((*IN_VERBS["member"], "{path}"), DERIVATIVE_FILE, "--in"),
    "deriv-derivative-file": ((*IN_VERBS["deriv"], "{path}"), DERIVATIVE_FILE, "--in"),
    "decompose-derivative-file": ((*IN_VERBS["decompose"], "{path}"), DERIVATIVE_FILE, "--in"),
    "extremal-n-above-cap": (("extremal", "--n", "5000", *CLASS_FLAGS), None, "--n"),
    "extremal-order-above-cap": (("extremal", "--n", "2", "--order", "5000", *CLASS_FLAGS),
                                 None, "--order"),
}


class TestOneDiagnosticPerInput:
    # each flag is checked once, by its argparse type, and each input file once,
    # by the one strict reader, so every refusal names the flag (and the file)
    @pytest.mark.parametrize("argv, text, flag", [
        pytest.param(*row, id=name) for name, row in ONE_DIAGNOSTIC_ROWS.items()
    ])
    def test_names_the_flag(self, capsys, tmp_path, argv, text, flag):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert code == EXIT_ERROR
        assert "Traceback" not in err
        words = (f"argument {flag}",) if text is None else (flag, str(path))
        assert_one_error_line(out, err, *words)

    def test_non_numeric_text_keeps_argparse_wording(self, capsys):
        code, out, err = run_cli(capsys, "hankel-bound", "--q", "0.5", "--k", "wide",
                                 "--alpha", "0")
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "argument --k: invalid float value: 'wide'")
        code, out, err = run_cli(capsys, "extremal", "--n", "two", *CLASS_FLAGS)
        assert code == EXIT_ERROR
        assert_one_error_line(out, err, "argument --n: invalid int value: 'two'")
