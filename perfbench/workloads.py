"""The three workloads: inputs made from the seed, the call into qstarlike, the check.

An item is one operation.  `run` is the timed call into the program and
returns its raw output; `check` compares that output with values made
in `checks` and returns a list of problems.  An item with `fault` set is
one the program gets wrong today, for a reason named there; it is kept
in every round and counted as failed while its check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

ORDERS = (16, 32, 64)
QS = (0.5, 0.8, 0.95, 1.0)
REGIMES = ((0.0, 0.0), (0.0, 0.25), (1.0, 0.0), (1.0, 0.5), (0.5, 0.2), (2.0, 0.1))
BUILTIN_POINTS = tuple((q, k, a) for q in (0.5, 0.8, 1.0)
                       for (k, a) in ((0.0, 0.0), (0.0, 0.25), (1.0, 0.0), (1.0, 0.5)))

T_FORM_FAULT = ("classes.t_form_magnitudes zeroes |a_n| < T_FORM_ZERO_TOL (1e-14) "
                "although phi_n reaches 1e19 at q=0.5, so ts_membership certifies a non-member")
QNUM_FAULT = "qnum --symmetric overflows into an OverflowError traceback"
MEMBER_FAULT = ("member dies with a SingularDivisionError traceback when f vanishes "
                "at a grid point; a zero in the disk is a non-member witness (exit 2)")


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    fault: str | None = None


# --- ledger-default ----------------------------------------------------------


def ledger_items(seed: int) -> list[Item]:
    """The 12 default points, each a one-point ledger on the default grid."""
    from qstarlike import verify

    items = []
    for index, p in enumerate(verify.default_parameter_points()):
        point = (p.q, p.k, p.alpha)
        rng_seed = seed * 1000 + index

        def run(p=p, rng_seed=rng_seed):
            return verify.run_ledger([p], rng_seed=rng_seed).to_json_dict()

        def check(report, point=point, rng_seed=rng_seed):
            return checks.check_ledger_point(report, *point, np.random.default_rng(rng_seed))

        items.append(Item(f"ledger q={p.q} k={p.k} alpha={p.alpha}", run, check))
    return items


def ledger_warmup():
    from qstarlike import verify
    from qstarlike.conic import ClassParams

    small = verify.OracleGrid(nB=8, nRho=8, nPhi=8, nZeta=8, refinement=1)
    verify.run_ledger([ClassParams(0.9, 0.0, 0.1)], grid=small, distortion_members=16)


# --- membership-batch --------------------------------------------------------


def _decaying(rng, order: int, complex_coeffs: bool) -> np.ndarray:
    """Raw magnitudes u_n 0.3^(n-2) for a2..a_order, random phases if complex.

    The decay keeps f(z)/z free of zeros well outside the unit disk, so the
    truncated series of z D~f / f that the sampler evaluates stays within
    rounding of the exact quotient on the whole grid.
    """
    raw = rng.random(order - 1) * 0.3 ** np.arange(order - 1)
    if complex_coeffs:
        return raw * np.exp(2j * np.pi * rng.random(order - 1))
    return raw.astype(complex)


def membership_inputs(seed: int) -> list[tuple[str, np.ndarray, tuple, bool, str | None]]:
    """(label, taylor a1..aN, (q, k, alpha), negative-coefficient form, fault)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    out = []
    for order in ORDERS:
        for q in QS:
            k, alpha = REGIMES[rng.integers(len(REGIMES))]
            weights = checks.phi_vector(order, q, k, alpha)
            budget = 1.0 - alpha

            def make(kind, tail, member_scale=None, sum_abs=None):
                if member_scale is not None:
                    tail = tail * (member_scale * budget / float(np.abs(tail) @ weights))
                if sum_abs is not None:
                    tail = tail * (sum_abs / float(np.abs(tail).sum()))
                # Below T_FORM_ZERO_TOL the t-form test drops coefficients (a known
                # fault carried by the fixed items below), so seeded ones stay clear of it.
                tail[np.abs(tail) < 1e-12] = 0.0
                taylor = np.concatenate(([1.0 + 0j], tail))
                return (f"{kind} order={order} q={q} k={k} alpha={alpha}", taylor,
                        (q, k, alpha), not kind.startswith("complex"), None)

            out.append(make("complex member", _decaying(rng, order, True),
                            member_scale=rng.uniform(0.2, 0.9)))
            out.append(make("complex", _decaying(rng, order, True),
                            sum_abs=rng.uniform(0.05, 0.3)))
            out.append(make("t-form member", -_decaying(rng, order, False),
                            member_scale=rng.uniform(0.2, 0.9)))
            out.append(make("t-form non-member", -_decaying(rng, order, False),
                            member_scale=rng.uniform(1.3, 3.0)))
            n = int(rng.integers(2, 6))
            tail = np.zeros(order - 1, dtype=complex)
            tail[n - 2] = -budget / weights[n - 2]
            out.append(make(f"extremal f_{n}", tail))
    # Non-members whose only coefficient sits below T_FORM_ZERO_TOL; fixed, not seeded.
    for n, eps in ((64, 5e-15), (56, 9e-15), (50, 3e-15)):
        taylor = np.zeros(64, dtype=complex)
        taylor[0], taylor[n - 1] = 1.0, -eps
        out.append((f"tiny-coefficient non-member z - {eps} z^{n}", taylor,
                    (0.5, 0.0, 0.0), True, T_FORM_FAULT))
    return out


def _verdict(v) -> tuple:
    return v.certified, v.margin, v.witness


def membership_items(seed: int) -> list[Item]:
    from qstarlike import classes, qcalc
    from qstarlike.conic import ClassParams
    from qstarlike.series import TruncatedSeries

    items = []
    for label, taylor, point, t_form, fault in membership_inputs(seed):
        p = ClassParams(*point)
        f = TruncatedSeries.from_taylor(taylor)

        def run(f=f, p=p, t_form=t_form):
            out = {
                "sufficient": _verdict(classes.sufficient_membership(f, p)),
                "sampled": _verdict(classes.sampled_membership(f, p)),
                "derivative": qcalc.symmetric_q_derivative(f, p.q).coeffs,
            }
            if t_form:
                out["t_form"] = _verdict(classes.ts_membership(f, p))
                try:
                    w = classes.extreme_point_decompose(f, p)
                except classes.DecompositionError:
                    out["decompose"] = None
                else:
                    out["decompose"] = w.lambdas
                    out["compose"] = classes.extreme_point_compose(w, p, order=f.order).taylor
            return out

        def check(out, taylor=taylor, point=point):
            return checks.check_membership(taylor, *point, out)

        items.append(Item(label, run, check, fault))
    return items


def membership_warmup():
    from qstarlike import classes
    from qstarlike.conic import ClassParams

    p = ClassParams(0.7, 0.0, 0.0)
    f = classes.extremal_function(3, p, order=16)
    classes.sufficient_membership(f, p)
    classes.sampled_membership(f, p)


# --- cli-verbs ---------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli_subprocess(argv: list[str], env: dict, cwd: str) -> CliResult:
    proc = subprocess.run([sys.executable, "-m", "qstarlike", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def cli_inprocess(argv: list[str]) -> CliResult:
    """cli.main in this process; an escaping exception becomes what Python prints."""
    from qstarlike import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _json_out(res: CliResult, code: int = 0) -> tuple[dict | None, list[str]]:
    if res.code != code:
        return None, [f"exit {res.code}, expected {code}: {res.stderr.strip()[-200:]!r}"]
    try:
        return json.loads(res.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _expect(payload_check: Callable[[dict], list], code: int = 0):
    def check(res: CliResult) -> list[str]:
        payload, problems = _json_out(res, code)
        return problems or payload_check(payload)
    return check


def _near(name: str, got, want, tol: float = checks.TIGHT_TOL) -> list[str]:
    return [] if checks.close(got, want, tol) else [f"{name} = {got!r}, expected {want!r}"]


def cli_script(seed: int, work_dir: str) -> list[tuple[str, list[str], Callable, str | None]]:
    """(label, argv, check, fault) in the order the round issues them."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    q, k, alpha = BUILTIN_POINTS[rng.integers(len(BUILTIN_POINTS))]
    cls_flags = ["--q", repr(q), "--k", repr(k), "--alpha", repr(alpha)]
    P = checks.disk_map(k, alpha)
    n_sym = int(rng.integers(2, 40))
    q_sym = float(rng.choice(QS))
    lam = float(np.round(rng.uniform(0.5, 6.0), 3))
    n_ext = int(rng.integers(2, 9))
    r = float(np.round(rng.uniform(0.1, 0.95), 3))
    mu = float(np.round(rng.uniform(-1.0, 2.0), 3))
    f_path = os.path.join(work_dir, "extremal.json")
    bad_path = os.path.join(work_dir, "vanishing.json")
    coeff = -(1.0 - alpha) / checks.phi(n_ext, q, k, alpha)
    c = checks.distortion_c(q, k, alpha)

    def extremal_file(res):
        if res.code != 0:
            return [f"extremal exit {res.code}"]
        with open(f_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        taylor = [complex(*e) for e in doc["coeffs"]]
        want = [1.0] + [0.0] * (len(taylor) - 1)
        want[n_ext - 1] = coeff
        if len(taylor) != 32 or any(not checks.close(a, b, checks.TIGHT_TOL) for a, b in zip(taylor, want)):
            return ["extremal coefficients differ from z - (1-alpha)/phi_n z^n"]
        return []

    def member(d):
        problems = []
        if d["t_form"] is None or d["t_form"]["certified"] != "member-iff-negative":
            problems.append(f"extremal f_{n_ext} not certified by the t-form test: {d['t_form']}")
        else:
            problems += _near("t-form margin", d["t_form"]["margin"], 0.0)
        problems += _near("sufficient margin", d["sufficient"]["margin"], 0.0)
        if d["sampled"]["certified"] != "inconclusive":
            problems.append(f"class member got a sampled witness {d['sampled']}")
        return problems

    def deriv(d):
        got = [complex(*c) for c in d["coeffs"]]
        want = [1.0] + [0.0] * (len(got) - 1)
        want[n_ext - 1] = checks.sym_q(n_ext, q) * coeff
        return [] if all(checks.close(a, b, checks.TIGHT_TOL) for a, b in zip(got, want)) else [
            "derivative coefficients differ from [n]~_q a_n"]

    def decompose(d):
        want = [0.0] * 32
        want[n_ext - 1] = 1.0
        lam_got = d["lambdas"]
        if len(lam_got) != 32 or any(abs(a - b) > checks.TIGHT_TOL for a, b in zip(lam_got, want)):
            return [f"weights of f_{n_ext} are not the unit vector e_{n_ext}"]
        return []

    def distortion(d):
        return (_near("lower", d["lower"], r - c * r * r) + _near("upper", d["upper"], r + c * r * r)
                + _near("derivative_lower", d["derivative_lower"], 1.0 - 2.0 * c * r)
                + _near("derivative_upper", d["derivative_upper"], 1.0 + 2.0 * c * r))

    def hankel_bound(d):
        sample = checks.h2_sample_max(P, q, np.random.default_rng(seed))
        return [] if d["bound"] >= sample else [f"bound {d['bound']!r} below a sampled value {sample!r}"]

    def hankel_anchor(res):
        want = "|a2 a4 - a3^2| <= 7\n"
        return [] if res.code == 0 and res.stdout == want else [f"anchor printed {res.stdout!r}"]

    def vanishing_member(res):
        lines = res.stderr.strip().splitlines()
        if res.code == 2 and not any(line.startswith("Traceback") for line in lines):
            return []
        return [f"expected exit 2 for a function vanishing in the disk, got exit {res.code}: "
                f"{lines[-1] if lines else ''!r}"]

    def one_line_error(res):
        return checks.one_line_error(res.code, res.stderr)

    return [
        ("qnum symmetric", ["qnum", "--n", str(n_sym), "--q", repr(q_sym), "--symmetric", "--format", "json"],
         _expect(lambda d: _near("[n]~_q", d["value"], checks.sym_q(n_sym, q_sym))), None),
        ("qnum", ["qnum", "--n", repr(lam), "--q", repr(q_sym), "--format", "json"],
         _expect(lambda d: _near("[lambda]_q", d["value"], checks.q_number(lam, q_sym))), None),
        ("extremal", ["extremal", "--n", str(n_ext), *cls_flags, "--order", "32", "--out", f_path],
         extremal_file, None),
        ("member", ["member", "--in", f_path, *cls_flags, "--format", "json"], _expect(member), None),
        ("deriv", ["deriv", "--in", f_path, "--q", repr(q), "--symmetric", "--format", "json"],
         _expect(deriv), None),
        ("decompose", ["decompose", "--in", f_path, *cls_flags, "--format", "json"],
         _expect(decompose), None),
        ("distortion", ["distortion", "--r", repr(r), *cls_flags, "--format", "json"],
         _expect(distortion), None),
        ("hankel-bound", ["hankel-bound", *cls_flags, "--format", "json"], _expect(hankel_bound), None),
        ("hankel-bound anchor", ["hankel-bound", "--q", "1", "--k", "0", "--alpha", "0"],
         hankel_anchor, None),
        ("fs-bound", ["fs-bound", "--mu", repr(mu), *cls_flags, "--format", "json"],
         _expect(lambda d: _near("fs bound", d["bound"], checks.fs_printed(mu, P, q))), None),
        ("oracle fs", ["oracle", "--which", "fs", "--mu", repr(mu), *cls_flags, "--format", "json"],
         _expect(lambda d: _near("fs oracle", d["max"], checks.fs_sharp(mu, P, q), checks.REL_TOL)),
         None),
        ("bad q", ["qnum", "--n", "3", "--q", "1.5"], one_line_error, None),
        ("bad radius", ["distortion", "--r", "1.5", *cls_flags], one_line_error, None),
        ("missing --in", ["member", *cls_flags], one_line_error, None),
        ("bad extremal index", ["extremal", "--n", "0", *cls_flags], one_line_error, None),
        ("missing file", ["deriv", "--in", os.path.join(work_dir, "absent.json"), "--q", "0.5"],
         one_line_error, None),
        ("qnum overflow", ["qnum", "--n", "400", "--q", "0.001", "--symmetric"],
         one_line_error, QNUM_FAULT),
        ("member on a vanishing f", ["member", "--in", bad_path, "--q", "0.5", "--k", "0",
                                     "--alpha", "0"], vanishing_member, MEMBER_FAULT),
    ]


def write_vanishing_function(work_dir: str) -> None:
    """f = z + z^2/0.52, which vanishes at the grid point -0.52."""
    doc = {"order": 16, "coeffs": [[1.0, 0.0], [1.0 / 0.52, 0.0]] + [[0.0, 0.0]] * 14}
    with open(os.path.join(work_dir, "vanishing.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cli_items(seed: int, work_dir: str, env: dict | None) -> list[Item]:
    """Cold subprocesses when env is given, else cli.main in this process."""
    os.makedirs(work_dir, exist_ok=True)
    write_vanishing_function(work_dir)
    items = []
    for label, argv, check, fault in cli_script(seed, work_dir):
        if env is None:
            run = lambda argv=argv: cli_inprocess(argv)
        else:
            run = lambda argv=argv: cli_subprocess(argv, env, work_dir)
        items.append(Item(label, run, check, fault))
    return items
