"""Single-binary command line for every library operation.

Verbs: qnum, deriv, member, extremal, distortion, decompose,
hankel-bound, fs-bound, oracle, ledger.  Batch-oriented: no interactive
mode, machine formats (json/csv) carry exactly the same numbers, all
human output uses 12 significant digits, and every machine payload
embeds the tool version plus the full parameter set.

Exit codes: 0 success / all verified; 2 membership witness found or
ledger contains violations; 1 usage or IO error (single-line diagnostic
naming the offending flag).
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import sys
from dataclasses import dataclass

from . import __version__
from . import classes as cls
from . import hankel as hk
from . import qcalc
from . import series as ser
from . import verify as ver
from .conic import ClassParams, ConicCoefficients, conic_coefficients

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2


class CliError(ValueError):
    pass


@dataclass(frozen=True)
class CliConfig:
    fmt: str = "human"
    out_path: str | None = None


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}.{i}", out)
    else:
        out[prefix] = "" if value is None else value


def _emit(payload: dict, human_lines, cfg: CliConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=1) + "\n"
    elif cfg.fmt == "csv":
        flat: dict = {}
        _flatten(payload, "", flat)
        buf = io.StringIO()
        writer = csv_module.DictWriter(buf, fieldnames=list(flat))
        writer.writeheader()
        writer.writerow(flat)
        text = buf.getvalue()
    else:
        text = _lines_text(human_lines)
    _write_text(text, cfg.out_path)


def _lines_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _write_text(text: str, path: str | None) -> None:
    """Write text to path as rendered (no newline translation), or to stdout."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload(params: dict, **body) -> dict:
    return {"tool": "qstarlike", "version": __version__, "params": params, **body}


# --- flag validation ---------------------------------------------------------


def _check_q(q: float) -> float:
    if not 0.0 < q <= 1.0:
        raise CliError(f"--q must lie in (0, 1], got {q}")
    if q < qcalc.Q_CONDITIONING_FLOOR:
        print(
            f"warning: q={q} is below {qcalc.Q_CONDITIONING_FLOOR}; symmetric q-numbers "
            "grow like q**-(n-1) and may overflow at moderate n",
            file=sys.stderr,
        )
    return q


def _class_params(args) -> ClassParams:
    q = _check_q(args.q)
    k, alpha = args.k, args.alpha
    if k < 0:
        raise CliError(f"--k must be nonnegative, got {k}")
    if not 0.0 <= alpha < 1.0:
        raise CliError(f"--alpha must lie in [0, 1), got {alpha}")
    return ClassParams(q=q, k=k, alpha=alpha)


def _user_conic(args) -> ConicCoefficients | None:
    flags = (args.P1, args.P2, args.P3)
    given = [v for v in flags if v is not None]
    if args.conic and given:
        raise CliError("--conic and --P1/--P2/--P3 are mutually exclusive")
    if args.conic:
        try:
            with open(args.conic, "r", encoding="utf-8") as fh:
                block = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"--conic file {args.conic!r} is unreadable: {exc}") from exc
        try:
            p1, p2, p3 = (float(v) for v in block["P"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f'--conic file must carry {{"P": [P1, P2, P3]}}: {exc}') from exc
        return ConicCoefficients(p1, p2, p3)
    if not given:
        return None
    if len(given) != 3:
        raise CliError("--P1, --P2 and --P3 must be given together")
    return ConicCoefficients(*flags)


def _resolve_conic(args, p: ClassParams) -> ConicCoefficients:
    user = _user_conic(args)
    if user is not None:
        return user
    return conic_coefficients(p.k, p.alpha)


def _oracle_grid(args) -> ver.OracleGrid:
    return ver.OracleGrid(nB=args.nB, nRho=args.nRho, refinement=args.refine)


# --- subcommand handlers -----------------------------------------------------


def _cmd_qnum(args, cfg: CliConfig) -> int:
    q = _check_q(args.q)
    n = args.n
    if args.symmetric:
        if n < 1 or not float(n).is_integer():
            raise CliError(f"--n must be a positive integer for symmetric q-numbers, got {n}")
        value = qcalc.symmetric_q_number(int(n), q)
    else:
        value = qcalc.q_number(n, q)
    payload = _payload({"n": n, "q": q, "symmetric": bool(args.symmetric)}, value=value)
    _emit(payload, [_fmt(value)], cfg)
    return EXIT_OK


def _cmd_deriv(args, cfg: CliConfig) -> int:
    q = _check_q(args.q)
    f = ser.load_function(args.in_path)
    op = qcalc.symmetric_q_derivative if args.symmetric else qcalc.q_derivative
    result = op(f, q)
    doc = ser.to_json_dict(result, kind="derivative")
    payload = _payload({"q": q, "symmetric": bool(args.symmetric), "in": args.in_path}, **doc)
    # the natural output of this verb is the series file itself
    _emit(payload, [json.dumps(payload, indent=1)], cfg)
    return EXIT_OK


def _cmd_member(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    f = ser.load_function(args.in_path)
    sufficient = cls.sufficient_membership(f, p)
    try:
        t_form = cls.ts_membership(f, p)
    except cls.TFormError:
        t_form = None
    sampled = cls.sampled_membership(f, p)
    payload = _payload(
        {"q": p.q, "k": p.k, "alpha": p.alpha, "in": args.in_path},
        sufficient=sufficient.to_json_dict(),
        t_form=None if t_form is None else t_form.to_json_dict(),
        sampled=sampled.to_json_dict(),
    )
    lines = [
        f"sufficient: {sufficient.certified} (margin {_fmt(sufficient.margin)})",
        "t-form: not applicable" if t_form is None else
        f"t-form: {t_form.certified} (margin {_fmt(t_form.margin)})",
        f"sampled: {sampled.certified} (margin {_fmt(sampled.margin)})",
    ]
    if sampled.witness is not None:
        lines.append(f"witness: {_fmt(sampled.witness)}")
    _emit(payload, lines, cfg)
    witnessed = sampled.certified == cls.CERTIFIED_NOT_MEMBER_WITNESS or (
        t_form is not None and t_form.certified == cls.CERTIFIED_NOT_MEMBER_WITNESS
    )
    return EXIT_FINDINGS if witnessed else EXIT_OK


def _cmd_extremal(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    n = args.n
    if n < 1:
        raise CliError(f"--n must be at least 1, got {n}")
    f = cls.extremal_function(n, p, order=args.order)
    doc = ser.to_json_dict(f)
    payload = _payload(
        {"n": n, "q": p.q, "k": p.k, "alpha": p.alpha, "order": f.order}, **doc
    )
    _emit(payload, [json.dumps(payload, indent=1)], cfg)
    return EXIT_OK


def _cmd_distortion(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    r = args.r
    if not 0.0 <= r < 1.0:
        raise CliError(f"--r must lie in [0, 1), got {r}")
    lo, hi = cls.distortion_bounds(r, p)
    dlo, dhi = cls.derivative_distortion_bounds(r, p)
    payload = _payload(
        {"r": r, "q": p.q, "k": p.k, "alpha": p.alpha},
        lower=lo, upper=hi, derivative_lower=dlo, derivative_upper=dhi,
        coefficient=cls.distortion_coefficient(p),
    )
    lines = [
        f"|f|  in [{_fmt(lo)}, {_fmt(hi)}]",
        f"|f'| in [{_fmt(dlo)}, {_fmt(dhi)}]",
    ]
    _emit(payload, lines, cfg)
    return EXIT_OK


def _cmd_decompose(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    f = ser.load_function(args.in_path)
    weights = cls.extreme_point_decompose(f, p)
    payload = _payload(
        {"q": p.q, "k": p.k, "alpha": p.alpha, "in": args.in_path},
        lambdas=list(weights.lambdas),
    )
    lines = [f"lambda_{n}: {_fmt(v)}" for n, v in enumerate(weights.lambdas, start=1) if v > 0]
    _emit(payload, lines or ["all weights zero"], cfg)
    return EXIT_OK


def _cmd_hankel_bound(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    P = _resolve_conic(args, p)
    hq = hk.hankel_quantities(P, p.q)
    bound = hk.h2_bound(P, p.q)
    payload = _payload(
        {"q": p.q, "k": p.k, "alpha": p.alpha,
         "P1": P.P1, "P2": P.P2, "P3": P.P3, "provenance": P.provenance},
        bound=bound,
        quantities={k: getattr(hq, k) for k in
                    ("q2", "q3", "q4", "S", "M", "N", "U", "V", "cP", "cQ", "cR")},
    )
    _emit(payload, [f"|a2 a4 - a3^2| <= {_fmt(bound)}"], cfg)
    return EXIT_OK


def _cmd_fs_bound(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    P = _resolve_conic(args, p)
    mu = complex(args.mu, args.mu_imag or 0.0)
    bound = hk.fekete_szego_bound_complex(mu, P, p.q)
    real_bound = None if mu.imag else hk.fekete_szego_bound_real(mu.real, P, p.q)
    payload = _payload(
        {"q": p.q, "k": p.k, "alpha": p.alpha, "mu": [mu.real, mu.imag],
         "P1": P.P1, "P2": P.P2, "P3": P.P3, "provenance": P.provenance},
        bound=bound, bound_real_branch=real_bound,
        breakpoint=hk.fekete_szego_breakpoint(p.q),
    )
    _emit(payload, [f"|a3 - mu a2^2| <= {_fmt(bound)}"], cfg)
    return EXIT_OK


def _cmd_oracle(args, cfg: CliConfig) -> int:
    p = _class_params(args)
    P = _resolve_conic(args, p)
    params = {"which": args.which, "q": p.q, "k": p.k, "alpha": p.alpha,
              "mu": args.mu, "P1": P.P1, "P2": P.P2, "P3": P.P3}
    if args.which == "h2":
        grid = _oracle_grid(args)
        result = ver.oracle_h2_max(P, p.q, grid)
        params["grid"] = grid.to_json_dict()
    else:
        if args.mu is None:
            raise CliError("--mu is required for the fs oracle")
        result = ver.oracle_fs_max(complex(args.mu, args.mu_imag or 0.0), P, p.q)
    payload = _payload(
        params,
        max=result.value,
        argmax=result.argmax_json(),
        levels=list(result.level_values),
    )
    _emit(payload, [f"oracle max: {_fmt(result.value)}",
                    f"argmax B1: {_fmt(result.argmax.B1)}"], cfg)
    return EXIT_OK


def _load_points(path: str) -> tuple[ClassParams, ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"--points file {path!r} is unreadable: {exc}") from exc
    if not isinstance(raw, list):
        raise CliError("--points file must hold a JSON list of {q, k, alpha} objects")
    try:
        return tuple(ClassParams(q=e["q"], k=e["k"], alpha=e["alpha"]) for e in raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"--points file is malformed: {exc}") from exc


def _ledger_summary(report: ver.VerificationReport) -> str:
    lines = []
    for r in report.records:
        bound = "-" if r.bound is None else _fmt(r.bound)
        oracle = "-" if r.oracle is None else _fmt(r.oracle)
        lines.append(
            f"[{r.status:>28}] q={_fmt(r.q)} k={_fmt(r.k)} alpha={_fmt(r.alpha)} "
            f"{r.claim}: bound={bound} oracle={oracle}"
        )
    n_violated = sum(r.status == ver.STATUS_VIOLATED for r in report.records)
    lines.append(f"{len(report.records)} records, {n_violated} violated")
    return _lines_text(lines)


def _cmd_ledger(args, cfg: CliConfig) -> int:
    points = _load_points(args.points) if args.points else ver.default_parameter_points()
    report = ver.run_ledger(
        points,
        grid=_oracle_grid(args),
        user_conic=_user_conic(args),
        tolerance=args.tolerance,
    )
    report_paths = {"json": args.json_out, "csv": args.csv_out}
    renderers = {"json": report.json_text, "csv": report.csv_text,
                 "human": lambda: _ledger_summary(report)}
    # each format is rendered once, whether it goes to a report file, --out or stdout
    texts = {fmt: render() for fmt, render in renderers.items()
             if fmt == cfg.fmt or report_paths.get(fmt)}
    for fmt, path in report_paths.items():
        if path:
            _write_text(texts[fmt], path)
    _write_text(texts[cfg.fmt], cfg.out_path)
    return EXIT_FINDINGS if report.has_violations else EXIT_OK


_HANDLERS = {
    "qnum": _cmd_qnum,
    "deriv": _cmd_deriv,
    "member": _cmd_member,
    "extremal": _cmd_extremal,
    "distortion": _cmd_distortion,
    "decompose": _cmd_decompose,
    "hankel-bound": _cmd_hankel_bound,
    "fs-bound": _cmd_fs_bound,
    "oracle": _cmd_oracle,
    "ledger": _cmd_ledger,
}


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2 (2 means findings)
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qstarlike",
        description="symmetric q-derivative starlike classes: operators, bounds, oracles",
    )
    parser.add_argument("--version", action="version", version=f"qstarlike {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, conic=False, infile=False):
        sp.add_argument("--format", choices=("human", "json", "csv"), default="human")
        sp.add_argument("--out", dest="out", default=None, help="write output to this path")
        if infile:
            sp.add_argument("--in", dest="in_path", required=True, help="function JSON file")
        if conic:
            sp.add_argument("--P1", type=float, default=None)
            sp.add_argument("--P2", type=float, default=None)
            sp.add_argument("--P3", type=float, default=None)
            sp.add_argument("--conic", default=None, help='JSON file {"P": [P1, P2, P3]}')

    def class_flags(sp):
        sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--k", type=float, required=True)
        sp.add_argument("--alpha", type=float, required=True)

    def grid_flags(sp):
        # the Fekete-Szego oracle is exact in B1 and x and takes no grid
        sp.add_argument("--nB", type=int, default=101, help="B1 samples of the H2 scan")
        sp.add_argument("--nRho", type=int, default=41, help="|x| samples of the H2 scan")
        sp.add_argument("--refine", type=int, default=2,
                        help="local 8x refinement passes of the H2 scan (at most 20)")

    sp = sub.add_parser("qnum", help="evaluate a q-number or symmetric q-number")
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--symmetric", action="store_true")
    common(sp)

    sp = sub.add_parser("deriv", help="q- or symmetric-q-derivative of a function file")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--symmetric", action="store_true")
    common(sp, infile=True)

    sp = sub.add_parser("member", help="coefficient and sampled membership checks")
    class_flags(sp)
    common(sp, infile=True)

    sp = sub.add_parser("extremal", help="extremal function f_n as function JSON")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--order", type=int, default=None,
                    help=f"series order, at least max(n, 2) (default max({ser.DEFAULT_ORDER}, n))")
    class_flags(sp)
    common(sp)

    sp = sub.add_parser("distortion", help="growth and derivative envelopes at |z| = r")
    sp.add_argument("--r", type=float, required=True)
    class_flags(sp)
    common(sp)

    sp = sub.add_parser("decompose", help="extreme-point weights of a member")
    class_flags(sp)
    common(sp, infile=True)

    sp = sub.add_parser("hankel-bound", help="closed-form bound on |a2 a4 - a3^2|")
    class_flags(sp)
    common(sp, conic=True)

    sp = sub.add_parser("fs-bound", help="closed-form bound on |a3 - mu a2^2|")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--mu-imag", type=float, default=None)
    class_flags(sp)
    common(sp, conic=True)

    sp = sub.add_parser("oracle", help="brute-force functional maximum")
    sp.add_argument("--which", choices=("h2", "fs"), required=True)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--mu-imag", type=float, default=None)
    class_flags(sp)
    grid_flags(sp)
    common(sp, conic=True)

    sp = sub.add_parser("ledger", help="run the bound-verification ledger")
    sp.add_argument("--points", default=None, help="JSON list of {q, k, alpha} points")
    sp.add_argument("--tolerance", type=float, default=1e-6)
    sp.add_argument("--json-out", default=None, help="write the JSON report here")
    sp.add_argument("--csv-out", default=None, help="write the CSV report here")
    grid_flags(sp)
    common(sp, conic=True)

    return parser


def dispatch(args) -> int:
    cfg = CliConfig(
        fmt=getattr(args, "format", "human"),
        out_path=getattr(args, "out", None),
    )
    return _HANDLERS[args.subcommand](args, cfg)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return dispatch(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
