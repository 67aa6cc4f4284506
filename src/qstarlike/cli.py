"""Single-binary command line for every library operation.

Verbs: qnum, deriv, member, extremal, distortion, decompose,
hankel-bound, fs-bound, oracle, ledger.  Batch-oriented: no interactive
mode, machine formats (json/csv) carry exactly the same numbers, all
human output uses 12 significant digits, and every machine payload
embeds the tool version plus the full parameter set.

Each verb has one way out.  Its handler only computes: it returns the
exit code, the machine payload and the human lines, and ledger adds its
report's csv_text.  main renders that once, in the --format asked for
(_render), and writes the text to --out or to stdout, so both get the
same bytes.  The payload's params echo is built by _payload from what
the verb computed with, in order: its own flags, the ClassParams point,
and the ConicCoefficients with their provenance when a disk map is used.

Exit codes: 0 success / all verified; 2 membership witness found or
ledger contains violations; 1 usage or IO error (single-line diagnostic
naming the offending flag).

Each input is checked once and enters one way: a flag's range is its
argparse type, the disk-map coefficients come only as --P1 --P2 --P3, and
the --in and --points files are read by _read_json alone, which refuses
one above MAX_INPUT_BYTES, with every number converted by series.json_real;
a --points list above MAX_POINTS is refused before any point is converted.
Only rules that join two flags are left to the handlers.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import dataclasses
import io
import json
import math
import sys

# classes and verify load numpy, so they are imported inside the handlers that
# use them; the closed-form verbs (qnum, deriv, hankel-bound, fs-bound) and
# --version start without it.
from . import __version__
from . import hankel as hk
from . import qcalc
from . import series as ser
from .conic import ClassParams, ConicCoefficients, conic_coefficients

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDINGS = 2

# Largest --in or --points file read; a larger one is refused before it is
# parsed.  A function file of the largest order (series.MAX_ORDER) written at
# full precision takes about 60 kB.
MAX_INPUT_BYTES = 1 << 20

# Most points a --points file may list; a longer list is refused before any
# point is converted.  A ledger of this many built-in points ran 1.4 s at a
# peak RSS of 105 MB with --format json (CPython 3.11, numpy 2.4, one BLAS
# thread, shared 2-core x86_64).
MAX_POINTS = 1000


class CliError(ValueError):
    pass


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


def _render(fmt: str, payload: dict, lines, csv_text=None) -> str:
    """The one rendering of a verb's result; csv_text, when given, makes its CSV table."""
    if fmt == "json":
        return json.dumps(payload, indent=1) + "\n"
    if fmt == "human":
        return "".join(line + "\n" for line in lines)
    if csv_text is not None:
        return csv_text()
    flat: dict = {}
    _flatten(payload, "", flat)
    buf = io.StringIO()
    writer = csv_module.DictWriter(buf, fieldnames=list(flat))
    writer.writeheader()
    writer.writerow(flat)
    return buf.getvalue()


def _payload(*params, **body) -> dict:
    """The machine payload; its params echo merges the dicts and dataclasses given, in order."""
    echo: dict = {}
    for part in params:
        echo.update(part if isinstance(part, dict) else dataclasses.asdict(part))
    return {"tool": "qstarlike", "version": __version__, "params": echo, **body}


# --- input checks: argparse names the flag in each refusal ("argument --k: ...")


def _number_flag(base, accept, must: str):
    """An argparse type: base(text) when accept holds for it, else 'must ...'."""
    def convert(text: str):
        try:
            value = base(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {base.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must {must}, got {value}")
        return value
    return convert


_finite = _number_flag(float, math.isfinite, "be finite")
_k_flag = _number_flag(float, lambda k: math.isfinite(k) and k >= 0.0, "be finite and nonnegative")
_unit_flag = _number_flag(float, lambda x: 0.0 <= x < 1.0, "lie in [0, 1)")
_order_flag = _number_flag(int, lambda n: 1 <= n <= ser.MAX_ORDER, f"lie in [1, {ser.MAX_ORDER}]")
_q_range = _number_flag(float, lambda q: 0.0 < q <= 1.0, "lie in (0, 1]")


def _q_flag(text: str) -> float:
    q = _q_range(text)
    if q < qcalc.Q_CONDITIONING_FLOOR:
        print(f"warning: q={q} is below {qcalc.Q_CONDITIONING_FLOOR}; symmetric q-numbers "
              "grow like q**-(n-1) and may overflow at moderate n", file=sys.stderr)
    return q


def _read_json(path: str, flag: str, parse):
    """parse(document) of the --flag file; any fault is one CliError naming the flag and path.

    At most MAX_INPUT_BYTES + 1 bytes are read, so a file that is too large, or
    a device or pipe that never ends, is refused before anything is parsed.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise CliError(f"--{flag} file {path!r} is unreadable: {exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise CliError(f"--{flag} file {path!r} is larger than {MAX_INPUT_BYTES} bytes")
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"--{flag} file {path!r} is unreadable: {exc}") from exc
    try:
        return parse(doc)
    except ValueError as exc:
        raise CliError(f"--{flag} file {path!r} is malformed: {exc}") from exc


def _points_from_json(doc) -> tuple[ClassParams, ...]:
    if not isinstance(doc, list):
        raise ValueError("need a JSON list of {q, k, alpha} objects")
    if len(doc) > MAX_POINTS:
        raise ValueError(f"{len(doc)} points exceed the maximum {MAX_POINTS}")
    points = []
    for i, entry in enumerate(doc):
        if not (isinstance(entry, dict) and {"q", "k", "alpha"} <= entry.keys()):
            raise ValueError(f"entry {i} is not a {{q, k, alpha}} object")
        points.append(ClassParams(*(ser.json_real(entry[name], f"entry {i} {name}")
                                    for name in ("q", "k", "alpha"))))
    return tuple(points)


def _user_conic(args) -> ConicCoefficients | None:
    flags = (args.P1, args.P2, args.P3)
    if flags == (None, None, None):
        return None
    if None in flags:
        raise CliError("--P1, --P2 and --P3 must be given together")
    return ConicCoefficients(*flags)


# --- subcommand handlers: each returns (exit code, payload, human lines[, csv_text])


def _cmd_qnum(args):
    q, n = args.q, args.n
    if args.symmetric:
        if n < 1 or not n.is_integer():
            raise CliError(f"--n must be a positive integer for symmetric q-numbers, got {n}")
        value = qcalc.symmetric_q_number(int(n), q)
    else:
        value = qcalc.q_number(n, q)
    payload = _payload({"n": n, "q": q, "symmetric": bool(args.symmetric)}, value=value)
    return EXIT_OK, payload, [_fmt(value)]


def _cmd_deriv(args):
    q = args.q
    f = _read_json(args.in_path, "in", ser.from_json_dict)
    op = qcalc.symmetric_q_derivative if args.symmetric else qcalc.q_derivative
    doc = ser.to_json_dict(op(f, q), kind="derivative")
    payload = _payload({"q": q, "symmetric": bool(args.symmetric), "in": args.in_path}, **doc)
    # the natural output of this verb is the series file itself
    return EXIT_OK, payload, [json.dumps(payload, indent=1)]


def _cmd_member(args):
    p = ClassParams(args.q, args.k, args.alpha)
    f = _read_json(args.in_path, "in", ser.from_json_dict)
    from . import classes as cls

    sufficient = cls.sufficient_membership(f, p)
    try:
        t_form = cls.ts_membership(f, p)
    except cls.TFormError:
        t_form = None
    sampled = cls.sampled_membership(f, p)
    payload = _payload(
        p, {"in": args.in_path},
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
    witnessed = sampled.certified == cls.CERTIFIED_NOT_MEMBER_WITNESS or (
        t_form is not None and t_form.certified == cls.CERTIFIED_NOT_MEMBER_WITNESS
    )
    return (EXIT_FINDINGS if witnessed else EXIT_OK), payload, lines


def _cmd_extremal(args):
    p = ClassParams(args.q, args.k, args.alpha)
    from . import classes as cls

    f = cls.extremal_function(args.n, p, order=args.order)
    payload = _payload({"n": args.n}, p, {"order": f.order}, **ser.to_json_dict(f))
    return EXIT_OK, payload, [json.dumps(payload, indent=1)]


def _cmd_distortion(args):
    p = ClassParams(args.q, args.k, args.alpha)
    r = args.r
    from . import classes as cls

    lo, hi = cls.distortion_bounds(r, p)
    dlo, dhi = cls.derivative_distortion_bounds(r, p)
    payload = _payload(
        {"r": r}, p,
        lower=lo, upper=hi, derivative_lower=dlo, derivative_upper=dhi,
        coefficient=cls.distortion_coefficient(p),
    )
    return EXIT_OK, payload, [f"|f|  in [{_fmt(lo)}, {_fmt(hi)}]",
                              f"|f'| in [{_fmt(dlo)}, {_fmt(dhi)}]"]


def _cmd_decompose(args):
    p = ClassParams(args.q, args.k, args.alpha)
    f = _read_json(args.in_path, "in", ser.from_json_dict)
    from . import classes as cls

    weights = cls.extreme_point_decompose(f, p)
    payload = _payload(p, {"in": args.in_path}, lambdas=list(weights.lambdas))
    lines = [f"lambda_{n}: {_fmt(v)}" for n, v in enumerate(weights.lambdas, start=1) if v > 0]
    return EXIT_OK, payload, lines or ["all weights zero"]


def _cmd_hankel_bound(args):
    p = ClassParams(args.q, args.k, args.alpha)
    P = _user_conic(args) or conic_coefficients(p.k, p.alpha)
    hq = hk.hankel_quantities(P, p.q)
    bound = hk.h2_bound(P, p.q)
    payload = _payload(p, P, bound=bound, quantities=dataclasses.asdict(hq))
    return EXIT_OK, payload, [f"|a2 a4 - a3^2| <= {_fmt(bound)}"]


def _cmd_fs_bound(args):
    mu = complex(args.mu, args.mu_imag or 0.0)
    p = ClassParams(args.q, args.k, args.alpha)
    P = _user_conic(args) or conic_coefficients(p.k, p.alpha)
    bound = hk.fekete_szego_bound_complex(mu, P, p.q)
    payload = _payload(
        p, {"mu": [mu.real, mu.imag]}, P,
        bound=bound,
        bound_real_branch=None if mu.imag else hk.fekete_szego_bound_real(mu.real, P, p.q),
        breakpoint=hk.fekete_szego_breakpoint(p.q),
    )
    return EXIT_OK, payload, [f"|a3 - mu a2^2| <= {_fmt(bound)}"]


def _cmd_oracle(args):
    p = ClassParams(args.q, args.k, args.alpha)
    P = _user_conic(args) or conic_coefficients(p.k, p.alpha)
    if args.which == "fs" and args.mu is None:
        raise CliError("--mu is required for the fs oracle")
    if args.which == "h2" and (args.mu, args.mu_imag) != (None, None):
        raise CliError("--mu and --mu-imag apply to the fs oracle only")
    from . import verify as ver

    if args.which == "h2":
        echo, result = {}, ver.oracle_h2_max(P, p.q)
    else:
        mu = complex(args.mu, args.mu_imag or 0.0)
        echo, result = {"mu": [mu.real, mu.imag]}, ver.oracle_fs_max(mu, P, p.q)
    payload = _payload({"which": args.which}, p, echo, P,
                       max=result.value, argmax=result.argmax_json())
    return EXIT_OK, payload, [f"oracle max: {_fmt(result.value)}",
                              f"argmax B1: {_fmt(result.argmax.B1)}"]


def _ledger_summary(report) -> list[str]:
    """One line per record of a VerificationReport, then the violation count."""
    from . import verify as ver

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
    return lines


def _cmd_ledger(args):
    # the inputs are read before numpy loads, so a refused one never loads it
    points = _read_json(args.points, "points", _points_from_json) if args.points else None
    user_conic = _user_conic(args)
    from . import verify as ver

    report = ver.run_ledger(ver.default_parameter_points() if points is None else points,
                            user_conic=user_conic)
    # csv_text is handed over uncalled: only --format csv needs the table
    return (EXIT_FINDINGS if report.has_violations else EXIT_OK, report.to_json_dict(),
            _ledger_summary(report), report.csv_text)


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

    def common(sp, run, conic=False, infile=False):
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=("human", "json", "csv"), default="human")
        sp.add_argument("--out", dest="out", default=None, help="write output to this path")
        if infile:
            sp.add_argument("--in", dest="in_path", required=True, help="function JSON file")
        if conic:
            sp.add_argument("--P1", type=_finite, default=None)
            sp.add_argument("--P2", type=_finite, default=None)
            sp.add_argument("--P3", type=_finite, default=None)

    def class_flags(sp):
        sp.add_argument("--q", type=_q_flag, required=True)
        sp.add_argument("--k", type=_k_flag, required=True)
        sp.add_argument("--alpha", type=_unit_flag, required=True)

    sp = sub.add_parser("qnum", help="evaluate a q-number or symmetric q-number")
    sp.add_argument("--n", type=_finite, required=True)
    sp.add_argument("--q", type=_q_flag, required=True)
    sp.add_argument("--symmetric", action="store_true")
    common(sp, _cmd_qnum)

    sp = sub.add_parser("deriv", help="q- or symmetric-q-derivative of a function file")
    sp.add_argument("--q", type=_q_flag, required=True)
    sp.add_argument("--symmetric", action="store_true")
    common(sp, _cmd_deriv, infile=True)

    sp = sub.add_parser("member", help="coefficient and sampled membership checks")
    class_flags(sp)
    common(sp, _cmd_member, infile=True)

    sp = sub.add_parser("extremal", help="extremal function f_n as function JSON")
    sp.add_argument("--n", type=_order_flag, required=True)
    sp.add_argument("--order", type=_order_flag, default=None,
                    help=f"series order, at least max(n, 2) (default max({ser.DEFAULT_ORDER}, n))")
    class_flags(sp)
    common(sp, _cmd_extremal)

    sp = sub.add_parser("distortion", help="growth and derivative envelopes at |z| = r")
    sp.add_argument("--r", type=_unit_flag, required=True)
    class_flags(sp)
    common(sp, _cmd_distortion)

    sp = sub.add_parser("decompose", help="extreme-point weights of a member")
    class_flags(sp)
    common(sp, _cmd_decompose, infile=True)

    sp = sub.add_parser("hankel-bound", help="closed-form bound on |a2 a4 - a3^2|")
    class_flags(sp)
    common(sp, _cmd_hankel_bound, conic=True)

    sp = sub.add_parser("fs-bound", help="closed-form bound on |a3 - mu a2^2|")
    sp.add_argument("--mu", type=_finite, required=True)
    sp.add_argument("--mu-imag", type=_finite, default=None)
    class_flags(sp)
    common(sp, _cmd_fs_bound, conic=True)

    sp = sub.add_parser("oracle", help="brute-force functional maximum")
    sp.add_argument("--which", choices=("h2", "fs"), required=True)
    sp.add_argument("--mu", type=_finite, default=None)
    sp.add_argument("--mu-imag", type=_finite, default=None)
    class_flags(sp)
    common(sp, _cmd_oracle, conic=True)

    sp = sub.add_parser("ledger", help="run the bound-verification ledger")
    sp.add_argument("--points", default=None, help="JSON list of {q, k, alpha} points")
    common(sp, _cmd_ledger, conic=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, *result = args.run(args)
        text = _render(args.format, *result)
        if args.out:  # as rendered, with no newline translation
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError, KeyError, OverflowError) as exc:  # CliError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
