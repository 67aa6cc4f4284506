"""Self-test of the benchmark's output checks: a wrong output must fail them.

    PYTHONPATH=src python3 perfbench/selftest.py

Takes real outputs of each workload, shows that the checks pass them, then
corrupts them one way at a time (an oracle value scaled by 1 - 1e-6, a
flipped verdict or status, a digit dropped from CLI output) and shows that
the checks catch every corruption.  Exits 1 if any does not hold.  It is a
plain script, kept out of the pytest run.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

import numpy as np

import checks
import workloads

results: list[tuple[str, bool]] = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    results.append((label, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[0] if problems else 'passes'}")


def ledger_cases() -> None:
    from qstarlike import verify
    from qstarlike.conic import ClassParams

    for point in ((1.0, 0.0, 0.0), (0.5, 1.0, 0.5)):
        report = verify.run_ledger([ClassParams(*point)], rng_seed=7).to_json_dict()

        def run_check(rep):
            return checks.check_ledger_point(rep, *point, np.random.default_rng(7))

        expect(f"ledger {point} as produced", run_check(report), False)

        def mutated(claim, field, change):
            rep = copy.deepcopy(report)
            for rec in rep["records"]:
                if rec["claim"] == claim:
                    rec[field] = change(rec[field])
                    if field in ("bound", "oracle"):
                        rec["slack"] = rec["bound"] - rec["oracle"]
            return rep

        for claim in ("second-hankel-bound", "fekete-szego-mu-0.5", "fekete-szego-mu-star",
                      "growth-envelope-upper"):
            expect(f"ledger {point} {claim} oracle * (1 - 1e-6)",
                   run_check(mutated(claim, "oracle", lambda v: v * (1.0 - 1e-6))), True)
        expect(f"ledger {point} status flipped",
               run_check(mutated("fekete-szego-mu-1", "status",
                                 lambda s: "violated" if s != "violated" else "verified")), True)
        expect(f"ledger {point} sufficiency oracle 1e-3",
               run_check(mutated("sufficient-condition-sampled", "oracle", lambda v: 1e-3)), True)
        expect(f"ledger {point} roundtrip error 1e-9",
               run_check(mutated("extreme-point-roundtrip", "oracle", lambda v: 1e-9)), True)
        rep = copy.deepcopy(report)
        rep["records"].pop()
        expect(f"ledger {point} record dropped", run_check(rep), True)


def membership_cases() -> None:
    items = workloads.membership_items(11)
    picked = {}
    for item in items:
        kind = item.label.split(" order")[0].split(" f_")[0]
        picked.setdefault(kind, item)
    for kind, item in picked.items():
        out = item.run()
        expect(f"membership {kind} as produced", item.check(out), item.fault is not None)
        if item.fault is not None:
            continue
        bad = copy.deepcopy(out)
        certified, margin, _ = bad["sufficient"]
        bad["sufficient"] = ("inconclusive" if certified == "member-sufficient"
                             else "member-sufficient", margin, None)
        expect(f"membership {kind} sufficient verdict flipped", item.check(bad), True)
        bad = copy.deepcopy(out)
        bad["sufficient"] = (certified, margin * (1.0 - 1e-6) - 1e-6, None)
        expect(f"membership {kind} sufficient margin off by 1e-6", item.check(bad), True)
        bad = copy.deepcopy(out)
        bad["derivative"] = out["derivative"][:-1] + (out["derivative"][-1] + 1e-6,)
        expect(f"membership {kind} derivative coefficient off by 1e-6", item.check(bad), True)
        if out["sampled"][0] == "inconclusive":
            bad = copy.deepcopy(out)
            bad["sampled"] = ("not-member-witness", -0.1, 0.5 + 0j)
            expect(f"membership {kind} sampled verdict flipped", item.check(bad), True)
        if "t_form" in out:
            bad = copy.deepcopy(out)
            t_certified, t_margin, _ = out["t_form"]
            bad["t_form"] = ("not-member-witness" if t_certified == "member-iff-negative"
                             else "member-iff-negative", t_margin, 1.0 + 0j)
            expect(f"membership {kind} t-form verdict flipped", item.check(bad), True)
            if out.get("compose") is not None:
                bad = copy.deepcopy(out)
                bad["compose"] = out["compose"][:1] + tuple(0.5 * c for c in out["compose"][1:])
                expect(f"membership {kind} compose halves f's tail", item.check(bad), True)


def drop_digit(x: float) -> float:
    """x printed to 12 significant digits, as the human format does, less its last digit."""
    text = f"{x:.12g}"
    for i in reversed(range(len(text))):
        if text[i].isdigit():
            try:
                value = float(text[:i] + text[i + 1:])
            except ValueError:
                continue
            if value != x:
                return value
    return 0.0  # its only digit dropped


# The JSON field each 1e-12 equality check reads.  The fs oracle is held to
# 1e-9, below the 12th digit, and hankel-bound is checked one-sided.
CLI_FIELDS = {"qnum symmetric": "value", "qnum": "value", "deriv": "coeffs",
              "decompose": "lambdas", "distortion": "upper", "fs-bound": "bound"}


def cli_cases() -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        for item in workloads.cli_items(5, work_dir, None):
            res = item.run()
            expect(f"cli {item.label} as produced", item.check(res), item.fault is not None)
            if item.fault is not None:
                continue

            def check_stdout(stdout):
                return item.check(workloads.CliResult(res.code, stdout, res.stderr))

            if res.code == 1:
                tb = workloads.CliResult(1, "", "Traceback (most recent call last):\n" + res.stderr)
                expect(f"cli {item.label} ends in a traceback", item.check(tb), True)
            elif item.label == "hankel-bound anchor":
                expect("cli hankel-bound anchor digit dropped",
                       check_stdout(res.stdout.replace("7", "")), True)
            elif item.label == "hankel-bound":
                payload = json.loads(res.stdout)
                payload["bound"] /= 100.0
                expect("cli hankel-bound below sampled values", check_stdout(json.dumps(payload)), True)
            elif item.label == "oracle fs":
                payload = json.loads(res.stdout)
                payload["max"] *= 1.0 - 1e-6
                expect("cli oracle fs max * (1 - 1e-6)", check_stdout(json.dumps(payload)), True)
            elif item.label == "member":
                payload = json.loads(res.stdout)
                payload["t_form"]["certified"] = "not-member-witness"
                expect("cli member t-form verdict flipped", check_stdout(json.dumps(payload)), True)
            elif item.label in CLI_FIELDS:
                payload = json.loads(res.stdout)
                field = CLI_FIELDS[item.label]
                if isinstance(payload[field], list):
                    flat = np.ravel(payload[field])
                    i = int(np.argmax(np.abs(flat)))
                    flat[i] = drop_digit(flat[i])
                    payload[field] = flat.reshape(np.shape(payload[field])).tolist()
                else:
                    payload[field] = drop_digit(payload[field])
                expect(f"cli {item.label} digit dropped", check_stdout(json.dumps(payload)), True)


def main() -> int:
    os.environ.setdefault("QSTARLIKE_THREADS", "1")
    membership_cases()
    cli_cases()
    ledger_cases()
    failed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} self-test cases hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
