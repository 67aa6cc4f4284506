"""Benchmark of qstarlike: one command, three workloads.

    python3 perfbench/run.py --workload ledger-default --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics (wall_s, item_p50_ms, setup_s, peak_rss_mb); with
--trace 1 it carries the per-layer metrics of a traced round instead.
Details of each run, and the spans of a traced round, are written to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ledger-default", "membership-batch", "cli-verbs")
SETUP_PROBES = 15
IMPORT_PROBES = 3
# A hung worker is killed after twice the run length plus this margin, which
# covers the warm-up, the round that overruns and the traced round.
DEADLINE_MARGIN_S = 120.0

# Set-up probe per workload: a fresh interpreter that imports what the
# workload's first item needs and says so; for cli-verbs, a cold
# `python -m qstarlike --version` up to the line it prints.
PROBES = {
    "ledger-default": ["-c", "import qstarlike.verify; print('ready', flush=True)"],
    "membership-batch": ["-c", "import qstarlike.classes; print('ready', flush=True)"],
    "cli-verbs": ["-m", "qstarlike", "--version"],
}
# How an item's repeats over a run's rounds become its time.  membership-batch
# repeats each of its millisecond items over a hundred times, and the fastest
# repeat filters the stretches in which the shared machine runs the same work
# slower.  The other workloads repeat each item 2 to 6 times; the fastest of so
# few is one lucky sample and scatters more from run to run than their median.
ITEM_STATISTIC = {
    "ledger-default": statistics.median,
    "membership-batch": min,
    "cli-verbs": statistics.median,
}
IMPORT_CLI = ("import time; t = time.perf_counter(); import qstarlike.cli; "
              "print(time.perf_counter() - t)")


def child_env() -> dict:
    """The program's environment: one BLAS/OpenMP thread, fixed hashing, ./src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["QSTARLIKE_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def timed_start(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Seconds from spawning `python argv` to its first stdout line; waits for exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=60)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not first:
        raise RuntimeError(f"probe {argv} failed with exit {proc.returncode}: {err.strip()[-300:]}")
    return elapsed, first + rest


def setup_probes(workload: str, env: dict) -> list[float]:
    """Cold set-up times of several fresh processes, after one untimed warm-up."""
    timed_start(PROBES[workload], env, ROOT)  # writes bytecode caches, warms the file cache
    return [timed_start(PROBES[workload], env, ROOT)[0] for _ in range(SETUP_PROBES)]


def cli_import_seconds(env: dict) -> float:
    return statistics.median(float(timed_start(["-c", IMPORT_CLI], env, ROOT)[1].split()[0])
                             for _ in range(IMPORT_PROBES))


def run_worker(args, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=2 * args.seconds + DEADLINE_MARGIN_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qstarlike" / "__init__.py").is_file():
        print(f"error: no qstarlike sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()

    if args.trace:
        summary = run_worker(args, env)
        metrics = {name: metric(v, unit) for name, (v, unit) in sorted(summary["layers"].items())}
        metrics["cli.import_s"] = metric(cli_import_seconds(env), "s")
    else:
        probes = setup_probes(args.workload, env)
        summary = run_worker(args, env)
        summary["setup_probes"] = probes
        statistic = ITEM_STATISTIC[args.workload]
        item_s = [statistic(lat) for lat in zip(*summary["round_latencies"])]
        metrics = {
            "wall_s": metric(sum(item_s), "s"),
            "item_p50_ms": metric(1000.0 * statistics.median(item_s), "ms"),
            "setup_s": metric(statistics.median(probes), "s"),
            "peak_rss_mb": metric(summary["peak_rss_kb"] / 1024.0, "MB"),
        }

    for problem in summary["unexpected"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, result=result)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{args.workload}: {summary['rounds']} rounds of {summary['items_per_round']} items; "
          f"failed as known faults: {', '.join(summary['failed_labels']) or 'none'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
