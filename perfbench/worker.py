"""One benchmark run of one workload, in a fresh process started by run.py.

Runs whole rounds of the workload's items, one item at a time, until
--seconds have passed, checks every output after its round, and, with
--trace 1, adds one traced round.  The last stdout line is a JSON
summary that run.py turns into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

WORKLOADS = ("ledger-default", "membership-batch", "cli-verbs")


def run_round(items, failures: list, unexpected: list) -> tuple[float, list[float]]:
    """Issue every item once; return the round's wall time and item latencies."""
    clock = time.perf_counter
    outputs, latencies = [], []
    start = clock()
    for item in items:
        t0 = clock()
        try:
            outputs.append((True, item.run()))
        except Exception as exc:  # a crash is a failed operation, reported below
            outputs.append((False, f"{type(exc).__name__}: {exc}"))
        latencies.append(clock() - t0)
    wall = clock() - start
    for item, (ok, out) in zip(items, outputs):
        problems = item.check(out) if ok else [out]
        if problems:
            failures.append(item.label)
            if item.fault is None:
                unexpected.append(f"{item.label}: {problems[0]}")
    return wall, latencies


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trace = bool(args.trace)
    in_process = args.workload != "cli-verbs" or trace

    import workloads
    from tracer import Tracer

    if args.workload == "ledger-default":
        items = workloads.ledger_items(args.seed)
        workloads.ledger_warmup()
    elif args.workload == "membership-batch":
        items = workloads.membership_items(args.seed)
        workloads.membership_warmup()
    else:
        work_dir = os.path.join(args.out, "cli-work")
        items = workloads.cli_items(args.seed, work_dir, None if in_process else dict(os.environ))
        items[0].run()  # warm-up, outside the timed phase

    failures: list[str] = []
    unexpected: list[str] = []
    walls, latencies = [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        wall, lat = run_round(items, failures, unexpected)
        walls.append(wall)
        latencies.append(lat)
    rounds = len(walls)

    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    summary = {
        "rounds": rounds,
        "items_per_round": len(items),
        "round_walls": walls,
        "round_latencies": latencies,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _ = run_round(items, failures, unexpected)
        finally:
            tracer.uninstall()
        rounds += 1
        layers = tracer.layer_metrics()
        spans = len(tracer.start)
        layers["trace.overhead_s"] = (traced_wall - walls[-1], "s")
        layers["trace.spans"] = (spans, "count")
        layers["trace.span_cost_s"] = (spans * Tracer.seconds_per_span(), "s")
        summary["layers"] = layers
        tracer.write(os.path.join(args.out, f"trace-{args.workload}.npz"))
    summary["attempted"] = rounds * len(items)
    summary["failed"] = len(failures)
    summary["failed_labels"] = sorted(set(failures))
    summary["unexpected"] = unexpected[:20]
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
