#!/usr/bin/env python3
"""Solver benchmark: two workloads through the library's public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload readme-6 --seed 1 --seconds 45 --trace 0

A run sets up the workload in a child process nine times and reports the
median set-up time, then asks the last child for timed passes over the
workload's calls: at least two whole passes, then more while they end
within ``--seconds``, then the first calls of one more pass that still fit.
A call's time is its mean over those passes. Calls run one at a time in
one closed loop; each pass is capped, and calls the cap cuts off count as
``timeout`` failures. Every call's output is checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
whole untraced and traced passes (at least one of each), reports per-layer
metrics from the traced ones and writes their spans to perfbench/out/. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection

import speed
from metrics import END_TO_END, INFORMATIONAL, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
SETUP_CAP_S = 60.0
PASS_CAP_S = 120.0
RUN_LIMIT_S = 165.0  # every run ends well inside three minutes


class WorkerGone(Exception):
    """The child process ended or stopped answering."""


class Worker:
    """One child process running ``worker.py``; set-up is timed from the
    moment the process starts until it reports ready.

    The child is a plain subprocess talking over a socket pair, so no helper
    process (such as multiprocessing's resource tracker) outlives the run.
    Every child still alive is in ``Worker.live`` until it is killed.
    """

    live = []

    def __init__(self, workload, seed):
        start = time.perf_counter()
        parent_sock, child_sock = socket.socketpair()
        self.conn = Connection(parent_sock.detach())
        with child_sock:
            self.process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 str(child_sock.fileno()), ROOT, workload, str(seed)],
                pass_fds=(child_sock.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=sys.stderr.fileno(),
            )
        Worker.live.append(self)
        try:
            _, info = self.receive(start + SETUP_CAP_S)
        except WorkerGone:
            self.kill()
            raise
        self.setup_wall_s = time.perf_counter() - start
        self.setup_s = speed.normalise(self.setup_wall_s, info["setup_probe"])
        self.calls = info["calls"]
        self.min_passes = info["min_passes"]
        self.record = info["record"]

    def receive(self, deadline):
        try:
            if self.conn.poll(max(0.0, deadline - time.perf_counter())):
                return self.conn.recv()
        except (EOFError, OSError):
            raise WorkerGone("worker exited") from None
        raise WorkerGone("timeout")

    def stop(self):
        try:
            self.conn.send(("stop",))
        except OSError:
            pass
        try:
            self.process.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.conn.close()
        if self in Worker.live:
            Worker.live.remove(self)


def run_pass(worker, traced, deadline, count=None):
    """One pass over the workload's first ``count`` calls (all by default).

    Returns (call records, pass info or None if cut off). Each record gets
    ``elapsed``: the time from the previous call's answer to its own, checks
    and messaging included.
    """
    calls = worker.calls[:count]
    worker.conn.send(("pass", traced, len(calls)))
    records = []
    last = time.perf_counter()
    try:
        while True:
            kind, payload = worker.receive(deadline)
            if kind == "pass_done":
                return records, payload
            now = time.perf_counter()
            payload["elapsed"] = now - last
            last = now
            records.append(payload)
    except WorkerGone as gone:
        for label in calls[len(records) :]:
            records.append(
                {"label": label, "kind": label.split(":")[0], "seconds": 0.0,
                 "wall_seconds": 0.0, "reasons": [str(gone)], "quality": {}}
            )
        return records, None


def calls_that_fit(cycle, seconds):
    """How many of the workload's first calls, at their elapsed times in the
    last cycle (a list of passes' records), end within ``seconds``."""
    count, total = 0, 0.0
    for per_call in zip(*cycle):
        total += sum(r["elapsed"] for r in per_call)
        if total > seconds:
            break
        count += 1
    return count


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def summarize(passes, setup_samples, setup_wall_samples):
    """End-to-end and informational metrics from the untraced passes.

    A call's time is its mean over the run's complete passes, in seconds
    normalised by ``speed``; the ``*_clock_s`` figures are the same in wall
    seconds.
    """
    complete = [records for records, info in passes if info is not None]
    first = complete[0] if complete else []
    samples = {}
    for records in complete:
        for r in records:
            samples.setdefault((r["label"], "seconds"), []).append(r["seconds"])
            samples.setdefault((r["label"], "wall_seconds"), []).append(r["wall_seconds"])

    def seconds(kinds, key="seconds"):
        return sum(mean(samples[r["label"], key]) for r in first if r["kind"] in kinds)

    def quality(kind, key):
        return [r["quality"][key] for r in first if r["kind"] == kind and key in r["quality"]]

    solver = "relax" if any(r["kind"] == "relax" for r in first) else "admm"
    ratios = quality(solver, "tt_ratio_opt")
    out = {
        "setup_s": median(setup_samples),
        "setup_clock_s": median(setup_wall_samples),
        "wall_s": seconds({"oracle", "admm", "linear", "relax"}),
        "wall_clock_s": seconds({"oracle", "admm", "linear", "relax"}, "wall_seconds"),
        "admm_s": seconds({solver}),
        "peak_rss_mb": max((info["rss_mb"] for _, info in passes if info), default=0.0),
        "tt_ratio_opt.admm": mean(ratios),
        "tt_ratio_opt.admm.max": max(ratios, default=0.0),
        "passes": len(complete),
    }
    if solver == "relax":
        out["relax_s"] = out["admm_s"]
        out["relax_gap_ref"] = max(quality("relax", "relax_gap"), default=0.0)
    else:
        out["linear_s"] = seconds({"linear"})
        out["oracle_s"] = seconds({"oracle"})
        out["pct_reduction.admm"] = mean(quality("admm", "pct_reduction"))
        out["pct_reduction.linear"] = mean(quality("linear", "pct_reduction"))
        out["tt_ratio_opt.linear"] = mean(quality("linear", "tt_ratio_opt"))
    return out


def pass_wall(records):
    return sum(r["wall_seconds"] for r in records)


def failures(passes):
    """Every failed call, plus any call whose checked output differs from
    its output in an earlier pass (the library is deterministic)."""
    failed = []
    seen = {}
    for records, _ in passes:
        for r in records:
            reasons = list(r["reasons"])
            if not reasons and r["label"] in seen and seen[r["label"]] != r["quality"]:
                reasons.append("output differs from an earlier pass")
            seen.setdefault(r["label"], r["quality"])
            if reasons:
                failed.append((r["label"], reasons))
    return failed


def measure():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("readme-6", "relax-480"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    for needed in ("src/flowincentives/__init__.py", "tests/pg_reference.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}", file=sys.stderr)
            return 2

    setup_samples, setup_wall_samples = [], []
    for k in range(SETUP_SAMPLES):
        try:
            worker = Worker(args.workload, args.seed)
        except WorkerGone as gone:
            print(f"perfbench: workload set-up failed ({gone})", file=sys.stderr)
            return 1
        setup_samples.append(worker.setup_s)
        setup_wall_samples.append(worker.setup_wall_s)
        if k < SETUP_SAMPLES - 1:
            worker.stop()

    # a cycle is one untraced pass, or an untraced and a traced pass. Runs
    # time at least the workload's minimum number of whole cycles, so every
    # call has a repeat; then further cycles while they end by the end of
    # --seconds. Untraced runs fill what is left with the first calls of a
    # pass that fit, so a run measures close to --seconds whatever the
    # length of a pass.
    modes = (False, True) if args.trace else (False,)
    min_cycles = 1 if args.trace else worker.min_passes
    passes = {False: [], True: []}
    measure_end = time.perf_counter() + args.seconds
    try:
        alive = True
        cycles = 0
        count = len(worker.calls)
        while alive and count == len(worker.calls):
            if cycles >= min_cycles:
                last_cycle = [passes[traced][-1][0] for traced in modes]
                count = calls_that_fit(last_cycle, measure_end - time.perf_counter())
                if count == 0 or (args.trace and count < len(worker.calls)):
                    break
            for traced in modes:
                deadline = min(time.perf_counter() + PASS_CAP_S, started + RUN_LIMIT_S)
                records, info = run_pass(worker, traced, deadline, count)
                passes[traced].append((records, info))
                alive = info is not None
                if not alive:
                    break
            cycles += 1
        spans_path = None
        if args.trace and alive:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            header = json.dumps({"workload": args.workload, **worker.record})
            worker.conn.send(("write_trace", spans_path, header))
            try:
                worker.receive(started + RUN_LIMIT_S)
            except WorkerGone as gone:
                print(f"perfbench: spans not written ({gone})", file=sys.stderr)
                spans_path = None
    finally:
        if alive:
            worker.stop()
        else:
            worker.kill()

    all_passes = passes[False] + passes[True]
    failed = failures(all_passes)
    attempted = sum(len(records) for records, _ in all_passes)
    print("run_record " + json.dumps({"workload": args.workload, **worker.record}))

    summary = summarize(passes[False], setup_samples, setup_wall_samples)
    summary["failed_frac"] = len(failed) / attempted
    for name, unit, better in END_TO_END + INFORMATIONAL:
        if name in summary:
            print(f"{name:<34} {summary[name]:>16.9g} {unit:<6} {better} is better")
    table, values = END_TO_END, summary
    if args.trace:
        layers = [info["layers"] for _, info in passes[True] if info is not None]
        table = PER_LAYER
        values = {name: median([layer[name] for layer in layers]) for name, _, _ in PER_LAYER[:-1]}
        # each traced pass against the untraced pass just before it
        values["trace.overhead_frac"] = median(
            [
                pass_wall(traced) / pass_wall(plain) - 1.0
                for (plain, plain_info), (traced, traced_info) in zip(passes[False], passes[True])
                if plain_info and traced_info
            ]
        )
        for name, unit, better in PER_LAYER:
            print(f"{name:<34} {values[name]:>16.9g} {unit:<6} {better} is better")
        if spans_path:
            print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for label, reasons in failed:
        print(f"FAILED {label}: {'; '.join(reasons)}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


def main():
    # a SIGTERM unwinds like an exception, so the children are still killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure()
    finally:
        for worker in list(Worker.live):
            worker.kill()


if __name__ == "__main__":
    sys.exit(main())
