#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 permbench/run.py --workload <tpch-prov|tpch-plain|synth-gen>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the worker (permbench/src) in
release mode into $CARGO_TARGET_DIR (default .bench_build), starts it under
an address-space cap, and reads one JSON line per query from it. A query
that kills the worker is recorded as failed (workload, seed, position,
shape, draw) and a new worker continues at the next position of the query
list. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, every time in them
scaled to the calibration kernel's reference speed (see stats.py); with
--trace 1 the worker drives each layer itself and the metrics are the
per-layer ones.
The lines before the result give every metric with its unit and sample
count, the deterministic counter block and the failed queries."""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tpch-prov", "tpch-plain", "synth-gen")
# Positions at the head of every query list that every run completes. Their
# deterministic counters form the counter block, and the peak resident set
# is read over them, so that it measures a fixed amount of work: under
# synth-gen's retained memos it grows with every execution. One cycle of
# the workload's fixed query set.
HEAD = {"tpch-prov": 40, "tpch-plain": 40, "synth-gen": 30}
# Cycles of the query set every run makes, whatever --seconds says, so that
# each distinct query runs at least this often. A tpch-prov cycle takes
# about 25 s, most of it in eight multi-second Gen draws of Q4 and Q20 that
# run once per cycle; the median of two executions of each steadies the
# throughput, which they dominate. A synth-gen cycle takes about 8 s. A
# traced run, which runs every query twice and has no bounds, makes one.
MIN_CYCLES = {"tpch-prov": 2, "tpch-plain": 1, "synth-gen": 2}
# An ad-hoc query is executed again, in rounds after the query list, until
# it has run this often or for about this long; its latency is the median.
# One execution of a 40 ms query varies by 20% from one second to the next
# on the machine measured here, even after calibration; the median of
# executions spread over several seconds does not.
MAX_EXECUTIONS = 21
MIN_QUERY_S = 0.5
# Set-ups per run; setup_s is their median. About a second of set-up per
# run: a TPC-H set-up takes about 60 ms, a synthetic one about 0.8 s.
SETUP_REPS = {"tpch-prov": 15, "tpch-plain": 15, "synth-gen": 5}
# Address-space cap of the worker. Far above any completing query
# (synth-gen peaks near 400 MB), it turns an unbounded allocation into an
# abort of that one query instead of a machine out of memory.
ADDRESS_SPACE_CAP = 2 << 30
# Wall-clock limit of a run after the build.
WALL_LIMIT_S = 170.0


def fail(message):
    print(f"permbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    if not (ROOT / "Cargo.toml").is_file():
        fail(f"no perm sources at {ROOT}: run from the root of a checkout")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("building the worker failed")
    return target / "release" / "permbench-worker"


def limit_worker():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def spawn(cmd, deadline):
    """Runs one worker to its end. Returns the parsed lines (without their
    `begin` lines), the `begin` line of a query it did not finish with the
    time it began, whether it ended normally, and its standard error."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, preexec_fn=limit_worker)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    lines, in_flight, done = [], None, False
    try:
        for line in proc.stdout:
            record = json.loads(line)
            if record["type"] == "begin":
                in_flight = (record, time.monotonic_ns())
                continue
            if record["type"] == "end":
                in_flight = None
            done = done or record["type"] == "done"
            lines.append(record)
        stderr = proc.stderr.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if time.monotonic() >= deadline:
        fail(f"run exceeded {WALL_LIMIT_S:.0f} s")
    return lines, in_flight, done and proc.returncode == 0, stderr


def calibrate(lines):
    """Gives each `end` line and each set-up repetition the calibration of
    the bursts around it: `calib_ns`, the median kernel time over the last
    burst before it and the first burst after it (the last one before it
    alone if none follows). Drops the `calib` lines; returns the last
    burst, the calibration of a query that killed its worker."""
    before, pending, bursts, kept = None, [], [], []
    for line in lines:
        if line["type"] == "calib":
            for record in pending:
                record["calib_ns"] = statistics.median(record["calib_ns"] + line["ns"])
            before, pending = line["ns"], []
            bursts.append(line["ns"])
            continue
        if line["type"] == "setup":
            line["calib_ns"] = [statistics.median(bursts[k] + bursts[k + 1])
                                for k in range(len(line["setup_s"]))]
        elif line["type"] == "end":
            line["calib_ns"] = before
            pending.append(line)
        kept.append(line)
    for record in pending:
        record["calib_ns"] = statistics.median(record["calib_ns"])
    lines[:] = kept
    return before


def worker_command(binary, args, *extra):
    return [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--min-positions",
            str(HEAD[args.workload] * (1 if args.trace else MIN_CYCLES[args.workload])), *extra]


def run_list(binary, args, deadline):
    """Runs the query list until the query time reaches the budget; returns
    the per-position records, the set-up record and the set-up spans. A
    query that kills its worker becomes a failed record, and a new worker
    continues at the next position."""
    records, setup, prepare_spans = [], None, []
    budget_ns = int(args.seconds * 1e9)
    start = 0
    while True:
        spent = sum(r["ns"] for r in records)
        lines, in_flight, ok, stderr = spawn(worker_command(
            binary, args, "--start", str(start),
            "--budget-ms", str(max(0, budget_ns - spent) // 1_000_000),
            "--setup-reps", str(SETUP_REPS[args.workload] if setup is None else 1)), deadline)
        last_burst = calibrate(lines)
        for line in lines:
            kind = line.pop("type")
            if kind == "setup" and setup is None:
                setup = line
            elif kind == "prepare_spans":
                prepare_spans.append(line["spans"])
            elif kind == "end":
                records.append(line)
        if ok:
            return records, setup, prepare_spans
        if in_flight is None or setup is None:
            fail(f"worker ended outside a query:\n{stderr[-2000:]}")
        begin, began_ns = in_flight
        cause = stderr.strip().splitlines()[0] if stderr.strip() else "no message"
        records.append({"i": begin["i"], "shape": begin["shape"], "draw": begin["draw"],
                        "ns": time.monotonic_ns() - began_ns, "error": "abort",
                        "message": f"worker died: {cause}", "ops": 0, "rows": 0,
                        "fingerprint": "", "sublinks_remaining": 0, "threads": 1,
                        "vm_hwm_kb": 0, "calib_ns": statistics.median(last_burst)})
        start = begin["i"] + 1


def repeat_plan(records):
    """Positions of ad-hoc queries to execute again, and how often: a
    distinct query (shape and draw) runs until it has `MAX_EXECUTIONS`
    executions or about `MIN_QUERY_S` of them. On the TPC-H workloads the
    cheap queries of tpch-prov qualify; tpch-plain runs every query hundreds
    of times anyway."""
    runs = {}
    for r in records:
        if r["error"] is None:
            runs.setdefault((r["shape"], r["draw"]), []).append(r)
    plan = []
    for same in runs.values():
        wanted = min(MAX_EXECUTIONS, math.ceil(MIN_QUERY_S * 1e9 / max(1, same[0]["ns"])))
        if wanted > len(same):
            plan.append((same[0]["i"], wanted - len(same)))
    return sorted(plan)


def run_repeats(binary, args, deadline, plan):
    """Executes `plan` in one worker; returns its records and, if the worker
    died, why."""
    lines, in_flight, ok, stderr = spawn(worker_command(
        binary, args, "--repeat", ",".join(f"{i}:{n}" for i, n in plan)), deadline)
    calibrate(lines)
    repeats = [line for line in lines if line["type"] == "end"]
    if ok:
        return repeats, None
    where = f"query {in_flight[0]['i']}" if in_flight else "set-up"
    return repeats, f"worker died while repeating {where}: {stderr.strip()[-300:]}"


def counter_block(records, block):
    """The deterministic counters of the first `block` positions, sorted by
    shape and draw: the TPC-H workloads run one fixed query set in a
    seed-drawn order, so their block is the same under every seed."""
    head = sorted((r for r in records if r["i"] < block), key=lambda r: (r["shape"], r["draw"]))
    rows = [[r["shape"], r["draw"], r["ops"], r["rows"], r["fingerprint"],
             r["sublinks_remaining"], r["error"]] for r in head]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    return rows, digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + WALL_LIMIT_S
    records, setup, prepare_spans = run_list(binary, args, deadline)
    repeats, died = [], None
    plan = [] if args.trace or args.workload == "synth-gen" else repeat_plan(records)
    if plan:
        repeats, died = run_repeats(binary, args, deadline, plan)

    problems = [f"query {r['i']} ({r['shape']}): {r['mismatch']}"
                for r in records + repeats if r.get("mismatch")]
    first = {(r["shape"], r["draw"]): r for r in reversed(records) if r["error"] is None}
    problems += [f"query {r['i']} ({r['shape']}): a repeat gave {r['error']}, "
                 f"{r['ops']} operators and {r['rows']} rows"
                 for r in repeats
                 if r["error"] is not None
                 or (r["ops"], r["rows"]) != (first[r["shape"], r["draw"]]["ops"],
                                              first[r["shape"], r["draw"]]["rows"])]
    problems += [died] if died else []
    problems += [f"query {r['i']} ({r['shape']}): {r['threads']} threads alive after it"
                 for r in records if r["threads"] > 1]
    failed = [r for r in records if r["error"] is not None]
    rows, digest = counter_block(records, HEAD[args.workload])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} queries attempted, {len(failed)} failed")
    print(f"counter block ({len(rows)} queries) digest {digest}")
    for row in rows:
        print("  {} draw={} ops={} rows={} fingerprint={} sublinks_remaining={} error={}"
              .format(*row))
    for r in failed:
        print(f"failed: workload={args.workload} seed={args.seed} i={r['i']} "
              f"shape={r['shape']} draw={r.get('draw', '')} error={r['error']} "
              f"{r.get('message', '')[:160]}")
    if args.trace:
        metrics = stats.per_layer(records, prepare_spans, setup["gen_ms"])
    else:
        metrics, info = stats.end_to_end(records, repeats, setup, HEAD[args.workload])
        print(f"samples: {info['completed']} of {info['attempted']} positions completed "
              f"({info['executions']} executions, {info['query_s']:.2f} s of query time); "
              f"{info['distinct']} distinct queries, per shape {info['shapes']}")
        print(f"error_rate {info['error_rate']:.4f} (failed / attempted positions)")
        print(f"latency_tail_ms is p{info['tail_percentile']:.2f} of the distinct queries "
              f"({info['tail_beyond']} beyond it)")
        print(f"calibration kernel: median {info['calib_ms']:.4f} ms over the run "
              f"(reference {stats.CALIB_REF_NS / 1e6:g} ms); unscaled throughput "
              f"{info['raw_qps']:.6g} 1/s, unscaled p50 {info['raw_p50_ms']:.6g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
