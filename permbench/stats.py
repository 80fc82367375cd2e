"""Statistics of the benchmark: the end-to-end metrics computed from the
per-query records the worker prints, and the per-layer metrics computed
from the spans and counters of a traced run. Pure functions, tested by
test_stats.py."""

import math
import statistics

# Completed samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# Reference time of the worker's calibration kernel, in ns. Every time of
# the end-to-end metrics is scaled by CALIB_REF_NS / (the kernel's time
# measured around it): it reads as the time on a machine that runs the
# kernel in exactly 2 ms. A shared host runs the same code up to 1.6 times
# slower for seconds to minutes at a time; the kernel slows down with it
# (by up to 1.4 times), and the engine's code does not change it.
CALIB_REF_NS = 2_000_000


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples above it:
    (value, percentile, samples beyond). That is the sample with exactly
    `beyond` larger ones, at percentile 100 * (n - beyond) / n. With
    `beyond` samples or fewer no percentile qualifies, and the maximum is
    returned as p100 with the samples there are."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def shape_geomean(latencies_by_shape):
    """Geometric mean over query shapes of each shape's median latency.
    Shapes whose draws all failed have no latency and are left out; their
    failures count in the error rate instead."""
    medians = [statistics.median(v) for v in latencies_by_shape.values() if v]
    if not medians:
        return None
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def self_times(spans):
    """Self time per span name, summed. `spans` is a list of
    (name, parent index or None, start, end) as one query recorded them;
    a span's self time is its duration minus the part of that interval its
    child spans cover."""
    children = {}
    for index, (_, parent, _, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(index)
    out = {}
    for index, (name, _, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for child in sorted(children.get(index, []), key=lambda c: spans[c][2]):
            c_start, c_end = max(spans[child][2], reach, start), min(spans[child][3], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] = out.get(name, 0) + (end - start) - covered
    return out


def scaled(seconds, calib_ns):
    """A time measured while the calibration kernel took `calib_ns`, at the
    kernel's reference speed."""
    return seconds * CALIB_REF_NS / calib_ns


def end_to_end(records, repeats, setup, head):
    """The end-to-end metrics of one untraced run, plus the sample counts
    and the tail percentile used. `records` holds one dict per query-list
    position (`i`, `shape`, `draw`, `ns`, `calib_ns`, `error`,
    `vm_hwm_kb`); aborted positions carry `error == "abort"` and the time
    until the worker died. `repeats` holds further executions of completed
    positions. `setup` holds the set-up repetitions' times (`setup_s`) and
    calibrations (`calib_ns`). Every time is first scaled by its
    calibration (`scaled`).

    A distinct query (shape and draw) has one latency: the median over all
    its completed executions. The percentiles and the shape medians are
    taken over distinct queries. Throughput is completed positions per
    second, each completed position taking its query's latency and each
    failed one the time it ran. The peak resident set is the highest one a
    worker reported after a completed query among the first `head`
    positions: memory that grows with every execution is read at a fixed
    amount of work, and the allocation that killed a worker is that
    query's failure, counted in the success rate."""
    def scaled_ms(r):
        return scaled(r["ns"] / 1e6, r["calib_ns"])

    completed = [r for r in records if r["error"] is None]
    samples, raw = {}, {}
    for r in completed + repeats:
        samples.setdefault((r["shape"], r["draw"]), []).append(scaled_ms(r))
        raw.setdefault((r["shape"], r["draw"]), []).append(r["ns"] / 1e6)
    latency = {key: statistics.median(v) for key, v in samples.items()}
    by_shape = {r["shape"]: [] for r in records}
    for (shape, _), ms in latency.items():
        by_shape[shape].append(ms)
    values = list(latency.values())
    tail_ms, tail_p, beyond = tail(values)
    position_ms = sum(latency[r["shape"], r["draw"]] for r in completed)
    position_ms += sum(scaled_ms(r) for r in records if r["error"] is not None)
    raw_ms = sum(statistics.median(raw[r["shape"], r["draw"]]) for r in completed)
    raw_ms += sum(r["ns"] / 1e6 for r in records if r["error"] is not None)
    metrics = {
        "throughput_qps": (len(completed) / (position_ms / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(values), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "latency_geomean_ms": (shape_geomean(by_shape), "ms"),
        "success_rate": (len(completed) / len(records), "ratio"),
        "peak_rss_mb": (max(r["vm_hwm_kb"] for r in completed if r["i"] < head) / 1024.0, "MB"),
        "setup_s": (statistics.median(scaled(s, c) for s, c in zip(setup["setup_s"],
                                                                    setup["calib_ns"])), "s"),
    }
    info = {
        "executions": len(records) + len(repeats),
        "completed": len(completed),
        "attempted": len(records),
        "distinct": len(values),
        "query_s": sum(r["ns"] for r in records + repeats) / 1e9,
        "tail_percentile": tail_p,
        "tail_beyond": beyond,
        "shapes": {s: len(v) for s, v in sorted(by_shape.items())},
        "error_rate": 1.0 - len(completed) / len(records),
        "calib_ms": statistics.median(r["calib_ns"] for r in records + repeats) / 1e6,
        "raw_qps": len(completed) / (raw_ms / 1e3),
        "raw_p50_ms": statistics.median(statistics.median(v) for v in raw.values()),
    }
    return metrics, info


def per_layer(records, prepare_spans, gen_ms):
    """The per-layer metrics of one traced run. Times are self times in ms
    per attempted query (the statements prepared once per cycle spread
    their preparations, one span list each in `prepare_spans`, over the
    run's queries); counts are per query unless named otherwise."""
    n = len(records)
    selfs = {}
    for spans in prepare_spans:
        for name, t in self_times(spans).items():
            selfs[name] = selfs.get(name, 0) + t
    unattributed = 0
    traced_ns = 0
    for r in records:
        spans = r.get("spans")
        if not spans:
            continue
        for name, t in self_times(spans).items():
            if name == "query":
                unattributed += t
            else:
                selfs[name] = selfs.get(name, 0) + t
        traced_ns += spans[0][3] - spans[0][2]
    layers = [r["layers"] for r in records if "layers" in r]

    def total(key):
        return sum(l[key] for l in layers)

    def per_query(key):
        return total(key) / n

    def ratio(a, b):
        return a / b if b else 0.0

    def ms(name):
        return selfs.get(name, 0) / 1e6 / n

    session_ns = total("session_ns")
    metrics = {
        "gen.self_ms": (statistics.median(gen_ms), "ms"),
        "sql.parse.self_ms": (ms("sql.parse"), "ms"),
        "sql.bind.self_ms": (ms("sql.bind"), "ms"),
        "sql.calls": (per_query("sql_calls"), "count"),
        "core.rewrite.self_ms": (ms("core.rewrite"), "ms"),
        "core.rewrite.op_growth": (ratio(total("ops_rewritten"), total("ops_bound")), "ratio"),
        "core.rewrite.prov_attrs": (per_query("prov_attrs"), "count"),
        "exec.optimize.self_ms": (ms("exec.optimize"), "ms"),
        "exec.optimize.rules_fired": (per_query("rules_fired"), "count"),
        "exec.optimize.sublinks_decorrelated": (per_query("decorrelated"), "count"),
        "exec.optimize.sublinks_remaining": (per_query("sublinks_remaining"), "count"),
        "exec.optimize.passes": (per_query("passes"), "count"),
        "exec.compile.self_ms": (ms("exec.compile"), "ms"),
        "exec.execute.self_ms": (ms("exec.execute"), "ms"),
        "exec.execute.operators_evaluated": (per_query("ops"), "count"),
        "exec.execute.quantifier_comparisons": (per_query("qcmp"), "count"),
        "exec.execute.rows_out": (per_query("rows_out"), "count"),
        "exec.execute.peak_bytes_max": (max((l["peak_bytes"] for l in layers), default=0), "bytes"),
        "exec.execute.vectorized_batches": (per_query("batches"), "count"),
        "exec.execute.fallback_share": (ratio(total("fallback_rows"), total("rows_in")), "ratio"),
        "exec.memo.hits": (per_query("memo_hits"), "count"),
        "exec.memo.inserts": (per_query("memo_inserts"), "count"),
        "exec.memo.hit_rate": (
            ratio(total("memo_hits"), total("memo_hits") + total("memo_inserts")),
            "ratio",
        ),
        "exec.memo.insert_bytes": (per_query("memo_insert_bytes"), "bytes"),
        "exec.cancelled": (sum(r["error"] == "cancelled" for r in records), "count"),
        "exec.exhausted": (sum(r["error"] == "exhausted" for r in records), "count"),
        "process.aborts": (sum(r["error"] == "abort" for r in records), "count"),
        "trace.overhead_share": (ratio(traced_ns, session_ns) - 1.0 if session_ns else 0.0, "ratio"),
        "trace.unattributed_share": (ratio(unattributed, traced_ns), "ratio"),
    }
    return metrics
