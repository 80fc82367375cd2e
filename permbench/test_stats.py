"""Tests of the benchmark's statistics. Run from the repository root:

    python3 -m unittest discover -s permbench -p 'test_*.py'
"""

import math
import unittest

import run
import stats

REF = stats.CALIB_REF_NS


class TailRule(unittest.TestCase):
    def test_reports_the_sample_with_exactly_ten_larger_ones(self):
        values = list(range(1, 101))  # 1..100
        value, p, beyond = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(p, 90.0)

    def test_no_higher_percentile_keeps_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 40)]  # 39 samples
        value, p, _ = stats.tail(values)
        self.assertAlmostEqual(p, 100.0 * 29 / 39)
        # The next sample up would leave only nine beyond it.
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertGreater(sorted(values)[29], value)

    def test_is_independent_of_input_order(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        self.assertEqual(stats.tail([float(v) for v in range(10)]), (9.0, 100.0, 0))
        self.assertEqual(stats.tail([float(v) for v in range(11)])[2], 10)


class ShapeGeomean(unittest.TestCase):
    def test_geometric_mean_of_per_shape_medians(self):
        got = stats.shape_geomean({"Q2": [1.0, 4.0, 100.0], "Q4": [9.0]})
        self.assertAlmostEqual(got, math.sqrt(4.0 * 9.0))

    def test_shapes_with_failed_draws_use_their_completed_draws(self):
        # Failed draws carry no latency: Q21 completed two of four draws.
        got = stats.shape_geomean({"Q21": [2.0, 8.0], "Q4": [4.0]})
        self.assertAlmostEqual(got, math.sqrt(5.0 * 4.0))

    def test_shapes_whose_draws_all_failed_are_left_out(self):
        got = stats.shape_geomean({"Q21": [], "Q4": [4.0], "Q2": [16.0]})
        self.assertAlmostEqual(got, 8.0)
        self.assertIsNone(stats.shape_geomean({"Q21": []}))

    def test_end_to_end_counts_failures_only_in_the_success_rate(self):
        def record(i, shape, ms, error=None, kb=1024):
            return {"i": i, "shape": shape, "draw": i, "ns": int(ms * 1e6), "error": error,
                    "vm_hwm_kb": kb, "calib_ns": REF}
        records = [
            record(0, "Q4", 4.0),
            record(1, "Q21", 2.0, kb=2048),
            record(2, "Q21", 1000.0, error="abort", kb=0),
            record(3, "Q2", 16.0),
            # Past the head: its memory does not count.
            record(4, "Q2", 16.0, kb=4096),
        ]
        setup = {"setup_s": [0.5, 0.2, 0.3], "calib_ns": [REF] * 3}
        metrics, info = stats.end_to_end(records, [], setup, 4)
        self.assertAlmostEqual(metrics["latency_geomean_ms"][0], (4.0 * 2.0 * 16.0) ** (1 / 3))
        self.assertAlmostEqual(metrics["latency_p50_ms"][0], 10.0)
        self.assertAlmostEqual(metrics["success_rate"][0], 0.8)
        self.assertAlmostEqual(info["error_rate"], 0.2)
        # The aborted attempt's time stays in the window.
        self.assertAlmostEqual(metrics["throughput_qps"][0], 4 / 1.038)
        self.assertAlmostEqual(metrics["setup_s"][0], 0.3)
        self.assertAlmostEqual(metrics["peak_rss_mb"][0], 2.0)

    def test_a_query_has_one_latency_over_its_positions_and_repeats(self):
        def record(i, draw, ms):
            return {"i": i, "shape": "Q4", "draw": draw, "ns": ms * 1_000_000, "error": None,
                    "vm_hwm_kb": 1, "calib_ns": REF}
        records = [record(0, 1, 1), record(1, 1, 2), record(2, 2, 5)]
        repeats = [record(0, 1, 9)]
        metrics, info = stats.end_to_end(records, repeats, {"setup_s": [1.0], "calib_ns": [REF]}, 3)
        self.assertEqual(info["distinct"], 2)
        self.assertEqual(info["executions"], 4)
        # Draw 1 has latency 2 (median of 1, 2, 9), draw 2 has 5.
        self.assertAlmostEqual(metrics["latency_p50_ms"][0], 3.5)
        self.assertAlmostEqual(metrics["latency_geomean_ms"][0], 3.5)
        # Each position takes its query's latency: 2 + 2 + 5 ms.
        self.assertAlmostEqual(metrics["throughput_qps"][0], 3 / 0.009)


class Calibration(unittest.TestCase):
    def test_times_scale_by_the_calibration_around_them(self):
        # The machine ran the kernel at half the reference speed during the
        # first query and at the reference speed during the second.
        records = [
            {"i": 0, "shape": "Q2", "draw": 0, "ns": 8_000_000, "error": None,
             "vm_hwm_kb": 1, "calib_ns": 2 * REF},
            {"i": 1, "shape": "Q4", "draw": 1, "ns": 16_000_000, "error": None,
             "vm_hwm_kb": 1, "calib_ns": REF},
        ]
        setup = {"setup_s": [0.9, 0.3, 0.5], "calib_ns": [3 * REF, REF, REF]}
        metrics, info = stats.end_to_end(records, [], setup, 2)
        self.assertAlmostEqual(metrics["latency_p50_ms"][0], (4.0 + 16.0) / 2)
        self.assertAlmostEqual(metrics["throughput_qps"][0], 2 / 0.020)
        self.assertAlmostEqual(info["raw_qps"], 2 / 0.024)
        # Set-up repetitions scale one by one: 0.3, 0.3 and 0.5 s.
        self.assertAlmostEqual(metrics["setup_s"][0], 0.3)

    def test_lines_take_the_median_of_the_bursts_around_them(self):
        lines = [
            {"type": "calib", "ns": [10, 11]},
            {"type": "calib", "ns": [20, 21]},
            {"type": "setup", "setup_s": [0.1], "gen_ms": [1.0]},
            {"type": "end", "i": 0},
            {"type": "end", "i": 1},
            {"type": "calib", "ns": [30, 31]},
            {"type": "end", "i": 2},
            {"type": "done"},
        ]
        last = run.calibrate(lines)
        self.assertEqual(last, [30, 31])
        self.assertEqual([line["type"] for line in lines], ["setup", "end", "end", "end", "done"])
        self.assertEqual(lines[0]["calib_ns"], [15.5])
        self.assertEqual([line["calib_ns"] for line in lines[1:4]], [25.5, 25.5, 30.5])


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            ("query", None, 0, 100),
            ("sql.parse", 0, 5, 15),
            ("exec.execute", 0, 20, 90),
            ("inner", 2, 30, 50),
        ]
        got = stats.self_times(spans)
        self.assertEqual(got["query"], 100 - 10 - 70)
        self.assertEqual(got["sql.parse"], 10)
        self.assertEqual(got["exec.execute"], 70 - 20)
        self.assertEqual(got["inner"], 20)
        # Self times partition the root span.
        self.assertEqual(sum(got.values()), 100)

    def test_overlapping_children_are_covered_once(self):
        spans = [("query", None, 0, 100), ("a", 0, 10, 60), ("b", 0, 40, 80)]
        self.assertEqual(stats.self_times(spans)["query"], 100 - 70)

    def test_equal_names_are_summed(self):
        spans = [
            ("query", None, 0, 10),
            ("exec.execute", 0, 0, 4),
            ("exec.execute", 0, 6, 10),
        ]
        got = stats.self_times(spans)
        self.assertEqual(got, {"query": 2, "exec.execute": 8})

    def test_per_layer_attributes_time_outside_layers_to_the_query(self):
        records = [{
            "error": None,
            "spans": [["query", None, 0, 1_000_000], ["exec.execute", 0, 0, 990_000]],
            "layers": {k: 1 for k in (
                "sql_calls", "ops_bound", "ops_rewritten", "prov_attrs", "rules_fired",
                "decorrelated", "passes", "sublinks_remaining", "ops", "qcmp", "rows_out",
                "peak_bytes", "batches", "fallback_rows", "rows_in", "memo_hits",
                "memo_inserts", "memo_insert_bytes")} | {"session_ns": 500_000},
        }]
        got = stats.per_layer(records, [], [1.0])
        self.assertAlmostEqual(got["exec.execute.self_ms"][0], 0.99)
        self.assertAlmostEqual(got["trace.unattributed_share"][0], 0.01)
        self.assertAlmostEqual(got["trace.overhead_share"][0], 1.0)
        self.assertAlmostEqual(got["exec.memo.hit_rate"][0], 0.5)


if __name__ == "__main__":
    unittest.main()
