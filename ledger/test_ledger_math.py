#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic.

    python3 ledger/test_ledger_math.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger_math as lm  # noqa: E402
import run  # noqa: E402


class NearestRankTest(unittest.TestCase):
    def test_picks_the_ceil_rank_sample(self):
        values = [5, 1, 4, 2, 3]  # sorted: 1 2 3 4 5
        self.assertEqual(lm.nearest_rank(values, 0.5), 3)   # ceil(2.5) = 3rd
        self.assertEqual(lm.nearest_rank(values, 0.2), 1)   # ceil(1.0) = 1st
        self.assertEqual(lm.nearest_rank(values, 0.21), 2)  # ceil(1.05) = 2nd
        self.assertEqual(lm.nearest_rank(values, 1.0), 5)

    def test_exact_rank_is_not_bumped_by_float_error(self):
        # 0.9 * 100 = 90.00000000000001 in binary; the rank must stay 90.
        values = list(range(1, 101))
        self.assertEqual(lm.nearest_rank(values, 0.9), 90)
        self.assertEqual(lm.nearest_rank(values, 0.99), 99)

    def test_never_interpolates(self):
        self.assertEqual(lm.nearest_rank([1.0, 10.0], 0.5), 1.0)
        self.assertEqual(lm.median([1.0, 2.0, 3.0, 4.0]), 2.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            lm.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            lm.nearest_rank([1], 0.0)


class TenBeyondTest(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        self.assertEqual(lm.beyond(100, 0.9), 10)
        self.assertTrue(lm.percentile(list(range(100)), 0.9)[2])
        self.assertEqual(lm.beyond(99, 0.9), 9)
        self.assertFalse(lm.percentile(list(range(99)), 0.9)[2])

    def test_p99_needs_a_thousand_samples(self):
        self.assertTrue(lm.percentile(list(range(1000)), 0.99)[2])
        self.assertFalse(lm.percentile(list(range(999)), 0.99)[2])

    def test_median_needs_twenty_samples(self):
        self.assertTrue(lm.percentile(list(range(20)), 0.5)[2])
        self.assertFalse(lm.percentile(list(range(19)), 0.5)[2])

    def test_reports_the_sample_count(self):
        value, count, _ = lm.percentile([3, 1, 2], 0.5)
        self.assertEqual((value, count), (2, 3))


class UnaccountedTest(unittest.TestCase):
    def test_is_wall_minus_the_layer_calls(self):
        self.assertAlmostEqual(lm.unaccounted(1.0, [0.3, 0.2, 0.4]), 0.1)
        self.assertAlmostEqual(lm.unaccounted(1.0, [0.6, 0.5]), -0.1)

    def test_warns_only_above_ten_percent(self):
        self.assertIsNone(lm.unaccounted_warning(1.0, [0.95]))
        self.assertIsNone(lm.unaccounted_warning(1.0, [0.9]))
        self.assertIn("gate 10%", lm.unaccounted_warning(1.0, [0.85]))

    def test_ledger_row_uses_the_route_layers(self):
        samples = {name: [1.0] for name in (
            "graph.parse_s", "data.write_fgrbin_s", "data.stream_summarize_s",
            "core.optimize_s", "opt.iterations", "opt.restarts", "matrix.spmv_calls",
            "matrix.spmm_calls", "prop.linbp_streaming_s", "data.prefetch_read_s",
            "data.prefetch_consumer_stall_s", "data.prefetch_producer_stall_s",
            "data.prefetch_panels", "matrix.spectral_spmv_calls", "prop.linbp_iterations",
            "matrix.stream_triad_gbps")}
        samples.update({
            "fgr.label_s": [1.0], "data.load_s": [0.2], "core.summarize_s": [0.1],
            "core.optimize_s": [0.05], "matrix.spectral_s": [0.4], "prop.linbp_s": [0.2],
            "fgr.label_streamed_s": [4.0], "data.stream_summarize_s": [1.0],
            "core.optimize_streamed_s": [0.05], "prop.linbp_streaming_s": [2.5],
            "untraced_label_s": [0.9]})
        for layer in ("data.load_s", "core.summarize_s", "matrix.spectral_s", "prop.linbp_s"):
            samples["1t:" + layer] = [2 * samples[layer][0]]
        raw = {"samples": samples,
               "scalars": {"n": 10, "nnz": 20, "k": 2, "lmax": 5, "file_bytes": 1e9}}
        rows, warning = run.per_layer(raw, streamed_route=False)
        self.assertAlmostEqual(rows["fgr.unaccounted_s"][0], 0.05)
        self.assertIsNone(warning)
        self.assertAlmostEqual(rows["prop.linbp_speedup"][0], 2.0)
        self.assertAlmostEqual(rows["obs.tracing_overhead_frac"][0], 1.0 / 0.9 - 1.0)
        rows, warning = run.per_layer(raw, streamed_route=True)
        self.assertAlmostEqual(rows["fgr.unaccounted_s"][0], 0.45)
        self.assertIn("11.3%", warning)
        self.assertEqual(set(rows) | {"error_rate"}, {name for name, _ in run.PER_LAYER})


class FailureCountingTest(unittest.TestCase):
    def test_sums_sources(self):
        failures = lm.Failures()
        failures.add(100, 0)
        failures.add(50, 2, ["served labels differ", "timeout"])
        self.assertEqual((failures.attempted, failures.failed), (150, 2))
        self.assertAlmostEqual(failures.error_rate, 2 / 150)
        self.assertEqual(failures.reasons, ["served labels differ", "timeout"])

    def test_a_lost_run_is_one_failed_attempt(self):
        failures = lm.Failures()
        failures.fail("fgr_ledger exited 1")
        self.assertEqual(failures.error_rate, 1.0)

    def test_lost_run_still_prints_its_json_line(self):
        def lost(*args):
            raise RuntimeError("fgr_ledger batch exited 1: boom")
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as build, \
                mock.patch.object(run, "BUILD", build), \
                mock.patch.object(run, "run_batch", lost), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            correct = run.run_workload("batch-incore", 1, 1.0, 0)
        self.assertFalse(correct)
        self.assertEqual(json.loads(stdout.getvalue().splitlines()[-1]),
                         {"correct": False, "attempted": 1, "failed": 1, "metrics": {}})

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(lm.Failures().error_rate, 1.0)

    def test_rejects_inconsistent_counts(self):
        with self.assertRaises(ValueError):
            lm.Failures().add(1, 2)


class BandwidthModelTest(unittest.TestCase):
    def test_computed_bytes(self):
        self.assertEqual(lm.csr_bytes(2, 4), 8 * 3 + 16 * 4)
        self.assertEqual(lm.spmv_bytes(2, 4), lm.csr_bytes(2, 4) + 8 * (4 + 4))
        self.assertEqual(lm.spmm_pass_bytes(2, 4, 3), lm.csr_bytes(2, 4) + 24 * (4 + 6))
        self.assertAlmostEqual(lm.bw_frac(10e9, 1.0, 20.0), 0.5)


if __name__ == "__main__":
    unittest.main()
