"""Self-test of the benchmark harness (not of stskit).

    python3 -m unittest discover -s perfbench -p selftest.py

Covers the percentile rule, failure counting, the input-digest report, span
self-time arithmetic, and agreement between BENCHMARK.json and the metrics
the harness prints.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
from tracing import Span, covered_length, self_times  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_level_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_level(165), 90.0)   # 16.5 beyond p90, 8.25 beyond p95
        self.assertEqual(stats.tail_level(200), 95.0)   # exactly 10 beyond p95
        self.assertEqual(stats.tail_level(199), 90.0)
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(10_000), 99.9)
        self.assertEqual(stats.tail_level(40), 75.0)
        self.assertIsNone(stats.tail_level(39))

    def test_percentile_interpolates(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 90.1)
        self.assertEqual(stats.percentile([3.0], 90), 3.0)

    def test_quartiles_match_statistics_module(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        q1, med, q3 = stats.quartiles(xs)
        self.assertEqual((q1, med, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.relative_spread(xs), 5.5 / 5.5)


class FailureCounting(unittest.TestCase):
    def test_errors_and_wrong_answers_both_fail(self):
        ops = [{"status": "ok"}, {"status": "error"}, {"status": "wrong"}, {"status": "ok"}]
        self.assertEqual(stats.count_failures(ops), (4, 2, 1))
        self.assertEqual(stats.fail_ratio(4, 2), 0.5)

    def test_fail_ratio_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            stats.fail_ratio(0, 0)


class DigestReport(unittest.TestCase):
    def test_same_inputs(self):
        self.assertEqual(stats.digest_changes({"a": "1", "b": "2"}, {"b": "2", "a": "1"}), [])

    def test_changed_and_one_sided_instances(self):
        base = {"random_sts(15,1)": "aa", "random_sts(15,2)": "bb", "gone": "cc"}
        new = {"random_sts(15,1)": "aa", "random_sts(15,2)": "XX", "added": "dd"}
        self.assertEqual(stats.digest_changes(base, new),
                         ["added", "gone", "random_sts(15,2)"])

    def test_compare_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05]
        self.assertEqual(stats.compare_metric(base, [10.2] * 5, "lower", 0.1), "within bound")
        self.assertEqual(stats.compare_metric(base, [12.0] * 5, "lower", 0.1), "regressed")
        self.assertEqual(stats.compare_metric(base, [8.0] * 5, "higher", 0.1), "regressed")
        wide = [5.0, 10.0, 15.0, 20.0]
        self.assertEqual(stats.compare_metric(wide, [13.0] * 4, "lower", 0.1), "unresolved")
        self.assertEqual(stats.compare_metric(wide, [4.0] * 4, "lower", 0.1), "within bound")


class SpanSelfTime(unittest.TestCase):
    def test_covered_length_merges_overlaps_and_clips(self):
        self.assertEqual(covered_length([(1, 3), (2, 5), (7, 8)], 0, 10), 5)
        self.assertEqual(covered_length([(-2, 1), (9, 12)], 0, 10), 2)
        self.assertEqual(covered_length([], 0, 10), 0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span("root", 0.0, 10.0, -1, "r"),
            Span("child", 1.0, 4.0, 0, "r"),
            Span("grandchild", 2.0, 3.0, 1, "r"),
            Span("child", 5.0, 9.0, 0, "r"),
            Span("other-root", 20.0, 21.0, -1, "s"),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0, 1.0])


class ContractAgreement(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
