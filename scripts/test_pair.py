#!/usr/bin/env python3
"""The arithmetic of scripts/pair.py on canned numbers.

    python3 scripts/test_pair.py
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pair  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_exclusive_method(self):
        # Positions k(n+1)/4 on a 1-based axis: 2.75, 5.5, 8.25 for n = 10.
        xs = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertEqual(pair.quartiles(xs), (2.75, 5.5, 8.25))
        self.assertEqual(pair.median([3.0]), 3.0)
        self.assertEqual(pair.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(pair.median([1, 2, 3, 4]), statistics.median([1, 2, 3, 4]))


class Summaries(unittest.TestCase):
    PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]

    def test_a_clear_gain_on_a_higher_metric(self):
        change = [p * 1.10 for p in self.PARENT]
        change[3] = 100.5  # one pair lost: 9 of 10 still wins
        s = pair.summarize(self.PARENT, change, "higher", 0.25)
        self.assertEqual((s["wins"], s["losses"], s["pairs"]), (9, 1, 10))
        self.assertAlmostEqual(s["median_ratio"], 1.10)
        self.assertEqual(s["verdict"], "gain")

    def test_eight_wins_are_not_a_claim(self):
        change = [p * 1.10 for p in self.PARENT]
        change[3], change[4] = 100.5, 98.5
        s = pair.summarize(self.PARENT, change, "higher", 0.25)
        self.assertEqual(s["wins"], 8)
        self.assertEqual(s["verdict"], "flat")

    def test_a_gain_inside_the_parent_iqr_is_not_a_claim(self):
        # Every pair wins by 0.5 %, but the parent's IQR is 2.25.
        change = [p * 1.005 for p in self.PARENT]
        s = pair.summarize(self.PARENT, change, "higher", 0.25)
        self.assertEqual(s["wins"], 10)
        self.assertEqual(s["parent_q"], [98.75, 100.0, 101.25])
        self.assertEqual(s["verdict"], "flat")

    def test_lower_is_better(self):
        change = [p * 0.8 for p in self.PARENT]
        s = pair.summarize(self.PARENT, change, "lower", 0.1)
        self.assertEqual((s["wins"], s["verdict"]), (10, "gain"))
        s = pair.summarize(change, self.PARENT, "lower", 0.1)
        self.assertEqual((s["losses"], s["verdict"]), (10, "loss"))

    def test_beyond_bound_without_nine_losses(self):
        # Five pairs 30 % worse, five unchanged: median 15 % worse.
        change = [p * (0.7 if i % 2 else 1.0) for i, p in enumerate(self.PARENT)]
        s = pair.summarize(self.PARENT, change, "higher", 0.1)
        self.assertEqual(s["losses"], 5)
        self.assertEqual(s["verdict"], "beyond bound")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60.0, 100.0, 140.0, 80.0, 120.0]
        change = [p * 0.7 for p in parent[:4]] + [150.0]
        s = pair.summarize(parent, change, "higher", 0.25)
        self.assertGreater(s["parent_spread"], 0.25)
        self.assertEqual(s["verdict"], "unresolved")

    def test_equal_sides_claim_nothing(self):
        s = pair.summarize(self.PARENT, list(self.PARENT), "higher", 0.25)
        self.assertEqual((s["wins"], s["losses"], s["median_ratio"]), (0, 0, 1.0))
        self.assertEqual(s["verdict"], "flat")

    def test_spread_is_iqr_over_median(self):
        s = pair.summarize(self.PARENT, self.PARENT, "higher", 0.25)
        self.assertAlmostEqual(s["parent_spread"], 2.5 / 100.0)

    def test_mismatched_sides_are_refused(self):
        with self.assertRaises(ValueError):
            pair.summarize([1.0], [1.0, 2.0], "higher", 0.25)


class Parsing(unittest.TestCase):
    def test_seed_ranges(self):
        self.assertEqual(pair.parse_seeds("501..505"), [501, 502, 503, 504, 505])
        self.assertEqual(pair.parse_seeds("3,1"), [3, 1])
        with self.assertRaises(ValueError):
            pair.parse_seeds("5..4")

    def test_a_run_is_its_json_line_and_its_raw_line(self):
        out = "\n".join([
            "workload churn_cdn  seed 7  R 9  timed part 20.0 s  events/repetition 1",
            "  events_per_s as timed (not scaled to the 240 ns reference chase): 2512345; "
            "chase median 251.5 ns",
            '{"correct":true,"attempted":90,"failed":0,'
            '"metrics":{"setup_s":{"value":1.5,"unit":"s"},'
            '"events_per_s":{"value":2.4e6,"unit":"events/s"},'
            '"peak_rss_mb":{"value":168.9,"unit":"MiB"},'
            '"tlb_distance":{"value":3.25,"unit":"req/s"}}}',
            "",
        ])
        run = pair.parse_run(out)
        self.assertEqual(run["raw_events_per_s"], 2512345.0)
        self.assertEqual(run["chase_ns"], 251.5)
        self.assertEqual(run["metrics"]["tlb_distance"], 3.25)
        self.assertEqual((run["failed"], run["correct"]), (0, True))

    def test_the_run_length_and_metrics_are_benchmark_json_s(self):
        seconds, metrics = pair.load_benchmark()
        with open(os.path.join(pair.REPO, "BENCHMARK.json")) as f:
            self.assertEqual(seconds, json.load(f)["run_seconds"])
        names = [m[0] for m in metrics]
        self.assertEqual(names, ["setup_s", "events_per_s", "peak_rss_mb", "tlb_distance"])


if __name__ == "__main__":
    unittest.main()
