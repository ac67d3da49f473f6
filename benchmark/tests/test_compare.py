"""Pins compare.py's verdicts: gain, regression, unresolved, same, and a
rise in failed runs.

Run: python3 -m unittest discover -s benchmark/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]


def records(walls, failed=0, workload="table1"):
    return [{"workload": workload, "seed": seed, "trace": 0, "attempted": 100,
             "failed": failed, "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
            for seed, wall in enumerate(walls, start=1)]


def steady(center, n=10):
    """n values within ±1% of center."""
    return [center * (1 + 0.002 * (i - n / 2)) for i in range(n)]


def verdicts(parent, change):
    return {row.metric: row.verdict for row in compare.compare(parent, change, METRICS)}


class CompareTest(unittest.TestCase):
    def test_gain(self):
        self.assertEqual(verdicts(records(steady(10.0)), records(steady(9.0))),
                         {"wall_s": "gain", "failed_frac": "same"})

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(verdicts(records(steady(10.0, 9)), records(steady(9.0, 9)))["wall_s"],
                         "same")

    def test_gain_needs_nine_wins_in_ten(self):
        change = steady(9.0)
        change[0] = change[1] = 10.05
        self.assertEqual(verdicts(records(steady(10.0)), records(change))["wall_s"], "same")

    def test_regression(self):
        rows = compare.compare(records(steady(10.0)), records(steady(11.5)), METRICS)
        self.assertEqual(rows[0].verdict, "regression")
        self.assertEqual(rows[0].pairs, 10)

    def test_worsening_within_bound_is_same(self):
        self.assertEqual(verdicts(records(steady(10.0)), records(steady(10.5)))["wall_s"], "same")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = [6.0, 8.0, 10.0, 12.0, 14.0, 7.0, 9.0, 11.0, 13.0, 15.0]
        self.assertEqual(verdicts(records(wide), records(steady(11.5)))["wall_s"], "unresolved")

    def test_wide_spread_but_every_change_run_better_is_judged(self):
        parent = [20.0, 24.0, 28.0, 32.0, 36.0, 22.0, 26.0, 30.0, 34.0, 38.0]
        self.assertEqual(verdicts(records(parent), records(steady(10.0)))["wall_s"], "gain")

    def test_rise_in_failed_runs_voids_the_gain(self):
        result = verdicts(records(steady(10.0)), records(steady(9.0), failed=1))
        self.assertEqual(result, {"wall_s": "void", "failed_frac": "regression"})

    def test_traced_records_are_ignored(self):
        traced = records(steady(50.0))
        for r in traced:
            r["trace"] = 1
        rows = compare.compare(records(steady(10.0)) + traced, records(steady(10.0)), METRICS)
        self.assertEqual([r.verdict for r in rows], ["same", "same"])


if __name__ == "__main__":
    unittest.main()
