#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic.

    python3 perfbench/test_benchmath.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchmath  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(benchmath.percentile(values, 50), 3.0)
        self.assertEqual(benchmath.percentile(values, 90), 5.0)
        self.assertEqual(benchmath.percentile(values, 100), 5.0)
        self.assertEqual(benchmath.percentile(values, 20), 1.0)

    def test_p90_of_the_grids_leaves_ten_beyond(self):
        for cells in (100, 140, 160, 180):
            values = list(range(cells))
            p90 = benchmath.percentile(values, 90)
            self.assertGreaterEqual(sum(v > p90 for v in values), 10)
            self.assertEqual(sum(v > p90 for v in values),
                             benchmath.beyond(cells, 90))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchmath.percentile([], 50)
        with self.assertRaises(ValueError):
            benchmath.percentile([1.0], 0)

    def test_quartiles_match_statistics(self):
        values = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 2.0, 8.0, 6.0, 4.0]
        self.assertEqual(benchmath.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchmath.spread(values), (q3 - q1) / q2)


class RunnerMathTest(unittest.TestCase):
    # [start_s, end_s, worker, setup_s, instructions, cpu_s]
    CELLS = [
        [0.0, 1.0, 0, 0.1, 1000, 0.5],
        [0.0, 2.0, 1, 0.2, 2000, 1.5],
        [1.0, 3.0, 0, 0.1, 3000, 1.0],
    ]

    def test_cpu_per_wall(self):
        self.assertAlmostEqual(benchmath.cpu_per_wall(6.0, 3.0), 2.0)
        self.assertEqual(benchmath.cpu_per_wall(1.0, 0.0), 0.0)

    def test_busy_frac(self):
        # 1 + 2 + 2 cell-seconds over 2 workers x 4 s.
        self.assertAlmostEqual(
            benchmath.busy_frac(self.CELLS, 2, 4.0), 5.0 / 8.0)

    def test_tail_starts_at_first_idle_worker(self):
        # Worker 1 goes idle at 2.0; the pass ends at 3.5.
        self.assertAlmostEqual(benchmath.tail_s(self.CELLS, 2, 3.5), 1.5)
        # A worker that never ran a cell is idle from the start.
        self.assertAlmostEqual(benchmath.tail_s(self.CELLS, 3, 3.5), 3.5)

    def test_pass_metrics(self):
        m = benchmath.pass_metrics(
            {"wall_s": 3.0, "cpu_s": 4.5, "cells": self.CELLS}, 2)
        # Throughput and cell times are CPU time, the runner wall time.
        self.assertAlmostEqual(m["minstr_per_s"], 6000 / 4.5 / 1e6)
        self.assertAlmostEqual(m["wall_minstr_per_s"], 6000 / 3.0 / 1e6)
        self.assertAlmostEqual(m["cell_ms_p50"], 1000.0)
        self.assertAlmostEqual(m["cell_ms_p90"], 1500.0)
        self.assertAlmostEqual(m["setup_s"], 0.4)
        self.assertAlmostEqual(m["runner.cpu_per_wall"], 1.5)

    def test_median_over_passes(self):
        passes = [{"wall_s": w, "cpu_s": w, "cells": self.CELLS}
                  for w in (3.0, 6.0, 4.0)]
        m = benchmath.median_over_passes(passes, 2)
        self.assertAlmostEqual(m["minstr_per_s"], 6000 / 4.0 / 1e6)


class DiffersByTest(unittest.TestCase):
    def test_both_directions_count(self):
        self.assertAlmostEqual(benchmath.differs_by(90, 100), 0.1)
        self.assertAlmostEqual(benchmath.differs_by(110, 100), 0.1)
        self.assertEqual(benchmath.differs_by(0, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
