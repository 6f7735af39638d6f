"""Tests of the quartile-spread helper the steadiness check relies on."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from steadiness import quartile_spread, worsening  # noqa: E402


class QuartileSpreadTest(unittest.TestCase):
    def test_exclusive_quartiles_as_share_of_median(self):
        # statistics.quantiles' default "exclusive" method on 1..10 gives
        # q1 = 2.75, median = 5.5, q3 = 8.25.
        values = [10, 3, 1, 7, 5, 2, 9, 4, 8, 6]
        self.assertAlmostEqual(quartile_spread(values), (8.25 - 2.75) / 5.5)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(quartile_spread([4.0] * 10), 0.0)

    def test_one_outlier_does_not_widen_the_spread(self):
        steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        with_outlier = steady[:-1] + [1000]
        self.assertLess(quartile_spread(with_outlier), 0.03)

    def test_fewer_than_two_values(self):
        self.assertEqual(quartile_spread([]), 0.0)
        self.assertEqual(quartile_spread([3.0]), 0.0)


class WorseningTest(unittest.TestCase):
    def test_direction_follows_better(self):
        self.assertAlmostEqual(worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(worsening(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(worsening(100, 90, "higher"), 0.10)


if __name__ == "__main__":
    unittest.main()
