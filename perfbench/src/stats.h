#ifndef LASH_PERFBENCH_STATS_H_
#define LASH_PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

/// Small numeric helpers of the repo benchmark: order statistics over
/// per-query latencies and interval arithmetic over trace spans.
namespace lash::perfbench {

/// A nearest-rank percentile together with how many samples rank above it.
/// A percentile is only worth reporting when `beyond` is at least ten: p90
/// needs 100 samples, p99 needs 1000.
struct RankedValue {
  double value = 0;
  size_t samples = 0;  ///< Sample count the percentile was taken over.
  size_t beyond = 0;   ///< Samples ranked strictly above the returned one.
};

/// Nearest-rank percentile: the smallest sample such that at least
/// `q` of all samples are at or below it (rank ⌈q·n⌉, 1-based). `q` in
/// (0, 1]. An empty input yields all zeros.
RankedValue Percentile(std::vector<double> values, double q);

/// Middle value (mean of the two middle values for an even count); 0 for
/// an empty input. Used for repeated probes, set-ups and residuals;
/// latencies go through Percentile.
double Median(std::vector<double> values);

/// A closed time interval, in milliseconds on one clock.
struct Interval {
  double start = 0;
  double end = 0;
  double length() const { return end > start ? end - start : 0; }
};

/// Length of the union of `intervals`, each clipped to `window` first.
/// Overlapping and nested intervals count once.
double CoveredLength(Interval window, std::vector<Interval> intervals);

/// Self time of a span: its duration minus the part of its interval that
/// its children cover (children may overlap each other, nest, or stick
/// out of the parent; only the covered part inside the parent counts).
double SelfTime(Interval parent, const std::vector<Interval>& children);

}  // namespace lash::perfbench

#endif  // LASH_PERFBENCH_STATS_H_
