#include "stats.h"

#include <algorithm>
#include <cmath>

namespace lash::perfbench {

RankedValue Percentile(std::vector<double> values, double q) {
  RankedValue result;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  result.value = values[rank - 1];
  result.beyond = values.size() - rank;
  return result;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

double CoveredLength(Interval window, std::vector<Interval> intervals) {
  for (Interval& iv : intervals) {
    iv.start = std::max(iv.start, window.start);
    iv.end = std::min(iv.end, window.end);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0;
  double run_start = 0;
  double run_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.length() <= 0) continue;
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

double SelfTime(Interval parent, const std::vector<Interval>& children) {
  return parent.length() - CoveredLength(parent, children);
}

}  // namespace lash::perfbench
