#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Sample arithmetic shared by every workload: medians, the tail percentile
// the sample size supports, geometric means and the failure ratio. Kept
// free of any repository dependency so the self-test checks it directly.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that still has at least `beyond` samples above
/// it, with the sample count it rests on.
struct Tail {
  double value = 0;       // the sample at that rank
  double percentile = 0;  // 100 * rank / n, rank counted from 1
  int64_t samples = 0;    // n
};

/// Sorted ascending, the tail is the sample at 1-based rank n - beyond:
/// exactly `beyond` samples lie above it. With n <= beyond no percentile
/// qualifies and the maximum is returned with percentile 100, so callers
/// can still print something while the stated percentile says why it is
/// not a tail.
inline Tail TailPercentile(std::vector<double> v, int64_t beyond = 10) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const int64_t n = t.samples;
  const int64_t rank = n > beyond ? n - beyond : n;
  t.value = v[static_cast<size_t>(rank - 1)];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

/// Geometric mean of positive values; 0 when empty.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Operations that did not deliver a correct answer, over the operations
/// attempted. Errors, refusals, timeouts and wrong answers all count; the
/// denominator is every attempt, including the failed ones.
struct FailureCounts {
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t rejected = 0;
  int64_t timed_out = 0;
  int64_t wrong = 0;

  int64_t failed() const { return errors + rejected + timed_out + wrong; }
};

inline double ErrorRate(const FailureCounts& c) {
  return c.attempted == 0 ? 0
                          : static_cast<double>(c.failed()) /
                                static_cast<double>(c.attempted);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
