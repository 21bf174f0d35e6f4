// Sample statistics for the runtime benchmark: nearest-rank percentiles and
// the "highest percentile with at least ten samples beyond it" rule that
// decides which tail a run is long enough to report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace rtbench {

/// 1-based nearest rank of the p-th percentile (p in [0, 100]) among n > 0
/// samples. The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
inline std::size_t nearest_rank(std::size_t n, double p) {
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of an unsorted sample; 0 when it is empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

/// Samples strictly above the p-th percentile's position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest percentile of a fixed ladder that has at least `min_beyond`
/// samples beyond it, or 0 when not even the median qualifies.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0,
                                       95.0, 90.0, 75.0, 50.0};
  for (double p : kLadder)
    if (samples_beyond(n, p) >= min_beyond) return p;
  return 0.0;
}

}  // namespace rtbench
