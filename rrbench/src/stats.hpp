#pragma once

// Statistics the benchmark reports: medians, tail percentiles that are
// only reported when the sample supports them, quartiles computed the way
// Python's statistics.quantiles(values, n=4) computes them (so spreads
// printed here match the ones a reader recomputes from the JSON lines),
// and the open-loop schedule arithmetic of the serve-mixed generator.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace rrbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the "p99" of a run is just its maximum.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile, p in (0, 1]. nullopt when `xs` is empty or
/// fewer than kTailSamples samples rank above the chosen one.
inline std::optional<double> percentile(std::vector<double> xs, double p) {
  if (xs.empty() || !(p > 0.0) || p > 1.0) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kTailSamples) return std::nullopt;
  return xs[rank - 1];
}

/// Smallest sample count for which percentile(xs, p) is reported.
inline std::size_t samples_for_percentile(double p) {
  std::size_t n = kTailSamples + 1;
  while (n - static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))) <
         kTailSamples) {
    ++n;
  }
  return n;
}

/// Median (mean of the two middle samples for even sizes); 0 when empty.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// statistics.quantiles(xs, n=4) with the default 'exclusive' method.
/// nullopt with fewer than two samples (Python raises there).
inline std::optional<Quartiles> quartiles(std::vector<double> xs) {
  const std::size_t ld = xs.size();
  if (ld < 2) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = ld + 1;
  double q[3] = {};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

/// Open-loop arrival schedule: request i is due at start + i * interval,
/// whatever happened to earlier requests. Latency is charged from the due
/// time, so a stall that delays the generator or the server counts
/// against every request that was due while it lasted, not only the one
/// in flight when it began.
struct OpenLoopSchedule {
  double start_s = 0.0;
  double interval_s = 0.0;

  double due(std::uint64_t i) const {
    return start_s + static_cast<double>(i) * interval_s;
  }
  /// Reply time minus due time.
  double latency(std::uint64_t i, double reply_s) const {
    return reply_s - due(i);
  }
  /// How late the generator sent request i (0 when on time).
  double lag(std::uint64_t i, double sent_s) const {
    return std::max(0.0, sent_s - due(i));
  }
};

}  // namespace rrbench
