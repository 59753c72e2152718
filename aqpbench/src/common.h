#ifndef AQPBENCH_COMMON_H_
#define AQPBENCH_COMMON_H_

// Shared vocabulary of the benchmark: the workloads, the clock, and the
// order statistics every metric is reported with.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace aqpbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

/// cold_churn and shared_churn differ only in the session seed: own seed
/// per session (no two pools alike) versus the server default (every pool
/// identical), so a pool-sharing change has one workload that exercises it
/// and one that bypasses it.
enum class Workload { kColdChurn, kSharedChurn, kWarmScan, kOpenMix };

inline const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdChurn:
      return "cold_churn";
    case Workload::kSharedChurn:
      return "shared_churn";
    case Workload::kWarmScan:
      return "warm_scan";
    case Workload::kOpenMix:
      return "open_mix";
  }
  return "?";
}

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Load-generating connections (and client threads): nproc of the 4-core
/// machine the benchmark was designed on, fixed so that results from
/// larger machines stay comparable.
inline constexpr int kConnections = 4;

/// Linear-interpolation quantile (the rule numpy and aqp::EmpiricalQuantile
/// use). NaN on an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A p-quantile is reported only when at least ten samples lie beyond it.
inline bool QuantileSupported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// SplitMix64 finalizer: derives independent seeds for sub-streams
/// (per client, per block) from the workload seed.
inline uint64_t Mix(uint64_t a, uint64_t b = 0, uint64_t c = 0) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull) ^
               (c * 0xD1B54A32D192ED03ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace aqpbench

#endif  // AQPBENCH_COMMON_H_
