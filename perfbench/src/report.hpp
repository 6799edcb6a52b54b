// Measurement plumbing shared by every workload: wall clocks, order
// statistics, hrtdm::obs::Registry deltas and the metric report the driver prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values);

/// The highest percentile that still has at least `beyond` samples above
/// it: with n ascending samples that is sample n - beyond - 1. Needs
/// n > beyond; returns false otherwise.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in (0, 100)
};
bool tail_of(std::vector<double> values, int beyond, Tail& out);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Counter and histogram deltas of the global hrtdm::obs::Registry between two
/// snapshots: what the library itself published while a call ran.
class RegistryDelta {
 public:
  /// Starts a window at the registry's current state.
  void begin();
  /// Adds everything published since begin() to the accumulated totals.
  void end();

  std::int64_t counter(const std::string& name) const;
  std::int64_t hist_sum(const std::string& name) const;
  /// Bucket-resolution quantile of the accumulated histogram delta.
  std::int64_t hist_quantile(const std::string& name, double q) const;

 private:
  struct Hist {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = INT64_MAX;
    std::int64_t max = INT64_MIN;
    std::vector<std::int64_t> bounds;
    std::vector<std::int64_t> buckets;
  };
  hrtdm::obs::RegistrySnapshot start_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, Hist> hists_;
};

/// One metric line of the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one driver invocation reports. `info` values are JSON
/// literals (numbers, strings already quoted, objects).
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  std::vector<Metric> metrics;
  std::map<std::string, std::string> info;

  void add(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& what);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);
  /// One-line JSON object.
  std::string json() const;
};

std::string json_string(const std::string& text);
std::string json_number(double value);
std::string hex64(std::uint64_t value);

/// Safe ratio: 0 when the denominator is 0 (a layer the workload does not
/// exercise reports 0).
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace perfbench
