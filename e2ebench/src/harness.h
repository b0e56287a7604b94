// Measurement helpers shared by the end-to-end benchmark and its self-test:
// percentiles, the delivery oracle diff, peak RSS, and the result printer.
// Everything here is pure (no broker code), so harness_selftest can pin the
// arithmetic the benchmark's verdicts rest on.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for an
/// empty sample. Rank = ceil(p/100 * n), so p50 of {1,2,3,4} is 2 and p99
/// of 1000 samples is the 990th smallest.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples strictly above the nearest-rank p-th percentile position: a
/// percentile is only reported as trustworthy with at least ten of these.
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

inline double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

/// Interquartile mean: the mean of the middle half of the sorted sample
/// (all of it below four values). Per-window figures on a host whose speed
/// shifts between modes are bimodal; a median jumps between the modes from
/// run to run, this mean moves with their mixture and still ignores the
/// stalled or idle tails.
inline double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t lo = n < 4 ? 0 : n / 4;
  const std::size_t hi = n < 4 ? n : n - n / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

/// Interquartile mean over windows of each window's p-th percentile
/// (windows with fewer than 100 samples are merged into their successor, a
/// short tail into the last full window).
inline double windowed_percentile(const std::vector<std::vector<double>>& windows, double p) {
  std::vector<double> per_window;
  std::vector<double> carry;
  std::vector<double> last;
  for (const auto& w : windows) {
    carry.insert(carry.end(), w.begin(), w.end());
    if (carry.size() >= 100) {
      if (!last.empty()) per_window.push_back(percentile(last, p));
      last.swap(carry);
      carry.clear();
    }
  }
  last.insert(last.end(), carry.begin(), carry.end());
  if (!last.empty()) per_window.push_back(percentile(last, p));
  return interquartile_mean(per_window);
}

/// One (client, event) delivery packed into a sortable key. Client indices
/// stay below 2^20 and event ids below 2^43 in every workload.
inline std::uint64_t delivery_key(std::uint32_t client, std::uint64_t event) {
  return (event << 20) | client;
}

struct OracleVerdict {
  std::uint64_t expected{0};    // deliveries the oracle requires
  std::uint64_t delivered{0};   // deliveries observed (with duplicates)
  std::uint64_t missing{0};     // required, never delivered
  std::uint64_t duplicate{0};   // copies beyond the first of one key
  std::uint64_t spurious{0};    // delivered, neither required nor allowed
  [[nodiscard]] std::uint64_t failures() const { return missing + duplicate + spurious; }
  [[nodiscard]] double failure_ratio() const {
    return expected == 0 ? (failures() == 0 ? 0.0 : 1.0)
                         : static_cast<double>(failures()) / static_cast<double>(expected);
  }
};

/// Compares the delivered multiset with the oracle. `required` keys must be
/// delivered exactly once; `allowed` keys (subscriptions in transition under
/// churn) may be delivered at most once or not at all; anything else
/// delivered is spurious. All three vectors are sorted in place.
inline OracleVerdict diff_deliveries(std::vector<std::uint64_t>& required,
                                     std::vector<std::uint64_t>& allowed,
                                     std::vector<std::uint64_t>& delivered) {
  std::sort(required.begin(), required.end());
  required.erase(std::unique(required.begin(), required.end()), required.end());
  std::sort(allowed.begin(), allowed.end());
  std::sort(delivered.begin(), delivered.end());
  OracleVerdict v;
  v.expected = required.size();
  v.delivered = delivered.size();
  std::size_t r = 0;
  std::size_t d = 0;
  while (r < required.size() || d < delivered.size()) {
    if (d == delivered.size() || (r < required.size() && required[r] < delivered[d])) {
      ++v.missing;
      ++r;
      continue;
    }
    const std::uint64_t key = delivered[d];
    std::size_t copies = 0;
    while (d < delivered.size() && delivered[d] == key) {
      ++copies;
      ++d;
    }
    v.duplicate += copies - 1;
    if (r < required.size() && required[r] == key) {
      ++r;
    } else if (!std::binary_search(allowed.begin(), allowed.end(), key)) {
      ++v.spurious;
    }
  }
  return v;
}

/// Peak resident set of this process in MiB (getrusage ru_maxrss, KiB on
/// Linux).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The result line: a named metric with its unit.
struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The benchmark's final stdout line, in the shape the result contract
/// fixes: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
inline std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": ";
  out += std::to_string(attempted);
  out += ", \"failed\": ";
  out += std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"";
    out += json_escape(metrics[i].name);
    out += "\": {\"value\": ";
    out += json_number(metrics[i].value);
    out += ", \"unit\": \"";
    out += json_escape(metrics[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
