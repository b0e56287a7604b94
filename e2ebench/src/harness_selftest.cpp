// Self-test of the benchmark's arithmetic: nearest-rank percentiles and
// their tail-sample counts, and the oracle diff's missing / duplicate /
// spurious accounting, including churn's allowed-but-optional deliveries.
// Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void percentiles() {
  using e2e::percentile;
  expect(percentile({}, 50) == 0, "empty sample percentile is 0");
  expect(percentile({7}, 99) == 7, "single sample is every percentile");
  expect(percentile({4, 1, 3, 2}, 50) == 2, "p50 of 1..4 is the 2nd smallest");
  expect(percentile({4, 1, 3, 2}, 100) == 4, "p100 is the maximum");
  expect(percentile({4, 1, 3, 2}, 0) == 1, "p0 clamps to the minimum");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(1001 - i);
  expect(percentile(thousand, 99) == 990, "p99 of 1..1000 is the 990th smallest");
  expect(percentile(thousand, 50) == 500, "p50 of 1..1000 is 500");
  expect(e2e::samples_beyond(1000, 99) == 10, "1000 samples leave 10 beyond p99");
  expect(e2e::samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99 (rank 990)");
  expect(e2e::samples_beyond(100, 99) == 1, "100 samples leave 1 beyond p99");
  expect(e2e::samples_beyond(0, 99) == 0, "no samples, none beyond");
  expect(e2e::median({3, 1, 2}) == 2, "median of three");
  expect(e2e::interquartile_mean({100, 1, 2, 3, 4, 5, 6, -50}) == 3.5, "interquartile mean drops both tails");
  expect(e2e::interquartile_mean({1, 2, 6}) == 3, "interquartile mean of fewer than four is the mean");
  using e2e::windowed_percentile;
  const std::vector<double> ones(100, 1.0), twos(100, 2.0), threes(100, 3.0), nines(100, 9.0);
  expect(windowed_percentile({}, 50) == 0, "no windows, 0");
  expect(windowed_percentile({ones, twos, threes, nines}, 50) == 2.5,
         "one p50 per window of 100, interquartile mean over windows");
  expect(windowed_percentile({std::vector<double>(60, 1.0), std::vector<double>(40, 5.0), twos}, 90) == 3.5,
         "windows below 100 samples merge into their successor");
  expect(windowed_percentile({ones, std::vector<double>(30, 7.0)}, 90) == 7,
         "a short tail joins the last full window");
}

void oracle() {
  using e2e::delivery_key;
  auto run = [](std::vector<std::uint64_t> required, std::vector<std::uint64_t> allowed,
                std::vector<std::uint64_t> delivered) {
    return e2e::diff_deliveries(required, allowed, delivered);
  };
  const std::uint64_t a = delivery_key(0, 1), b = delivery_key(1, 1), c = delivery_key(0, 2);

  auto clean = run({a, b, c}, {}, {c, a, b});
  expect(clean.failures() == 0 && clean.expected == 3 && clean.delivered == 3, "exact delivery passes");
  expect(clean.failure_ratio() == 0, "clean failure ratio is 0");

  auto missing = run({a, b, c}, {}, {a, c});
  expect(missing.missing == 1 && missing.duplicate == 0 && missing.spurious == 0, "one missing delivery");

  auto duplicate = run({a, b, c}, {}, {a, b, c, b});
  expect(duplicate.duplicate == 1 && duplicate.missing == 0 && duplicate.spurious == 0, "one duplicate");

  auto spurious = run({a, b}, {}, {a, b, c});
  expect(spurious.spurious == 1 && spurious.missing == 0 && spurious.duplicate == 0, "one spurious");

  auto optional_taken = run({a}, {c}, {a, c});
  expect(optional_taken.failures() == 0, "an allowed delivery is not spurious");
  auto optional_skipped = run({a}, {c}, {a});
  expect(optional_skipped.failures() == 0, "an allowed delivery may be absent");
  auto optional_twice = run({a}, {c}, {a, c, c});
  expect(optional_twice.duplicate == 1, "an allowed delivery may not repeat");

  auto mixed = run({a, b}, {}, {b, b, b, c});
  expect(mixed.missing == 1 && mixed.duplicate == 2 && mixed.spurious == 1, "mixed failures counted apart");
  expect(mixed.failure_ratio() == 2.0, "failure ratio is failures over expected");

  auto nothing_expected = run({}, {}, {a});
  expect(nothing_expected.failure_ratio() == 1.0, "failures with nothing expected still fail");
}

void result_line() {
  const std::string line = e2e::result_json(false, 10, 1, {{"latency_ms", 1.25, "ms"}});
  expect(line ==
             "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": "
             "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}",
         "result line shape");
}

}  // namespace

int main() {
  percentiles();
  oracle();
  result_line();
  if (failures == 0) std::printf("harness_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
