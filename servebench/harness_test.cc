// Tests of the benchmark's helpers (harness.h). Plain checks, no test
// framework, so the benchmark builds wherever the library does; run.py
// runs this binary after every build and refuses to benchmark if it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace servebench {
namespace {

int g_failures = 0;

void Check(bool cond, const char* what) {
  if (!cond) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void TestSummarizeReportsPercentilesWithCounts() {
  const Summary empty = Summarize({});
  Check(empty.count == 0 && empty.p50 == 0 && empty.p99 == 0,
        "empty sample reads 0 with count 0");

  const Summary one = Summarize({7.0});
  Check(one.count == 1 && one.p50 == 7.0 && one.p99 == 7.0,
        "single sample is every percentile");

  // 1..101 in reverse: rank p/100 * 100 lands exactly on an order statistic.
  std::vector<double> values;
  for (int i = 101; i >= 1; --i) values.push_back(i);
  const Summary s = Summarize(values);
  Check(s.count == 101, "count is the sample size");
  Check(Near(s.p50, 51), "median of 1..101");
  Check(Near(s.p90, 91), "p90 of 1..101");
  Check(Near(s.p99, 100), "p99 of 1..101");

  // Interpolation between order statistics: p50 of {1, 2} is 1.5.
  Check(Near(Summarize({2.0, 1.0}).p50, 1.5), "median interpolates");
  Check(Near(PercentileOfSorted({0, 10}, 99), 9.9), "p99 interpolates");
}

void TestMedianOfWindowsIgnoresAMinorityOfBadWindows() {
  // Three calm windows and one stalled one: the stall moves no percentile.
  std::vector<std::vector<double>> windows(5);
  for (int i = 1; i <= 101; ++i) {
    windows[0].push_back(i);
    windows[1].push_back(i + 1);
    windows[3].push_back(i + 2);
    windows[4].push_back(1000.0 * i);
  }
  // windows[2] stays empty, as a window with no requests of this kind.
  const Summary s = MedianOfWindows(windows);
  Check(s.count == 4 * 101, "count is every sample of every window");
  // Window p50s are 51, 52, 53, 51000: the median of four interpolates.
  Check(Near(s.p50, 52.5), "median of window medians");
  Check(Near(s.p90, 92.5), "median of window p90s");
  Check(Near(s.p99, 101.5), "median of window p99s");
  Check(MedianOfWindows({}).count == 0, "no windows, no samples");
}

void TestQuietestWindowsRankByLatenessP99() {
  // Window lateness p99s: 5, 900, 1, 40, 1 (the last two tie).
  std::vector<std::vector<double>> late = {
      {1, 5}, {1, 900}, {1}, {0, 40}, {1, 1}};
  Check(QuietestWindows(late, 0.5) == std::vector<size_t>({0, 2, 4}),
        "ceil(half) of five windows, lowest p99 first, returned in order");
  Check(QuietestWindows(late, 0.2) == std::vector<size_t>({2}),
        "ties go to the earlier window");
  Check(QuietestWindows(late, 0.0) == std::vector<size_t>({2}),
        "at least one window is kept");
  Check(QuietestWindows(late, 1.0).size() == 5, "share 1 keeps every window");
  Check(QuietestWindows({}, 0.5).empty(), "no windows, none kept");

  const std::vector<std::vector<double>> values = {{10}, {20}, {30}};
  const std::vector<std::vector<double>> kept = SelectWindows(values, {0, 2});
  Check(kept.size() == 2 && kept[0][0] == 10 && kept[1][0] == 30,
        "selected windows keep their samples");
  Check(SelectWindows(values, {7}).empty(), "out-of-range index ignored");
}

void TestPoissonScheduleIsSeededAndHasTheRate() {
  privrec::Rng a(42);
  privrec::Rng b(42);
  const std::vector<int64_t> x = PoissonArrivals(10000, 2.0, a);
  const std::vector<int64_t> y = PoissonArrivals(10000, 2.0, b);
  Check(x == y, "same seed, same schedule");
  // 20000 expected arrivals; Poisson sd ~141, so +-1000 is > 7 sd.
  Check(x.size() > 19000 && x.size() < 21000, "arrival count matches rate");
  bool sorted = true;
  for (size_t i = 1; i < x.size(); ++i) sorted &= x[i] >= x[i - 1];
  Check(sorted, "due times are non-decreasing");
  Check(!x.empty() && x.front() >= 0 && x.back() < 2'000'000'000,
        "due times lie inside the phase");
  // Mean gap ~ 1/rate = 100 us.
  const double mean_gap = static_cast<double>(x.back() - x.front()) /
                          static_cast<double>(x.size() - 1);
  Check(mean_gap > 95'000 && mean_gap < 105'000, "mean gap is 1/rate");

  privrec::Rng c(1);
  Check(PoissonArrivals(0, 1.0, c).empty(), "zero rate, no arrivals");
}

void TestLatencyIsTimedFromTheDueTime() {
  // Idle client, generator woke 3 ns late: lateness 3, latency from due.
  RequestTiming t = TimeRequest(/*due=*/100, /*start=*/103, /*end=*/150,
                                /*previous_end=*/90);
  Check(t.client_idle, "client that finished before due is idle");
  Check(t.generator_late_ns == 3, "idle client: lateness is start - due");
  Check(t.latency_ns == 50, "latency runs from due, not start");

  // Busy client: the request queued behind its predecessor. The wait is
  // latency, not generator lateness.
  t = TimeRequest(/*due=*/100, /*start=*/180, /*end=*/200,
                  /*previous_end=*/180);
  Check(!t.client_idle, "client still busy at due time");
  Check(t.generator_late_ns == 0, "queueing is not generator lateness");
  Check(t.latency_ns == 100, "queueing delay counts in latency");

  // Previous request ended exactly at due: idle, on time.
  t = TimeRequest(100, 100, 120, 100);
  Check(t.client_idle && t.generator_late_ns == 0 && t.latency_ns == 20,
        "boundary: ended at due");
}

void TestSelfTimeSubtractsTheUnionOfChildren() {
  std::vector<Span> spans;
  spans.push_back(Span{0, -1, 1, 0, 100});   // root, 100 long
  spans.push_back(Span{1, 0, 1, 10, 40});    // child [10, 40)
  spans.push_back(Span{1, 0, 1, 30, 60});    // overlaps the first: [10, 60)
  spans.push_back(Span{1, 0, 1, 90, 130});   // reaches past the root: [90, 100)
  spans.push_back(Span{2, 1, 1, 15, 20});    // grandchild, inside span 1
  const std::vector<int64_t> self = SelfTimes(spans);
  Check(self.size() == spans.size(), "one self time per span");
  Check(self[0] == 100 - 50 - 10, "root minus union of children");
  Check(self[1] == 30 - 5, "child minus its own child only");
  Check(self[2] == 30 && self[3] == 40 && self[4] == 5, "leaves keep all");

  // Nested children (one inside another) count once.
  std::vector<Span> nested = {Span{0, -1, 2, 0, 10}, Span{1, 0, 2, 2, 8},
                              Span{1, 0, 2, 3, 5}};
  Check(SelfTimes(nested)[0] == 4, "contained child is not double counted");

  // Spans of another request with a parent index out of range are ignored.
  std::vector<Span> orphan = {Span{0, -1, 3, 0, 10}, Span{1, 7, 3, 1, 2}};
  Check(SelfTimes(orphan)[0] == 10, "out-of-range parent ignored");
}

void TestMetricNames() {
  Check(IsValidMetricName("serve_p99_us"), "plain name");
  Check(IsValidMetricName("core.zero_resolve_us_p50"), "dotted name");
  Check(IsValidMetricName("9lives-x"), "digit start and dash");
  Check(!IsValidMetricName(""), "empty");
  Check(!IsValidMetricName(".hidden"), "must start alphanumeric");
  Check(!IsValidMetricName("_x"), "underscore start");
  Check(!IsValidMetricName("a b"), "space");
  Check(!IsValidMetricName("a/b"), "slash");
  Check(!IsValidMetricName("ünits"), "non-ascii");
  Check(IsValidMetricName(std::string(64, 'a')), "64 chars");
  Check(!IsValidMetricName(std::string(65, 'a')), "65 chars");

  MetricSet set;
  Check(set.Add("a.b", 1.5, "us", 10), "valid metric added");
  Check(!set.Add("a.b", 2.0, "us", 10), "duplicate refused");
  Check(!set.Add("bad name", 1.0, "us", 1), "invalid name refused");
  Check(!set.Add("nan", std::nan(""), "us", 1), "non-finite refused");
  Check(set.size() == 1, "only the valid metric kept");
  Check(set.ToJson() == "{\"a.b\": {\"value\": 1.5, \"unit\": \"us\"}}",
        "json shape");
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestSummarizeReportsPercentilesWithCounts();
  servebench::TestMedianOfWindowsIgnoresAMinorityOfBadWindows();
  servebench::TestQuietestWindowsRankByLatenessP99();
  servebench::TestPoissonScheduleIsSeededAndHasTheRate();
  servebench::TestLatencyIsTimedFromTheDueTime();
  servebench::TestSelfTimeSubtractsTheUnionOfChildren();
  servebench::TestMetricNames();
  if (servebench::g_failures > 0) {
    std::fprintf(stderr, "%d harness check(s) failed\n",
                 servebench::g_failures);
    return 1;
  }
  std::printf("harness tests passed\n");
  return 0;
}
