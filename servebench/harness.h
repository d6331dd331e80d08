#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

// Workload-independent pieces of the serve-path benchmark: percentile
// summaries, the open-loop arrival schedule and its lateness accounting,
// span self time, and the metric sink that prints the result line. Kept
// apart from servebench.cc so harness_test.cc can check them on their own.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "random/rng.h"

namespace servebench {

/// Median, p90 and p99 of a sample, with the sample count the percentiles rest
/// on. Percentiles interpolate linearly between order statistics (the
/// convention of privrec::Percentile); an empty sample reads 0 with
/// count 0.
struct Summary {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  size_t count = 0;
};

Summary Summarize(std::vector<double> values);

/// Summary of a sample split into time windows: the median over the
/// non-empty windows of each window's percentiles, so a stall that hits a
/// minority of windows does not decide the result. `count` is the total
/// sample size.
Summary MedianOfWindows(const std::vector<std::vector<double>>& windows);

/// Indices, ascending, of the ceil(`keep_share` x n) windows (at least one)
/// whose generator lateness p99 is lowest, ties to the earlier window.
/// `lateness` holds each window's lateness samples. Lateness is only
/// sampled while a client sits idle, so it measures the host (a
/// descheduled or stolen CPU), not the code under test; the windows it
/// selects are the ones the host disturbed least.
std::vector<size_t> QuietestWindows(
    const std::vector<std::vector<double>>& lateness, double keep_share);

/// The windows listed in `keep`, in that order.
std::vector<std::vector<double>> SelectWindows(
    const std::vector<std::vector<double>>& windows,
    const std::vector<size_t>& keep);

/// p-th percentile (p in [0, 100]) of an ascending-sorted sample.
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Due times, in nanoseconds after the phase start, of a Poisson arrival
/// process with `rate_per_s` arrivals per second, cut at `seconds`.
/// Exponential gaps drawn from `rng`, so the same seed gives the same
/// schedule.
std::vector<int64_t> PoissonArrivals(double rate_per_s, double seconds,
                                     privrec::Rng& rng);

/// Open-loop timing of one request. Every request is timed from when it
/// was due, so a stall also charges the requests queued behind it. The
/// generator ran late only when the client sat idle at the due time and
/// still started after it: that gap is the wake-up error of the
/// generator, not queueing.
struct RequestTiming {
  int64_t latency_ns = 0;
  /// True when the previous request of this client ended by `due`.
  bool client_idle = false;
  /// start - due when client_idle, else 0.
  int64_t generator_late_ns = 0;
};

RequestTiming TimeRequest(int64_t due_ns, int64_t start_ns, int64_t end_ns,
                          int64_t previous_end_ns);

/// One traced interval. `parent` indexes the span vector the span lives
/// in (-1 for a root); spans of one request share `request`.
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap one
/// another or reach outside the parent; only the covered part of the
/// parent's interval is subtracted.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// A metric name the result line accepts: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool IsValidMetricName(std::string_view name);

/// Ordered set of named metrics. Add() refuses (returns false) a name
/// that is invalid, already present, or a value that is not finite.
class MetricSet {
 public:
  bool Add(const std::string& name, double value, const std::string& unit,
           size_t samples);

  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string ToJson() const;

  /// One line per metric: name, value, unit and sample count.
  std::string ToTable() const;

  size_t size() const { return metrics_.size(); }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Metric> metrics_;
};

/// Formats a double with enough digits to round-trip.
std::string FormatDouble(double value);

/// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(std::string_view text);

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
