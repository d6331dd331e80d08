#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace servebench {

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = PercentileOfSorted(values, 50);
  summary.p90 = PercentileOfSorted(values, 90);
  summary.p99 = PercentileOfSorted(values, 99);
  return summary;
}

Summary MedianOfWindows(const std::vector<std::vector<double>>& windows) {
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  Summary summary;
  for (const std::vector<double>& window : windows) {
    if (window.empty()) continue;
    const Summary s = Summarize(window);
    p50s.push_back(s.p50);
    p90s.push_back(s.p90);
    p99s.push_back(s.p99);
    summary.count += s.count;
  }
  summary.p50 = Summarize(std::move(p50s)).p50;
  summary.p90 = Summarize(std::move(p90s)).p50;
  summary.p99 = Summarize(std::move(p99s)).p50;
  return summary;
}

std::vector<size_t> QuietestWindows(
    const std::vector<std::vector<double>>& lateness, double keep_share) {
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t w = 0; w < lateness.size(); ++w) {
    ranked.emplace_back(Summarize(lateness[w]).p99, w);
  }
  if (ranked.empty()) return {};
  const size_t keep = std::clamp<size_t>(
      static_cast<size_t>(
          std::ceil(keep_share * static_cast<double>(ranked.size()) - 1e-9)),
      1, ranked.size());
  std::sort(ranked.begin(), ranked.end());
  std::vector<size_t> quiet;
  for (size_t i = 0; i < keep; ++i) {
    quiet.push_back(ranked[i].second);
  }
  std::sort(quiet.begin(), quiet.end());
  return quiet;
}

std::vector<std::vector<double>> SelectWindows(
    const std::vector<std::vector<double>>& windows,
    const std::vector<size_t>& keep) {
  std::vector<std::vector<double>> selected;
  for (size_t w : keep) {
    if (w < windows.size()) selected.push_back(windows[w]);
  }
  return selected;
}

std::vector<int64_t> PoissonArrivals(double rate_per_s, double seconds,
                                     privrec::Rng& rng) {
  std::vector<int64_t> due;
  if (rate_per_s <= 0 || seconds <= 0) return due;
  due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  const double mean_gap_ns = 1e9 / rate_per_s;
  const double end_ns = seconds * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log(rng.NextDoublePositive()) * mean_gap_ns;
    if (t >= end_ns) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

RequestTiming TimeRequest(int64_t due_ns, int64_t start_ns, int64_t end_ns,
                          int64_t previous_end_ns) {
  RequestTiming timing;
  timing.latency_ns = end_ns - due_ns;
  timing.client_idle = previous_end_ns <= due_ns;
  if (timing.client_idle) {
    timing.generator_late_ns = std::max<int64_t>(0, start_ns - due_ns);
  }
  return timing;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, lo);
      end = std::min(end, hi);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  if (!IsValidMetricName(name) || !std::isfinite(value)) return false;
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return false;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
  return true;
}

std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           FormatDouble(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string MetricSet::ToTable() const {
  std::string out;
  for (const Metric& metric : metrics_) {
    char buf[200];
    std::snprintf(buf, sizeof(buf), "  %-36s %16.6g %-6s n=%zu\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  metric.samples);
    out += buf;
  }
  return out;
}

}  // namespace servebench
