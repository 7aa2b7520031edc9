#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double host_steal_seconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0.0;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
                     softirq = 0, steal = 0;
  const int fields = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                                 &nice, &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(stat);
  const long ticks = sysconf(_SC_CLK_TCK);
  return fields == 8 && ticks > 0 ? static_cast<double>(steal) / static_cast<double>(ticks) : 0.0;
}

bool steal_free(double steal_seconds, double wall_seconds) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return steal_seconds <= kMaxStealShare * wall_seconds * static_cast<double>(cpus > 0 ? cpus : 1);
}

namespace {

/// Full-precision rendering of a finite double; JSON has no NaN/inf.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_metric_line(const char* kind, const std::string& name, const MetricValue& m) {
  std::printf("%s %-36s %16.6g %-8s (n=%llu)\n", kind, name.c_str(), m.value, m.unit.c_str(),
              static_cast<unsigned long long>(m.samples));
}

}  // namespace

void Report::end_to_end(const std::string& name, double value, const std::string& unit,
                        std::uint64_t samples, bool gated) {
  const MetricValue metric{value, unit, samples};
  print_metric_line(gated ? "e2e  " : "e2e* ", name, metric);
  if (gated) gated_[name] = metric;
}

void Report::layer(const std::string& name, double value, const std::string& unit,
                   std::uint64_t samples) {
  const MetricValue metric{value, unit, samples};
  print_metric_line("layer", name, metric);
  layers_[name] = metric;
}

void Report::note(const std::string& line) { std::printf("note  %s\n", line.c_str()); }

void Report::check(bool ok, const std::string& what) {
  std::printf("check %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    correct_ = false;
    ++failed_;
  }
}

void Report::error(const std::string& what) {
  std::printf("error %s\n", what.c_str());
  correct_ = false;
  ++failed_;
}

void Report::print_result(bool traced) const {
  const auto& metrics = traced ? layers_ : gated_;
  std::string line = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1)) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("failed %llu of %llu attempted\n", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t request) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  const std::int64_t parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back({name, request, parent, WallClock::now(), {}});
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end = WallClock::now();
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Record& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += seconds_between(span.start, span.end) * 1e3;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    self[span.name] += seconds_between(span.start, span.end) * 1e3 - child_ms[i];
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    out << "{\"span\":" << i << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
        << "\",\"request\":" << span.request
        << ",\"start_ns\":" << nanos_between(origin_, span.start)
        << ",\"end_ns\":" << nanos_between(origin_, span.end) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
