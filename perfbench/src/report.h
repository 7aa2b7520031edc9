// Measurement plumbing shared by every workload: order statistics, the
// run's metric report (human-readable lines plus the final JSON line), and
// the in-memory span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(WallClock::time_point from,
                                            WallClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline std::int64_t nanos_between(WallClock::time_point from,
                                                WallClock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// CPU time the hypervisor has taken from this machine since boot (the
/// steal column of /proc/stat), in seconds; 0 where it is not reported.
[[nodiscard]] double host_steal_seconds();

/// A timed sample is kept only if the hypervisor stole at most this share
/// of the machine's CPU time while it ran: otherwise it measured the host,
/// not the program. Quiet stretches on the reference VM steal under 1%.
inline constexpr double kMaxStealShare = 0.05;
[[nodiscard]] bool steal_free(double steal_seconds, double wall_seconds);

struct MetricValue {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Everything one invocation reports. Metrics are printed as readable lines
/// as they arrive; print_result() emits the single JSON line the contract
/// requires, restricted to the gated set for the requested mode.
class Report {
 public:
  /// An end-to-end metric. `gated` ones go into the JSON line of an
  /// untraced run; the others are only printed.
  void end_to_end(const std::string& name, double value, const std::string& unit,
                  std::uint64_t samples, bool gated = true);
  /// A per-layer metric (JSON line of a traced run).
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples);
  void note(const std::string& line);

  /// Record an output check; a failed check counts as one failure.
  void check(bool ok, const std::string& what);
  /// A run that threw: one failure, with the reason.
  void error(const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return correct_; }

  /// Print the contract's JSON object as the last line of stdout.
  void print_result(bool traced) const;

 private:
  std::map<std::string, MetricValue> gated_;
  std::map<std::string, MetricValue> layers_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder. A span covers one call the benchmark makes into
/// a layer: name, start, end, parent and the id of the request (or pass) it
/// belongs to. Disabled recorders cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened on construction under the innermost open span.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  /// Self time per span name in milliseconds: each span's duration minus
  /// the part of it its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::uint64_t request;
    std::int64_t parent;
    WallClock::time_point start;
    WallClock::time_point end;
  };

  bool enabled_;
  WallClock::time_point origin_ = WallClock::now();
  std::vector<Record> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
