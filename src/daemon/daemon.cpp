#include "daemon/daemon.h"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/wall_timer.h"

namespace eacache {

namespace {

/// The rules a RunSpec alone cannot judge: pacing, telemetry and which
/// faults the chosen mode can honour.
void append_option_rules(const FaultPlan& faults, const DaemonOptions& options,
                         std::vector<std::string>& errors) {
  const auto fail = [&errors](std::string message) { errors.push_back(std::move(message)); };

  if (options.mode == DaemonMode::kWallClock) {
    if (options.load.pacing == PacingMode::kTraceSpeedup &&
        !(options.load.speedup > 0.0 && std::isfinite(options.load.speedup))) {
      fail("load.speedup must be positive and finite (zero-rate load never "
           "submits a request)");
    }
    if (options.load.pacing == PacingMode::kFixedRate &&
        !(options.load.requests_per_second > 0.0 &&
          std::isfinite(options.load.requests_per_second))) {
      fail("load.requests_per_second must be positive and finite under "
           "kFixedRate pacing (zero-rate load never submits a request)");
    }
    if (!faults.empty()) {
      fail("wall-clock daemon runs cannot honour a FaultPlan: its timestamps "
           "are simulated trace instants, not wall instants");
    }
    if (options.load.max_in_flight == 0) {
      fail("load.max_in_flight must be >= 1 (a zero admission window never "
           "submits a request)");
    }
  }
  if (!faults.outages.empty()) {
    fail("peer outages are simulator-only fault injection (the daemon's "
         "in-memory wire has no loss hook); only flushes are supported");
  }
  if (options.load.drain_timeout <= Duration::zero()) {
    fail("load.drain_timeout must be positive");
  }

  const TelemetryOptions& telemetry = options.telemetry;
  if (telemetry.poller_enabled()) {
    if (options.mode == DaemonMode::kSmokeReplay) {
      fail("live stats export (stats_out / stats_port / on_sample) needs "
           "wall-clock mode: a smoke replay has no wall time to poll on");
    }
    if (telemetry.stats_period <= Duration::zero()) {
      fail("telemetry.stats_period must be positive");
    }
    if (telemetry.sample_timeout <= Duration::zero()) {
      fail("telemetry.sample_timeout must be positive");
    }
  }
  if (telemetry.stats_port > 65535) {
    fail("telemetry.stats_port must fit a TCP port (<= 65535)");
  }
  if (telemetry.stats_format != "json" && telemetry.stats_format != "prom") {
    fail("telemetry.stats_format must be \"json\" or \"prom\"");
  }
  if (!telemetry.flight_out.empty() && telemetry.flight_capacity == 0) {
    fail("telemetry.flight_out needs telemetry.flight_capacity > 0 (an empty "
         "ring would dump nothing)");
  }
  if (!faults.flight_dumps.empty() && telemetry.flight_out.empty()) {
    fail("FaultPlan flight_dumps need telemetry.flight_out (and a non-zero "
         "flight_capacity) to land anywhere");
  }
}

[[noreturn]] void throw_daemon_errors(const std::vector<std::string>& errors) {
  std::string message = "invalid daemon run: ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) message += "; ";
    message += errors[i];
  }
  throw std::invalid_argument(message);
}

}  // namespace

std::vector<std::string> validate_daemon_run(const RunSpec& spec, const DaemonOptions& options) {
  std::vector<std::string> errors = spec.validate(RunTarget::kDaemon);
  append_option_rules(spec.faults, options, errors);
  return errors;
}

void validate_daemon_run_or_throw(const RunSpec& spec, const DaemonOptions& options) {
  const std::vector<std::string> errors = validate_daemon_run(spec, options);
  if (!errors.empty()) throw_daemon_errors(errors);
}

namespace {

/// Buffers the first pull of a source so run_daemon can anchor its clocks
/// at the stream's first timestamp without materializing anything; reset()
/// re-peeks so the contract's replay clause survives the wrapper.
class PeekedSource final : public TraceSource {
 public:
  explicit PeekedSource(TraceSource& inner) : inner_(inner) { peek(); }

  [[nodiscard]] TimePoint start() const { return head_ ? head_->at : kSimEpoch; }

  bool next(Request& out) override {
    if (head_) {
      out = *head_;
      head_.reset();
      return true;
    }
    return inner_.next(out);
  }

  void reset() override {
    inner_.reset();
    peek();
  }

 private:
  void peek() {
    Request first;
    head_.reset();
    if (inner_.next(first)) head_ = first;
  }

  TraceSource& inner_;
  std::optional<Request> head_;
};

/// The shared drive: everything after validation + clock anchoring. Both
/// run_daemon overloads funnel here (the Trace one through
/// VectorTraceSource, so materialized and streamed runs are the same code
/// path end to end).
RunResult drive_daemon(TraceSource& source, TimePoint trace_start, const RunSpec& spec,
                       const DaemonOptions& options, LoadGenReport* report,
                       PhaseTimings* timings) {
  const WallTimer drive_timer;

  // The clock seam: manual time pinned to trace stamps for deterministic
  // smoke replay, a steady clock anchored at the trace start for live runs.
  FakeClock fake(trace_start);
  SteadyClock steady(trace_start);
  const bool smoke = options.mode == DaemonMode::kSmokeReplay;
  Clock& clock = smoke ? static_cast<Clock&>(fake) : static_cast<Clock&>(steady);

  DaemonGroup group(spec.group, clock, options.mode, options.telemetry.flight_capacity);
  group.start();

  // Telemetry plane: poller + exporters (wall-clock only, validated above)
  // and the flight-dump trigger, torn down before group.stop() so nothing
  // samples a stopped group.
  const TelemetryOptions& telemetry = options.telemetry;
  std::unique_ptr<StatsPoller> poller;
  std::unique_ptr<StatsHttpServer> server;
  if (telemetry.poller_enabled()) {
    StatsPoller::Options poll_options;
    poll_options.period = telemetry.stats_period;
    poll_options.sample_timeout = telemetry.sample_timeout;
    poll_options.on_sample = [&telemetry](const TelemetrySnapshot& snapshot) {
      if (!telemetry.stats_out.empty()) {
        write_stats_file(telemetry.stats_out, snapshot, telemetry.stats_format);
      }
      if (telemetry.on_sample) telemetry.on_sample(snapshot);
    };
    poller = std::make_unique<StatsPoller>(group, poll_options);
    // Bind + publish the port BEFORE the first poll tick so an on_sample
    // observer announcing the endpoint never reads it half-initialized.
    if (telemetry.stats_port >= 0) {
      server = std::make_unique<StatsHttpServer>(
          StatsHttpHandler(*poller), static_cast<std::uint16_t>(telemetry.stats_port));
      server->start();
      if (telemetry.bound_port != nullptr) *telemetry.bound_port = server->bound_port();
    }
    poller->start();
  }

  LoadGenOptions load = options.load;
  if (!telemetry.flight_out.empty()) {
    load.on_flight_dump = [&group, &poller, &telemetry] {
      dump_flight_recording(group, poller.get(), telemetry.flight_out);
    };
  }

  LoadGen gen(group, clock, smoke ? &fake : nullptr, options.mode, load, spec.faults);
  const LoadGenReport gen_report = gen.replay(source);
  if (server) server->stop();
  if (poller) poller->stop();
  group.stop();
  if (report != nullptr) *report = gen_report;
  if (timings != nullptr) timings->sim_ms = drive_timer.elapsed_ms();

  const WallTimer report_timer;
  RunResult result = group.collect_result();
  if (timings != nullptr) timings->report_ms = report_timer.elapsed_ms();
  return result;
}

}  // namespace

RunResult run_daemon(const Trace& trace, const RunSpec& spec, const DaemonOptions& options,
                     LoadGenReport* report, PhaseTimings* timings) {
  validate_daemon_run_or_throw(spec, options);
  if (!is_time_ordered(trace.requests)) {
    throw std::invalid_argument("run_daemon: trace must be time-ordered");
  }
  const TimePoint trace_start = trace.empty() ? kSimEpoch : trace.requests.front().at;
  VectorTraceSource source(trace);
  return drive_daemon(source, trace_start, spec, options, report, timings);
}

RunResult run_daemon(TraceSource& source, const RunSpec& spec,
                     const DaemonOptions& options, LoadGenReport* report,
                     PhaseTimings* timings) {
  validate_daemon_run_or_throw(spec, options);
  PeekedSource peeked(source);
  return drive_daemon(peeked, peeked.start(), spec, options, report, timings);
}

}  // namespace eacache
