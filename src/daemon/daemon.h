// run_daemon: the daemon-mode counterpart of sim/simulator.h's
// run_simulation. Builds a DaemonGroup (N proxy worker threads over the
// in-memory wire), replays the trace through a LoadGen, and assembles the
// SAME RunResult schema the simulator produces — core/run_result_json.h
// serializes both, so plotting scripts and goldens consume either driver's
// output unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "core/run_spec.h"
#include "daemon/daemon_group.h"
#include "daemon/load_gen.h"
#include "daemon/telemetry.h"
#include "trace/trace.h"

namespace eacache {

/// Live telemetry plane knobs (DESIGN.md §13). The poller/exporters are
/// wall-clock-only (a smoke replay has no live wall time to poll on); the
/// flight recorder works in both modes — FaultPlan::flight_dumps instants
/// in smoke replay, admission-window saturation in wall-clock runs.
struct TelemetryOptions {
  /// Per-worker flight-recorder ring capacity (recent spans). 0 disables
  /// span recording entirely — the request hot path skips all span work.
  std::size_t flight_capacity = 0;
  /// StatsPoller tick period and per-tick worker-ack timeout.
  Duration stats_period = msec(1000);
  Duration sample_timeout = sec(5);
  /// Atomic-rename file exporter target; empty disables. `stats_format`
  /// selects the serialization: "json" or "prom".
  std::string stats_out;
  std::string stats_format = "json";
  /// Loopback HTTP endpoint (/metrics, /stats.json). Negative disables;
  /// 0 binds an ephemeral port, reported through `bound_port`.
  int stats_port = -1;
  /// Where flight-recorder dumps land (truncating); empty disables the
  /// dump triggers even when the ring is recording.
  std::string flight_out;
  /// Per-tick observer, called from the poller thread after the file
  /// export (stderr one-liners live here).
  std::function<void(const TelemetrySnapshot&)> on_sample;
  /// When non-null, receives the HTTP endpoint's actual port once bound.
  std::uint16_t* bound_port = nullptr;

  /// Any consumer of live snapshots configured?
  [[nodiscard]] bool poller_enabled() const {
    return !stats_out.empty() || stats_port >= 0 || static_cast<bool>(on_sample);
  }
};

struct DaemonOptions {
  DaemonMode mode = DaemonMode::kSmokeReplay;
  LoadGenOptions load;
  TelemetryOptions telemetry;
};

/// Every rule a daemon run would violate, aggregated in a stable order:
/// `RunSpec::validate(RunTarget::kDaemon)` first (the one validation entry
/// point — group rules plus the per-run knobs a daemon cannot carry), then
/// the option rules (zero-rate or non-positive pacing, wall-clock
/// FaultPlans, outage injection, non-positive drain timeout). The fault
/// plan is `spec.faults`: only flushes and flight-dump instants, and only
/// in smoke replay (its timestamps are trace instants). Empty means
/// runnable.
[[nodiscard]] std::vector<std::string> validate_daemon_run(const RunSpec& spec,
                                                           const DaemonOptions& options);

/// Throwing wrapper over validate_daemon_run (std::invalid_argument with
/// every violation "; "-joined), mirroring RunSpec::validate_or_throw.
void validate_daemon_run_or_throw(const RunSpec& spec, const DaemonOptions& options);

/// Run `trace` through a fresh daemon group built from `spec.group`, with
/// `spec.faults` as the fault plan. The trace must be time-ordered. When
/// `report` is non-null it receives the load generator's submission/
/// completion accounting; when `timings` is non-null it receives the
/// wall-clock phase split (drive vs report).
[[nodiscard]] RunResult run_daemon(const Trace& trace, const RunSpec& spec,
                                   const DaemonOptions& options = {},
                                   LoadGenReport* report = nullptr,
                                   PhaseTimings* timings = nullptr);

/// Streaming counterpart: requests are pulled from `source` one at a time
/// (the first pull anchors the clocks), so a workload-DSL soak never
/// materializes its trace — memory stays bounded by the generator's
/// universe at any request count. Identical semantics otherwise; a
/// materialized Trace through the overload above takes this same path via
/// VectorTraceSource, and the smoke-replay equality between the two is a
/// ctest (DaemonWorkloadTest).
[[nodiscard]] RunResult run_daemon(TraceSource& source, const RunSpec& spec,
                                   const DaemonOptions& options = {},
                                   LoadGenReport* report = nullptr,
                                   PhaseTimings* timings = nullptr);

}  // namespace eacache
