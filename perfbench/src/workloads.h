// The benchmark's workloads, their inputs, and the traced run's layer
// ladder. README.md in this directory records why each workload exists and
// which layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "core/run_spec.h"
#include "report.h"
#include "trace/synthetic.h"
#include "trace/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t paper_seed = 0;  // paper trace seed; defaults to `seed`
  std::uint64_t metro_seed = 0;  // metro trace seed; defaults to `seed`
  double seconds = 10.0;
  bool traced = false;
  std::string spans_out;  // traced runs write their spans here (JSONL)
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"metro-sharded", "daemon-open"};
  return names;
}

// ---- inputs ----------------------------------------------------------------

/// The paper trace: BU-calibrated, 575,775 requests, with the calibration
/// the paper benches use (Zipf 1.0, session repeats).
[[nodiscard]] eacache::SyntheticTraceConfig paper_trace_config(std::uint64_t seed);
/// The dense metro trace: 6,000 documents, 4,096 users, 500 req/s of
/// simulated arrivals.
[[nodiscard]] eacache::SyntheticTraceConfig metro_trace_config(std::uint64_t seed,
                                                               std::uint64_t requests);
inline constexpr std::uint64_t kMetroRequests = 240'000;

/// The paper's group: distributed ICP, LRU, equal budget shares.
[[nodiscard]] eacache::GroupConfig paper_group(std::size_t proxies, eacache::Bytes capacity,
                                               eacache::PlacementKind placement);
/// paper_group with the staged pipeline and the ABL-PIPE knobs.
[[nodiscard]] eacache::GroupConfig pipeline_group(eacache::Bytes capacity);
/// 1024 leaves in clusters of 16 under 64 mid caches under one root.
[[nodiscard]] eacache::GroupConfig metro_group();
/// 2-proxy flat EA group at 1 MiB, as the daemon runs it.
[[nodiscard]] eacache::GroupConfig daemon_group();

/// {AdHoc, EA} x paper_capacity_ladder(), classic driver.
[[nodiscard]] std::vector<eacache::RunSpec> paper_sweep_specs();

/// Synthesize `config` `reps` times; returns the trace and each rep's time.
struct SynthesizedTrace {
  eacache::Trace trace;
  std::vector<double> seconds;
};
[[nodiscard]] SynthesizedTrace synthesize(const eacache::SyntheticTraceConfig& config, int reps,
                                          Tracer& tracer);

// ---- workloads ---------------------------------------------------------------

/// Run one named workload: set-up, correctness gate, timed passes. Traced
/// runs also time the workload with spans on, then run the layer ladder.
void run_workload(const Options& options, Report& report);

/// The traced run's per-layer measurements (layers.cpp). `results` are the
/// workload's own results, for the counters read out of them.
void run_layer_ladder(const Options& options,
                      const std::vector<eacache::SimulationResult>& results, Report& report,
                      Tracer& tracer);

}  // namespace perfbench
