// The extraction proof: the multi-threaded daemon, replaying a trace in
// closed-loop smoke mode over the in-memory wire, produces a RunResult that
// serializes BYTE-IDENTICALLY to the classic simulator on the same workload
// — flat, 2-level and 3-level groups alike — so the ProxyNode core behaves
// like CacheGroup::serve whether an event loop or worker threads drive it.
// Wall-clock mode (real concurrency, nothing pinned) is held to the
// paper-level acceptance bound instead: EA hit rate within two points of
// the simulated run.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/run_result_json.h"
#include "daemon/daemon.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace eacache {
namespace {

Trace workload(std::uint64_t requests, std::uint64_t seed) {
  SyntheticTraceConfig config;
  config.num_requests = requests;
  config.num_documents = requests / 8;
  config.num_users = 32;
  config.span = hours(6);
  config.seed = seed;
  return generate_synthetic_trace(config);
}

enum class Shape { kFlat, kTwoLevel, kThreeLevel };

const char* to_string(Shape shape) {
  switch (shape) {
    case Shape::kFlat: return "flat";
    case Shape::kTwoLevel: return "2-level";
    case Shape::kThreeLevel: return "3-level";
  }
  return "?";
}

RunSpec daemon_comparable_spec(PlacementKind placement, Shape shape = Shape::kFlat) {
  RunSpec spec;
  GroupConfig& config = spec.group;
  config.num_proxies = 4;
  config.aggregate_capacity = 2 * kMiB;
  config.placement = placement;
  // The simulator samples a mid-run per-proxy time series on the event
  // queue; the daemon has no mid-run sampling hook, so comparisons switch
  // the series off on both sides.
  config.obs.series_points = 0;
  if (shape == Shape::kTwoLevel) config.topology = TopologyKind::kHierarchical;
  if (shape == Shape::kThreeLevel) {
    // 8 leaves under 2 mid caches under one root.
    std::vector<std::optional<ProxyId>> parents(11);
    for (ProxyId leaf = 0; leaf < 8; ++leaf) parents[leaf] = static_cast<ProxyId>(8 + leaf / 4);
    parents[8] = parents[9] = ProxyId{10};
    config.topology = TopologyKind::kHierarchical;
    config.custom_parents = std::move(parents);
  }
  return spec;
}

TEST(DaemonVsSimTest, SmokeReplayIsByteIdenticalToSimulator) {
  const Trace trace = workload(20'000, 71);
  for (const Shape shape : {Shape::kFlat, Shape::kTwoLevel, Shape::kThreeLevel}) {
    for (const PlacementKind placement : {PlacementKind::kAdHoc, PlacementKind::kEa}) {
      const RunSpec spec = daemon_comparable_spec(placement, shape);
      const std::string simulated = simulation_result_to_json(run(trace, spec));

      LoadGenReport report;
      const std::string live =
          run_result_to_json(run_daemon(trace, spec, DaemonOptions{}, &report));

      EXPECT_EQ(report.submitted, trace.size());
      EXPECT_EQ(report.completed, trace.size());
      EXPECT_EQ(simulated, live) << to_string(shape) << ", placement " << to_string(placement);
    }
  }
}

TEST(DaemonVsSimTest, SmokeReplayMatchesUnderFlushInjection) {
  const Trace trace = workload(10'000, 72);
  RunSpec spec = daemon_comparable_spec(PlacementKind::kEa);
  spec.faults.flushes.push_back({trace.requests[trace.size() / 2].at, 1});

  const std::string simulated = simulation_result_to_json(run(trace, spec));
  LoadGenReport report;
  const std::string live = run_result_to_json(run_daemon(trace, spec, DaemonOptions{}, &report));

  EXPECT_EQ(report.flushes_injected, 1u);
  EXPECT_EQ(simulated, live);
}

TEST(DaemonVsSimTest, WallClockHitRateWithinTwoPointsOfSimulation) {
  const Trace trace = workload(30'000, 73);
  const RunSpec spec = daemon_comparable_spec(PlacementKind::kEa);

  const RunResult simulated = run(trace, spec);

  DaemonOptions options;
  options.mode = DaemonMode::kWallClock;
  // Compress the six-hour trace span aggressively so the test stays fast;
  // the EA contention window is victim-count based (WindowConfig default),
  // so uniform time compression preserves placement comparisons.
  options.load.speedup = 6.0 * 3600.0 * 50.0;  // whole span in ~20 ms
  LoadGenReport report;
  const RunResult live = run_daemon(trace, spec, options, &report);

  EXPECT_EQ(report.submitted, trace.size());
  EXPECT_EQ(report.completed, trace.size()) << "wall-clock run left stragglers";
  EXPECT_EQ(live.metrics.total_requests(), trace.size());
  EXPECT_LT(std::abs(live.metrics.hit_rate() - simulated.metrics.hit_rate()), 0.02)
      << "daemon " << live.metrics.hit_rate() << " vs sim " << simulated.metrics.hit_rate();
  // Conservation: every request resolves to exactly one outcome class.
  EXPECT_EQ(live.metrics.count(RequestOutcome::kLocalHit) +
                live.metrics.count(RequestOutcome::kRemoteHit) +
                live.metrics.count(RequestOutcome::kMiss),
            trace.size());
}

TEST(DaemonVsSimTest, FixedRatePacingCompletesEveryRequest) {
  const Trace trace = workload(2'000, 74);
  const RunSpec spec = daemon_comparable_spec(PlacementKind::kEa);

  DaemonOptions options;
  options.mode = DaemonMode::kWallClock;
  options.load.pacing = PacingMode::kFixedRate;
  options.load.requests_per_second = 200'000.0;
  LoadGenReport report;
  const RunResult live = run_daemon(trace, spec, options, &report);

  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(live.metrics.total_requests(), trace.size());
}

}  // namespace
}  // namespace eacache
