// Sharded engine contracts (sim/shard_engine.h):
//  * the headline determinism guarantee — result JSON byte-identical for
//    shards=1 and shards={2,4,8}, EA and ad-hoc placement, flat and
//    three-level hierarchical topologies;
//  * quiet stretches and the end of a run: a long gap between bursts, a
//    trace homed on one shard and a 2-request trace stay invariant too;
//  * request conservation (every trace request lands in GroupMetrics);
//  * the RunSpec validation rules that fence off the unsupported subset.
#include "sim/shard_engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/run_result_json.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace eacache {
namespace {

// Dense short-span trace: ~3k requests inside one simulated minute keeps
// the conservative-window count (span / 20 ms) in the thousands, so the
// 1-vs-N sweep stays fast while every protocol path still fires.
Trace dense_trace(std::uint64_t seed = 7) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_requests = 3000;
  config.num_documents = 400;
  config.num_users = 64;
  config.span = minutes(1);
  return generate_synthetic_trace(config);
}

GroupConfig flat_group(PlacementKind placement) {
  GroupConfig config;
  config.num_proxies = 8;
  config.aggregate_capacity = 2 * kMiB;
  config.placement = placement;
  return config;
}

// Three-level tree: 16 leaves under 4 mid caches under one root — the
// parent chain crosses shard boundaries at every cut the partitioner makes.
GroupConfig hierarchical_group(PlacementKind placement) {
  GroupConfig config;
  std::vector<std::optional<ProxyId>> parents(21);
  for (ProxyId leaf = 0; leaf < 16; ++leaf) parents[leaf] = static_cast<ProxyId>(16 + leaf / 4);
  for (ProxyId mid = 16; mid < 20; ++mid) parents[mid] = 20;
  parents[20] = std::nullopt;
  config.topology = TopologyKind::kHierarchical;
  config.custom_parents = std::move(parents);
  config.aggregate_capacity = 4 * kMiB;
  config.placement = placement;
  return config;
}

RunSpec sharded_spec(GroupConfig group, std::size_t shards) {
  RunSpec spec;
  spec.group = std::move(group);
  spec.exec.shards = shards;
  return spec;
}

/// The determinism pin: identical result JSON for every shard count.
void expect_shard_count_invariant(const GroupConfig& group, const Trace& trace) {
  const std::string baseline =
      simulation_result_to_json(run_sharded_simulation(trace, sharded_spec(group, 1)));
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const std::string json =
        simulation_result_to_json(run_sharded_simulation(trace, sharded_spec(group, shards)));
    EXPECT_EQ(json, baseline) << "shards=" << shards << " diverged from shards=1";
  }
}

TEST(ShardEngineTest, FlatEaResultIsShardCountInvariant) {
  expect_shard_count_invariant(flat_group(PlacementKind::kEa), dense_trace());
}

TEST(ShardEngineTest, FlatAdHocResultIsShardCountInvariant) {
  expect_shard_count_invariant(flat_group(PlacementKind::kAdHoc), dense_trace());
}

TEST(ShardEngineTest, HierarchicalEaResultIsShardCountInvariant) {
  expect_shard_count_invariant(hierarchical_group(PlacementKind::kEa), dense_trace(11));
}

TEST(ShardEngineTest, HierarchicalAdHocResultIsShardCountInvariant) {
  expect_shard_count_invariant(hierarchical_group(PlacementKind::kAdHoc), dense_trace(11));
}

// The quiet-stretch and end-of-run cases run on both groups: the flat one
// links every shard to every other, the tree links leaf blocks only
// through the root's shard.
std::vector<GroupConfig> both_groups() {
  return {flat_group(PlacementKind::kEa), hierarchical_group(PlacementKind::kEa)};
}

TEST(ShardEngineTest, BurstsAnHourApartAreShardCountInvariant) {
  // Idle shards must cross the gap in one jump, not one lag at a time, and
  // the second burst must find every shard's clock where the first left it.
  Trace trace = dense_trace();
  for (std::size_t i = trace.size() / 2; i < trace.size(); ++i) trace.requests[i].at += hours(1);
  for (const GroupConfig& group : both_groups()) expect_shard_count_invariant(group, trace);
}

TEST(ShardEngineTest, TraceHomedOnOneShardIsShardCountInvariant) {
  // Every admission lands on shard 0: the other shards only ever answer.
  for (const GroupConfig& group : both_groups()) {
    const Topology topology = topology_from(group);
    const ProxyId home = topology.client_facing().front();
    Trace trace;
    for (const Request& request : dense_trace().requests) {
      if (home_proxy_in(topology, request.user) == home) trace.requests.push_back(request);
    }
    ASSERT_GT(trace.size(), 10u);
    expect_shard_count_invariant(group, trace);
  }
}

TEST(ShardEngineTest, TwoRequestTraceIsShardCountInvariant) {
  Trace trace = dense_trace();
  trace.requests.resize(2);
  for (const GroupConfig& group : both_groups()) {
    expect_shard_count_invariant(group, trace);
    EXPECT_EQ(run_sharded_simulation(trace, sharded_spec(group, 4)).metrics.total_requests(), 2u);
  }
}

TEST(ShardEngineTest, WideFanOutIsShardCountInvariant) {
  // 70 peers: on one shard a home's 69 answers need two reply bundles (64
  // answers each at most); split over 2+ shards every bundle fits in one.
  GroupConfig group = flat_group(PlacementKind::kEa);
  group.num_proxies = 70;
  group.aggregate_capacity = 8 * kMiB;
  Trace trace = dense_trace();
  trace.requests.resize(600);
  expect_shard_count_invariant(group, trace);
}

TEST(ShardEngineTest, EveryTraceRequestIsAccounted) {
  const Trace trace = dense_trace();
  const SimulationResult result =
      run_sharded_simulation(trace, sharded_spec(flat_group(PlacementKind::kEa), 4));
  EXPECT_EQ(result.metrics.total_requests(), trace.requests.size());
  EXPECT_EQ(result.proxy_stats.size(), 8u);
}

TEST(ShardEngineTest, RunDispatcherRoutesShardedSpecs) {
  // sim/simulator.h run() must hand sharded specs to this engine: same
  // JSON as calling the engine directly.
  const Trace trace = dense_trace();
  const RunSpec spec = sharded_spec(flat_group(PlacementKind::kEa), 2);
  EXPECT_EQ(simulation_result_to_json(run(trace, spec)),
            simulation_result_to_json(run_sharded_simulation(trace, spec)));
}

TEST(ShardEngineTest, RejectsUnshardedSpec) {
  const Trace trace = dense_trace();
  EXPECT_THROW(
      (void)run_sharded_simulation(trace, sharded_spec(flat_group(PlacementKind::kEa), 0)),
      std::invalid_argument);
}

TEST(ShardEngineValidationTest, FencesOffTheUnsupportedSubset) {
  const auto violates = [](RunSpec spec) { return !spec.validate(RunTarget::kSimulation).empty(); };

  RunSpec loss = sharded_spec(flat_group(PlacementKind::kEa), 2);
  loss.group.icp_loss_probability = 0.25;
  EXPECT_TRUE(violates(loss)) << "seeded ICP loss draw is queue-order dependent";

  RunSpec pipeline = sharded_spec(flat_group(PlacementKind::kEa), 2);
  pipeline.group.pipeline.event_driven = true;
  EXPECT_TRUE(violates(pipeline)) << "the sharded engine is its own driver";

  RunSpec invariants = sharded_spec(flat_group(PlacementKind::kEa), 2);
  invariants.check_invariants = true;
  EXPECT_TRUE(violates(invariants));

  RunSpec snapshots = sharded_spec(flat_group(PlacementKind::kEa), 2);
  snapshots.snapshot_period = sec(10);
  EXPECT_TRUE(violates(snapshots));

  RunSpec spans = sharded_spec(flat_group(PlacementKind::kEa), 2);
  spans.group.obs.trace_capacity = 128;
  EXPECT_TRUE(violates(spans));

  // The override window must stay within the inter-proxy message floor —
  // wider would deliver a message inside the window that sent it.
  RunSpec wide = sharded_spec(flat_group(PlacementKind::kEa), 2);
  wide.exec.lookahead_override = default_lookahead(wide.group.latency) + msec(1);
  EXPECT_TRUE(violates(wide));

  RunSpec narrow = sharded_spec(flat_group(PlacementKind::kEa), 2);
  narrow.exec.lookahead_override = default_lookahead(narrow.group.latency);
  EXPECT_FALSE(violates(narrow)) << "the floor itself is a legal window";

  // An unsharded spec must not accept a lookahead override.
  RunSpec classic;
  classic.group = flat_group(PlacementKind::kEa);
  classic.exec.lookahead_override = msec(5);
  EXPECT_TRUE(violates(classic));
}

TEST(ShardEngineTest, NarrowedLookaheadPreservesTheResult) {
  // Any legal window width must give the same answer: the window is a
  // scheduling artifact, not a semantic knob.
  const Trace trace = dense_trace();
  const GroupConfig group = flat_group(PlacementKind::kEa);
  const std::string baseline =
      simulation_result_to_json(run_sharded_simulation(trace, sharded_spec(group, 4)));
  RunSpec narrowed = sharded_spec(group, 4);
  narrowed.exec.lookahead_override = msec(7);
  EXPECT_EQ(simulation_result_to_json(run_sharded_simulation(trace, narrowed)), baseline);
}

}  // namespace
}  // namespace eacache
