// Legacy-result pinning for the request-pipeline redesign.
//
// These tests replay a fixed synthetic trace through every major
// configuration axis and compare the FULL result JSON byte-for-byte against
// goldens generated from the pre-pipeline synchronous CacheGroup::serve().
// They are the enforcement behind the redesign's compatibility contract:
// with the pipeline's concurrency effects disabled (the default —
// event_driven off, retries off, coalescing off), the staged request
// machine must reproduce the legacy figures exactly.
//
// The sharded_* goldens pin the sharded engine (ExecutionPolicy::shards >= 1)
// the same way. Its hop delays let requests overlap in flight, so its
// results differ from the classic driver's; these hold that message
// schedule fixed.
//
// Regenerate (only when a change is MEANT to alter legacy results):
//   EACACHE_UPDATE_GOLDEN=1 ./test_sim --gtest_filter='PipelineRegression*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "group/cache_group.h"
#include "sim/result_json.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

#ifndef EACACHE_GOLDEN_DIR
#error "EACACHE_GOLDEN_DIR must point at tests/golden"
#endif

namespace eacache {
namespace {

const Trace& regression_trace() {
  static const Trace trace = [] {
    SyntheticTraceConfig config;
    config.num_requests = 6000;
    config.num_documents = 900;
    config.num_users = 32;
    config.span = hours(6);
    config.seed = 424242;
    return generate_synthetic_trace(config);
  }();
  return trace;
}

GroupConfig base_config() {
  GroupConfig config;
  config.num_proxies = 4;
  config.aggregate_capacity = 1 * kMiB;
  config.placement = PlacementKind::kEa;
  return config;
}

// Dense short-span trace (shard_engine_test.cpp's): ~3k requests in one
// simulated minute, so requests overlap in flight on the sharded engine.
const Trace& dense_trace() {
  static const Trace trace = [] {
    SyntheticTraceConfig config;
    config.seed = 11;
    config.num_requests = 3000;
    config.num_documents = 400;
    config.num_users = 64;
    config.span = minutes(1);
    return generate_synthetic_trace(config);
  }();
  return trace;
}

// ShardEngineTest's tree: 16 leaves under 4 mid caches under one root.
GroupConfig three_level_group() {
  GroupConfig config;
  std::vector<std::optional<ProxyId>> parents(21);
  for (ProxyId leaf = 0; leaf < 16; ++leaf) parents[leaf] = static_cast<ProxyId>(16 + leaf / 4);
  for (ProxyId mid = 16; mid < 20; ++mid) parents[mid] = 20;
  config.topology = TopologyKind::kHierarchical;
  config.custom_parents = std::move(parents);
  config.placement = PlacementKind::kEa;
  return config;
}

RunSpec spec_for(GroupConfig group, std::size_t shards = 0) {
  RunSpec spec;
  spec.group = std::move(group);
  spec.exec.shards = shards;
  return spec;
}

std::string golden_path(const std::string& name) {
  return std::string(EACACHE_GOLDEN_DIR) + "/" + name + ".json";
}

void check_against_golden(const std::string& name, const RunSpec& spec,
                          const Trace& trace = regression_trace()) {
  const SimulationResult result = run(trace, spec);
  const std::string json = simulation_result_to_json(result);

  const std::string path = golden_path(name);
  if (std::getenv("EACACHE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << json << '\n';
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (regenerate with EACACHE_UPDATE_GOLDEN=1)";
  std::ostringstream stored;
  stored << in.rdbuf();
  std::string expected = stored.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  // Byte-identical, not merely equal-parsed: the pre-pipeline serialization
  // is part of the contract (downstream plots diff these files).
  EXPECT_EQ(json, expected) << "result JSON diverged from the pre-pipeline golden '"
                            << name << "'";
}

TEST(PipelineRegression, EaDistributed) {
  check_against_golden("ea_distributed", spec_for(base_config()));
}

TEST(PipelineRegression, AdHocDistributed) {
  GroupConfig config = base_config();
  config.placement = PlacementKind::kAdHoc;
  check_against_golden("adhoc_distributed", spec_for(config));
}

TEST(PipelineRegression, EaHierarchical) {
  GroupConfig config = base_config();
  config.topology = TopologyKind::kHierarchical;
  check_against_golden("ea_hierarchical", spec_for(config));
}

TEST(PipelineRegression, EaDigestDiscovery) {
  GroupConfig config = base_config();
  config.discovery = DiscoveryMode::kDigest;
  config.digest.expected_items = 2048;
  config.digest.refresh_period = minutes(15);
  check_against_golden("ea_digest", spec_for(config));
}

TEST(PipelineRegression, EaIcpLoss) {
  // Pins the network RNG draw order: one deterministic draw per probed peer.
  GroupConfig config = base_config();
  config.icp_loss_probability = 0.2;
  check_against_golden("ea_icp_loss", spec_for(config));
}

TEST(PipelineRegression, EaCoherence) {
  GroupConfig config = base_config();
  config.coherence.enabled = true;
  config.coherence.fresh_ttl = minutes(30);
  config.origin.min_update_interval = minutes(30);
  config.origin.max_update_interval = hours(8);
  check_against_golden("ea_coherence", spec_for(config));
}

TEST(PipelineRegression, HashPartition) {
  GroupConfig config = base_config();
  config.placement = PlacementKind::kAdHoc;
  config.routing = RoutingMode::kHashPartition;
  check_against_golden("hash_partition", spec_for(config));
}

TEST(PipelineRegression, EaPrefetch) {
  GroupConfig config = base_config();
  config.prefetch.enabled = true;
  check_against_golden("ea_prefetch", spec_for(config));
}

TEST(PipelineRegression, EaTraced) {
  // Tracing on: the result JSON carries the span-ring occupancy, so this
  // golden pins the NUMBER of spans the legacy path records per request.
  GroupConfig config = base_config();
  config.obs.trace_capacity = 4096;
  check_against_golden("ea_traced", spec_for(config));
}

TEST(PipelineRegression, ShardedEaDistributed) {
  check_against_golden("sharded_ea_distributed", spec_for(base_config(), 2));
}

TEST(PipelineRegression, ShardedEaHierarchical) {
  GroupConfig config = base_config();
  config.topology = TopologyKind::kHierarchical;
  check_against_golden("sharded_ea_hierarchical", spec_for(config, 2));
}

TEST(PipelineRegression, ShardedEaThreeLevel) {
  // 16 leaves under 4 mid caches under one root: parent chains forward
  // through an intermediate node while other requests are in flight.
  GroupConfig config = three_level_group();
  config.aggregate_capacity = 4 * kMiB;
  check_against_golden("sharded_ea_three_level", spec_for(config, 4), dense_trace());
}

// The sharded_merge_order_* goldens pin the order in which a shard fires
// the events that share an instant: pre-scheduled series samples and
// flushes, origin timers, delivered messages and admissions. A miss costs
// local_lookup + icp_rtt + 3 ms, so the origin timer (1 ms after the
// request hop) fires inside the window that set it; a flush and an outage
// land mid-run. A wrong tie order keeps the result shard-count invariant,
// so only a golden can catch it.
RunSpec merge_order_spec(GroupConfig group) {
  group.aggregate_capacity = 2 * kMiB;
  group.placement = PlacementKind::kEa;
  group.latency.miss = group.latency.local_lookup + group.latency.icp_rtt + msec(3);
  RunSpec spec = spec_for(std::move(group), 3);
  spec.faults.flushes.push_back({kSimEpoch + sec(20), 3});
  spec.faults.outages.push_back({2, kSimEpoch + sec(10), kSimEpoch + sec(30)});
  return spec;
}

TEST(PipelineRegression, ShardedMergeOrderFlat) {
  GroupConfig config;
  config.num_proxies = 8;
  check_against_golden("sharded_merge_order_flat", merge_order_spec(config), dense_trace());
}

TEST(PipelineRegression, ShardedMergeOrderThreeLevel) {
  check_against_golden("sharded_merge_order_three_level", merge_order_spec(three_level_group()),
                       dense_trace());
}

TEST(PipelineRegression, ShardedMergeOrderThreeLevel512K) {
  // At 512 KiB the order of a delivered message and an admission that share
  // an instant shows in the result, which it does not at 2 MiB.
  RunSpec spec = merge_order_spec(three_level_group());
  spec.group.aggregate_capacity = 512 * kKiB;
  check_against_golden("sharded_merge_order_three_level_512k", spec, dense_trace());
}

}  // namespace
}  // namespace eacache
