// shard_lags (core/run_spec.h): the sharded engine's per-link lookahead.
// A wrong entry either reorders messages (too large) or only costs waiting
// (too small); the engine throws on the first kind, these pin the values.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/run_spec.h"
#include "group/partition.h"
#include "group/topology.h"

namespace eacache {
namespace {

ShardLags lags_for(const Topology& topology, std::size_t shards, Duration window) {
  const LatencyModel latency = LatencyModel::paper_defaults();
  return shard_lags(topology, partition_topology(topology, shards), hop_delays(latency), window);
}

// The metro tree: 1024 leaves in groups of 16 under 64 mid caches under one
// root. At 4 shards, shard 0 holds the root and leaf blocks never touch.
Topology metro_tree() {
  std::vector<std::optional<ProxyId>> parents(1089);
  for (ProxyId leaf = 0; leaf < 1024; ++leaf) {
    parents[leaf] = static_cast<ProxyId>(1024 + leaf / 16);
  }
  for (ProxyId mid = 1024; mid < 1088; ++mid) parents[mid] = 1088;
  return Topology::from_parents(TopologyKind::kHierarchical, std::move(parents));
}

TEST(ShardLagsTest, MetroTreeLinksLeafBlocksOnlyToTheRootShard) {
  const LatencyModel latency = LatencyModel::paper_defaults();
  const Duration window = default_lookahead(latency);
  ASSERT_EQ(window, msec(20));
  ASSERT_EQ(hop_delays(latency).body, msec(272));
  const ShardLags lags = lags_for(metro_tree(), 4, window);
  ASSERT_EQ(lags.size(), 4u);
  for (std::size_t leaf_block = 1; leaf_block < 4; ++leaf_block) {
    EXPECT_EQ(lags[leaf_block][0], 1) << "parent request up: the 20 ms probe hop";
    EXPECT_EQ(lags[0][leaf_block], 13) << "parent response down: floor(272 ms / 20 ms)";
    for (std::size_t other = 1; other < 4; ++other) {
      EXPECT_FALSE(lags[leaf_block][other].has_value())
          << "leaf blocks " << leaf_block << " and " << other << " never message each other";
    }
  }
  EXPECT_FALSE(lags[0][0].has_value());
}

TEST(ShardLagsTest, FlatGroupIsOneWindowEverywhere) {
  const LatencyModel latency = LatencyModel::paper_defaults();
  const ShardLags lags = lags_for(Topology::distributed(8), 3, default_lookahead(latency));
  ASSERT_EQ(lags.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t s = 0; s < 3; ++s) {
      if (r == s) {
        EXPECT_FALSE(lags[r][s].has_value());
      } else {
        EXPECT_EQ(lags[r][s], 1) << r << " -> " << s;
      }
    }
  }
}

TEST(ShardLagsTest, OneShardHasNoLinks) {
  const LatencyModel latency = LatencyModel::paper_defaults();
  for (const Topology& topology : {Topology::distributed(8), metro_tree()}) {
    const ShardLags lags = lags_for(topology, 1, default_lookahead(latency));
    ASSERT_EQ(lags.size(), 1u);
    EXPECT_FALSE(lags[0][0].has_value());
  }
}

TEST(ShardLagsTest, NarrowWindowDividesEachDelay) {
  // A 7 ms lookahead_override: floor(delay / 7 ms) windows per link.
  const HopDelays delays = hop_delays(LatencyModel::paper_defaults());
  const ShardLags flat = lags_for(Topology::distributed(8), 3, msec(7));
  EXPECT_EQ(flat[0][1], std::min(delays.probe, delays.reply) / msec(7));
  EXPECT_EQ(flat[0][1], 2);
  const ShardLags metro = lags_for(metro_tree(), 4, msec(7));
  EXPECT_EQ(metro[1][0], delays.probe / msec(7));
  EXPECT_EQ(metro[0][1], delays.body / msec(7));
  EXPECT_EQ(metro[0][1], 38);
}

}  // namespace
}  // namespace eacache
