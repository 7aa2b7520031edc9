// Deterministic topology partitioning for the sharded simulation engine.
//
// The sharded engine (sim/shard_engine.h) gives each shard its own timer
// heap, clock and disjoint subset of the group's proxies; everything that
// crosses the cut becomes an explicit shard-crossing message. The cut is
// computed here, as a pure function of (topology, requested shards):
//
//  * client-facing proxies are split into contiguous blocks in client_facing
//    order (ascending ids), balanced to within one proxy — contiguity keeps
//    sibling clusters of hierarchical topologies mostly shard-local, which
//    is what bounds cross-shard ICP traffic;
//  * every internal (non-client-facing) cache joins the shard of its
//    lowest-id client-facing descendant, so each internal node shares a
//    shard with at least one of its children;
//  * the requested shard count is clamped to the client-facing count (a
//    shard with no client-facing proxy would never admit a request).
//
// Cuts between sibling groups keep leaf shards unlinked: when every block
// boundary falls between two parents' children, a leaf's ICP peers and its
// parent share its shard, so two leaf blocks never message each other and
// only exchange parent-chain hops with the shard holding their common
// ancestor. That is what lets the engine's per-link lookahead
// (shard_lags in core/run_spec.h) run a leaf shard many windows ahead.
//
// Determinism is load-bearing: the partition feeds the engine's
// shards=1-vs-N byte-identity guarantee, so the function must return the
// same cut on every call, on every platform, for the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "group/topology.h"

namespace eacache {

struct TopologyPartition {
  /// Effective shard count (requested, clamped to client-facing proxies).
  std::size_t shards = 1;
  /// shard_of[proxy id] — every proxy is assigned exactly one shard.
  std::vector<std::uint32_t> shard_of;
  /// members[shard] — that shard's proxy ids, ascending. Never empty.
  std::vector<std::vector<ProxyId>> members;
};

/// Partition `topology` into (up to) `shards` shards. `shards` must be
/// >= 1 (throws std::invalid_argument otherwise).
[[nodiscard]] TopologyPartition partition_topology(const Topology& topology,
                                                   std::size_t shards);

}  // namespace eacache
