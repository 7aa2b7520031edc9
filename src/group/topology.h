// Cache-group cooperation topologies (paper section 2 / related work):
//
//  * Distributed: a flat set of peer caches; every cache is client-facing
//    and every other cache is its sibling. This is the architecture the
//    paper's experiments use.
//  * Hierarchical: client-facing leaf caches beneath parent caches. A local
//    miss ICP-queries the siblings AND the parent; if everyone misses, the
//    HTTP request is forwarded up the parent chain, and the top of the
//    chain fetches from the origin (paper section 3.3's hierarchical
//    variant of the EA algorithm).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.h"

namespace eacache {

enum class TopologyKind { kDistributed, kHierarchical };

class Topology {
 public:
  /// Flat peer group of n caches (n >= 1).
  [[nodiscard]] static Topology distributed(std::size_t n);

  /// Two-level tree: `leaves` client-facing caches under one root
  /// (total caches = leaves + 1; the root is the last id).
  [[nodiscard]] static Topology two_level(std::size_t leaves);

  /// General tree from an explicit parent table (nullopt = no parent).
  /// Client-facing caches are those that are not any cache's parent.
  /// Throws std::invalid_argument on cycles or out-of-range parents.
  [[nodiscard]] static Topology from_parents(TopologyKind kind,
                                             std::vector<std::optional<ProxyId>> parents);

  [[nodiscard]] TopologyKind kind() const { return kind_; }
  [[nodiscard]] std::size_t num_proxies() const { return parents_.size(); }
  [[nodiscard]] std::optional<ProxyId> parent_of(ProxyId p) const { return parents_.at(p); }

  /// Caches that accept client requests (leaves; in distributed mode, all).
  [[nodiscard]] const std::vector<ProxyId>& client_facing() const { return client_facing_; }

  /// Peers with the same parent (distributed: all other caches).
  /// Excludes `p` itself.
  [[nodiscard]] std::vector<ProxyId> siblings_of(ProxyId p) const;

  /// The caches `p`'s ICP fan-out queries: calls `fn(peer)` for each
  /// sibling in ascending id order, then for the parent, if any. Walks the
  /// sibling group built at construction and allocates nothing.
  template <typename Fn>
  void for_each_peer(ProxyId p, Fn&& fn) const {
    for (const ProxyId q : sibling_group(p)) {
      if (q != p) fn(q);
    }
    if (parents_[p]) fn(*parents_[p]);
  }

  /// How many caches for_each_peer(p, ...) visits.
  [[nodiscard]] std::size_t peer_count(ProxyId p) const {
    return sibling_group(p).size() - 1 + (parents_[p] ? 1 : 0);
  }

 private:
  Topology(TopologyKind kind, std::vector<std::optional<ProxyId>> parents);

  /// `p` and its siblings, ascending. Throws std::invalid_argument on a
  /// bad id.
  [[nodiscard]] const std::vector<ProxyId>& sibling_group(ProxyId p) const;

  TopologyKind kind_;
  std::vector<std::optional<ProxyId>> parents_;
  std::vector<ProxyId> client_facing_;
  /// Caches grouped by parent (the parentless caches form one group), each
  /// group ascending: one list per parent, N ids in all.
  std::vector<std::vector<ProxyId>> sibling_groups_;
  std::vector<std::size_t> group_of_;  // by proxy id
};

}  // namespace eacache
