#include "group/topology.h"

#include <stdexcept>
#include <unordered_set>

namespace eacache {

Topology Topology::distributed(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Topology: need at least one cache");
  return Topology(TopologyKind::kDistributed,
                  std::vector<std::optional<ProxyId>>(n, std::nullopt));
}

Topology Topology::two_level(std::size_t leaves) {
  if (leaves == 0) throw std::invalid_argument("Topology: need at least one leaf");
  std::vector<std::optional<ProxyId>> parents(leaves + 1, std::nullopt);
  const auto root = static_cast<ProxyId>(leaves);
  for (std::size_t i = 0; i < leaves; ++i) parents[i] = root;
  return Topology(TopologyKind::kHierarchical, std::move(parents));
}

Topology Topology::from_parents(TopologyKind kind,
                                std::vector<std::optional<ProxyId>> parents) {
  return Topology(kind, std::move(parents));
}

Topology::Topology(TopologyKind kind, std::vector<std::optional<ProxyId>> parents)
    : kind_(kind), parents_(std::move(parents)) {
  if (parents_.empty()) throw std::invalid_argument("Topology: empty group");

  std::unordered_set<ProxyId> has_children;
  for (std::size_t p = 0; p < parents_.size(); ++p) {
    if (!parents_[p]) continue;
    const ProxyId parent = *parents_[p];
    if (parent >= parents_.size() || parent == p) {
      throw std::invalid_argument("Topology: bad parent id");
    }
    has_children.insert(parent);
  }

  // Cycle check: walk every parent chain; it must terminate within
  // num_proxies steps.
  for (std::size_t p = 0; p < parents_.size(); ++p) {
    std::optional<ProxyId> cursor = parents_[p];
    std::size_t steps = 0;
    while (cursor) {
      if (++steps > parents_.size()) throw std::invalid_argument("Topology: parent cycle");
      cursor = parents_[*cursor];
    }
  }

  for (std::size_t p = 0; p < parents_.size(); ++p) {
    if (kind_ == TopologyKind::kDistributed || has_children.count(static_cast<ProxyId>(p)) == 0) {
      client_facing_.push_back(static_cast<ProxyId>(p));
    }
  }
  if (client_facing_.empty()) {
    throw std::invalid_argument("Topology: no client-facing cache");
  }

  // Sibling groups, keyed by parent id; key n is the parentless caches.
  const std::size_t n = parents_.size();
  constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
  std::vector<std::size_t> group_by_parent(n + 1, kNoGroup);
  group_of_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t& group = group_by_parent[parents_[p] ? *parents_[p] : n];
    if (group == kNoGroup) {
      group = sibling_groups_.size();
      sibling_groups_.emplace_back();
    }
    sibling_groups_[group].push_back(static_cast<ProxyId>(p));
    group_of_[p] = group;
  }
}

const std::vector<ProxyId>& Topology::sibling_group(ProxyId p) const {
  if (p >= parents_.size()) throw std::invalid_argument("Topology: bad proxy id");
  return sibling_groups_[group_of_[p]];
}

std::vector<ProxyId> Topology::siblings_of(ProxyId p) const {
  std::vector<ProxyId> result;
  for (const ProxyId q : sibling_group(p)) {
    if (q != p) result.push_back(q);
  }
  return result;
}

}  // namespace eacache
