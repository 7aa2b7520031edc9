// ProxyNode: one proxy's side of the paper's §3.3 protocol as a sans-IO
// state machine — no thread, no queue and no clock of its own.
//
// A node owns its ProxyCache and the state of every request it homes
// (client requests pinned to it) or forwards (parent-chain hops passing
// through it). Its executor hands it one WireMessage at a time together
// with the instant it is handled, and the node appends what that causes to
// an outbox:
//   * messages for peers (kIcpQuery ... kParentResponse), which the
//     executor delivers after their hop delay or at once;
//   * origin timers (kOriginFetch, addressed to the node itself), which
//     the executor feeds back after the origin delay or inline;
//   * completions (kCompletion), one per client request it homes.
// Accounting — transport costs, GroupMetrics, the group.* counters and the
// flight-recorder spans — is charged to a NodeAccounting its executor owns:
// one per shard or daemon worker, never one per node.
//
// The request flow is the reference driver's (CacheGroup::serve): local
// lookup -> ICP fan-out to siblings and parent -> ring-distance-ordered
// sibling fetch with the EA ages piggybacked -> on a group-wide miss the
// origin (flat) or the parent chain (hierarchical), every cache on the way
// down applying the placement rules. Latencies recorded in GroupMetrics are
// the paper's per-outcome charges plus failed-probe penalties.
//
// Executors: the sharded engine (sim/shard_engine.cpp) and the daemon
// (daemon/daemon_group.cpp). CacheGroup::serve stays the oracle both are
// compared against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/run_result.h"
#include "core/wire_message.h"
#include "group/cache_group.h"
#include "group/topology.h"
#include "metrics/metrics.h"
#include "net/transport.h"
#include "obs/metric_registry.h"
#include "obs/trace_log.h"
#include "proxy/proxy_cache.h"

namespace eacache {

/// The read-only facts every node of one group consults. Built once per
/// run by the executor; must outlive its nodes.
struct GroupView {
  GroupView(const GroupConfig& config, std::vector<PeerOutage> outages);

  GroupConfig config;
  Topology topology;
  std::shared_ptr<const PlacementPolicy> placement;
  std::vector<Bytes> budgets;  // per-cache byte budgets, by proxy id
  std::vector<PeerOutage> outages;
};

/// Where nodes charge accounting: one per executor unit, shared by every
/// node that unit runs. Not movable — the registry is bound into the
/// transport, the counters and the nodes' caches.
struct NodeAccounting {
  explicit NodeAccounting(const GroupView& group, std::size_t flight_capacity = 0);
  NodeAccounting(const NodeAccounting&) = delete;
  NodeAccounting& operator=(const NodeAccounting&) = delete;

  MetricRegistry registry;
  Transport transport;
  GroupMetrics metrics;
  GroupCounters counters;
  /// Flight recorder: this unit's recent spans (capacity 0 = off).
  TraceLog flight;
  std::uint64_t next_span = 0;
};

class ProxyNode {
 public:
  using Outbox = std::vector<WireMessage>;

  /// Builds proxy `id`'s cache with its registry handles in `accounting`.
  ProxyNode(ProxyId id, const GroupView& group, NodeAccounting& accounting);
  ProxyNode(const ProxyNode&) = delete;
  ProxyNode& operator=(const ProxyNode&) = delete;

  /// Handle one protocol message at `now`; append what it causes to `out`.
  /// Throws std::logic_error on a driver message or an unknown request.
  void handle(const WireMessage& message, TimePoint now, Outbox& out);

  [[nodiscard]] ProxyId id() const { return cache_.id(); }
  [[nodiscard]] ProxyCache& cache() { return cache_; }
  [[nodiscard]] const ProxyCache& cache() const { return cache_; }
  /// Client requests homed here that have not completed yet.
  [[nodiscard]] std::size_t in_flight() const { return homed_.size(); }

 private:
  /// A client request's progress at its home node.
  struct Homed {
    DocumentId document = 0;
    Bytes size = 0;  // the origin fetch body
    std::size_t awaiting_replies = 0;
    std::vector<ProxyId> candidates;  // positive ICP answers; ring order once all are in
    std::size_t next_candidate = 0;
    Duration penalty = Duration::zero();  // failed-probe latency so far
    std::uint64_t root_span = 0;          // 0 = tracing off
  };

  void on_client_request(const WireMessage& message, TimePoint now, Outbox& out);
  void on_icp_query(const WireMessage& message, TimePoint now, Outbox& out);
  void on_icp_reply(const WireMessage& message, TimePoint now, Outbox& out);
  void on_http_request(const WireMessage& message, TimePoint now, Outbox& out);
  void on_http_response(const WireMessage& message, TimePoint now, Outbox& out);
  void on_parent_request(const WireMessage& message, TimePoint now, Outbox& out);
  void on_parent_response(const WireMessage& message, TimePoint now, Outbox& out);
  void on_origin_fetch(const WireMessage& message, TimePoint now, Outbox& out);

  /// Fetch from the next ICP candidate, or resolve the group-wide miss.
  void fetch_next_candidate(std::uint64_t request_id, Homed& request, TimePoint now,
                            Outbox& out);
  void resolve_group_miss(std::uint64_t request_id, Homed& request, TimePoint now,
                          Outbox& out);
  void send_parent_request(std::uint64_t request_id, DocumentId document, Bytes size,
                           TimePoint now, Outbox& out);
  void answer_child(std::uint64_t request_id, ProxyId child, DocumentId document, Bytes size,
                    ResponseSource source, std::optional<ExpAge> age, TimePoint now,
                    Outbox& out);
  /// Charge the outcome, emit the completion and forget the request.
  void finish(std::uint64_t request_id, const Homed& request, RequestOutcome outcome,
              Bytes bytes, Duration latency, TimePoint now, Outbox& out);

  [[nodiscard]] Homed& homed(std::uint64_t request_id);
  [[nodiscard]] WireMessage outbound(WireMessage::Kind kind, ProxyId to,
                                     std::uint64_t request_id, DocumentId document,
                                     TimePoint now) const;
  [[nodiscard]] std::optional<ExpAge> piggyback_age(TimePoint now) const;
  [[nodiscard]] bool down(TimePoint now) const;
  /// Flight-recorder span linked under `parent` (no-op when the ring is
  /// off or the request carries no trace identity). Returns its id.
  std::uint64_t record_span(SpanKind kind, std::uint64_t request_id, DocumentId document,
                            TimePoint now, std::uint64_t parent, std::int32_t hop,
                            std::int64_t value, std::int32_t peer = -1,
                            std::int8_t flag = -1);

  ProxyCache cache_;
  const GroupView& group_;
  NodeAccounting& accounting_;
  std::unordered_map<std::uint64_t, Homed> homed_;
  /// Parent-chain hops passing through: request id -> the child to answer.
  std::unordered_map<std::uint64_t, ProxyId> forwarded_;
};

/// The end-of-run result both node executors report: every accounting
/// unit merged, then each node's cache read in proxy-id order (`nodes[p]`
/// must be proxy p).
[[nodiscard]] RunResult collect_run_result(const GroupView& group,
                                           const std::vector<const NodeAccounting*>& units,
                                           const std::vector<const ProxyNode*>& nodes);

}  // namespace eacache
