// ProxyNode (core/proxy_node.h) without threads or queues: a test-local
// zero-delay executor delivers every outbox entry at once, in FIFO order,
// origin timers inline. Pins the exact message sequence of one remote hit,
// the §3.3 keep/promote decisions, and equality with the classic driver's
// result JSON on flat and 2-level EA groups.
#include "core/proxy_node.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/run_result_json.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace eacache {
namespace {

using Kind = WireMessage::Kind;

/// Every node of a group on one accounting unit, each message handled the
/// moment it is sent, at the client request's own instant.
class InlineGroup {
 public:
  explicit InlineGroup(const GroupConfig& config) : group_(config, {}), accounting_(group_) {
    for (std::size_t p = 0; p < group_.topology.num_proxies(); ++p) {
      nodes_.push_back(std::make_unique<ProxyNode>(static_cast<ProxyId>(p), group_, accounting_));
    }
  }

  /// Serve one request to completion; returns every message delivered.
  std::vector<WireMessage> serve(const Request& request, std::uint64_t id) {
    WireMessage client;
    client.kind = Kind::kClientRequest;
    client.to = home_proxy_in(group_.topology, request.user);
    client.user = request.user;
    client.document = request.document;
    client.request_id = id;
    client.stamp = request.at;
    client.body_size = request.size;

    std::vector<WireMessage> log;
    std::deque<WireMessage> pending{client};
    ProxyNode::Outbox out;
    while (!pending.empty()) {
      const WireMessage message = pending.front();
      pending.pop_front();
      log.push_back(message);
      if (message.kind == Kind::kCompletion) continue;
      nodes_[message.to]->handle(message, request.at, out);
      pending.insert(pending.end(), out.begin(), out.end());
      out.clear();
    }
    return log;
  }

  RunResult result() const {
    std::vector<const ProxyNode*> nodes;
    for (const auto& node : nodes_) nodes.push_back(node.get());
    return collect_run_result(group_, {&accounting_}, nodes);
  }

  [[nodiscard]] const Topology& topology() const { return group_.topology; }
  [[nodiscard]] const ProxyCache& cache(ProxyId p) const { return nodes_[p]->cache(); }

 private:
  GroupView group_;
  NodeAccounting accounting_;
  std::vector<std::unique_ptr<ProxyNode>> nodes_;
};

UserId user_homed_at(const Topology& topology, ProxyId proxy) {
  UserId user = 0;
  while (home_proxy_in(topology, user) != proxy) ++user;
  return user;
}

GroupConfig flat_group(std::size_t proxies, Bytes capacity) {
  GroupConfig config;
  config.num_proxies = proxies;
  config.aggregate_capacity = capacity;
  config.placement = PlacementKind::kEa;
  config.obs.series_points = 0;  // collect_run_result samples no series
  return config;
}

TEST(ProxyNodeTest, RemoteHitMessageSequence) {
  InlineGroup group(flat_group(3, 3 * kMiB));
  const Request warm{kSimEpoch + sec(1), user_homed_at(group.topology(), 1), 42, 1000};
  (void)group.serve(warm, 1);  // a miss at proxy 1, which keeps the copy
  const Request hit{kSimEpoch + sec(2), user_homed_at(group.topology(), 0), 42, 1000};
  const std::vector<WireMessage> log = group.serve(hit, 2);

  using Hop = std::tuple<Kind, ProxyId, ProxyId>;
  std::vector<Hop> hops;
  for (const WireMessage& message : log) hops.emplace_back(message.kind, message.from, message.to);
  const std::vector<Hop> expected = {
      {Kind::kClientRequest, 0, 0}, {Kind::kIcpQuery, 0, 1},     {Kind::kIcpQuery, 0, 2},
      {Kind::kIcpReply, 1, 0},      {Kind::kIcpReply, 2, 0},     {Kind::kHttpRequest, 0, 1},
      {Kind::kHttpResponse, 1, 0},  {Kind::kCompletion, 0, 0},
  };
  ASSERT_EQ(hops, expected);
  EXPECT_EQ(log[3].icp, WireMessage::Icp::kHit);
  EXPECT_EQ(log[4].icp, WireMessage::Icp::kMiss);
  EXPECT_TRUE(log[5].age.has_value()) << "EA piggybacks the requester's age";
  EXPECT_TRUE(log[6].found);
  EXPECT_EQ(log[6].body_size, 1000u);
  EXPECT_TRUE(log[6].age.has_value()) << "EA piggybacks the responder's age";
  for (const WireMessage& message : log) EXPECT_EQ(message.request_id, log.front().request_id);
  EXPECT_EQ(group.result().metrics.count(RequestOutcome::kRemoteHit), 1u);
}

/// Proxy `busy` serves enough distinct documents to evict (a finite
/// expiration age); the other proxies never evict (an infinite one).
void contend(InlineGroup& group, ProxyId busy, std::uint64_t& id) {
  const UserId user = user_homed_at(group.topology(), busy);
  for (DocumentId doc = 1000; doc < 1040; ++doc) {
    (void)group.serve(Request{kSimEpoch + sec(static_cast<std::int64_t>(id)), user, doc, 4 * kKiB},
                      ++id);
  }
  ASSERT_FALSE(group.cache(busy).expiration_age(kSimEpoch + sec(100)).is_infinite());
}

TEST(ProxyNodeTest, RequesterKeepsAndResponderPromotesByExpirationAge) {
  // §3.3: the requester keeps a copy iff EA(requester) >= EA(responder);
  // the responder promotes iff EA(responder) > EA(requester).
  for (const bool requester_contended : {false, true}) {
    InlineGroup group(flat_group(2, 2 * 32 * kKiB));
    std::uint64_t id = 0;
    const ProxyId requester = 0;
    const ProxyId responder = 1;
    contend(group, requester_contended ? requester : responder, id);
    const TimePoint at = kSimEpoch + sec(100);
    (void)group.serve(Request{at, user_homed_at(group.topology(), responder), 7, 1000}, ++id);
    ASSERT_TRUE(group.cache(responder).store().contains(7));

    const ProxyStats before = group.cache(responder).stats();
    (void)group.serve(Request{at + sec(1), user_homed_at(group.topology(), requester), 7, 1000},
                      ++id);
    const ProxyStats& keeper = group.cache(requester).stats();
    const ProxyStats& served = group.cache(responder).stats();
    EXPECT_EQ(served.remote_fetches_served, before.remote_fetches_served + 1);
    if (requester_contended) {
      EXPECT_EQ(keeper.copies_declined, 1u) << "lower EA requester must not replicate";
      EXPECT_FALSE(group.cache(requester).store().contains(7));
      EXPECT_EQ(served.promotions_suppressed, before.promotions_suppressed)
          << "higher EA responder promotes";
    } else {
      EXPECT_EQ(keeper.copies_stored, 1u) << "higher EA requester keeps a copy";
      EXPECT_TRUE(group.cache(requester).store().contains(7));
      EXPECT_EQ(served.promotions_suppressed, before.promotions_suppressed + 1)
          << "lower EA responder leaves its copy unpromoted";
    }
  }
}

TEST(ProxyNodeTest, ZeroDelayLoopMatchesClassicDriver) {
  SyntheticTraceConfig workload;
  workload.num_requests = 4'000;
  workload.num_documents = 500;
  workload.num_users = 24;
  workload.span = hours(2);
  workload.seed = 5150;
  const Trace trace = generate_synthetic_trace(workload);

  for (const TopologyKind topology : {TopologyKind::kDistributed, TopologyKind::kHierarchical}) {
    RunSpec spec;
    spec.group = flat_group(4, 512 * kKiB);
    spec.group.topology = topology;

    InlineGroup group(spec.group);
    for (std::uint64_t i = 0; i < trace.size(); ++i) (void)group.serve(trace.requests[i], i);
    EXPECT_EQ(run_result_to_json(group.result()), simulation_result_to_json(run(trace, spec)))
        << (topology == TopologyKind::kDistributed ? "flat" : "2-level");
  }
}

}  // namespace
}  // namespace eacache
