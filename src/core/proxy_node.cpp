#include "core/proxy_node.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "storage/replacement_policy.h"

namespace eacache {

namespace {

using Kind = WireMessage::Kind;

/// Simulated-epoch-relative milliseconds, the span-schema time base.
std::int64_t span_ms(TimePoint at) { return (at - kSimEpoch).count(); }

}  // namespace

GroupView::GroupView(const GroupConfig& group_config, std::vector<PeerOutage> peer_outages)
    : config(group_config),
      topology(topology_from(config)),
      placement(placement_for(config)),
      budgets(cache_budgets(config, topology.num_proxies())),
      outages(std::move(peer_outages)) {}

NodeAccounting::NodeAccounting(const GroupView& group, std::size_t flight_capacity)
    : registry(group.config.obs.registry),
      transport(group.config.wire),
      counters(registry),
      flight(flight_capacity) {
  transport.bind_registry(&registry, group.topology.num_proxies());
}

ProxyNode::ProxyNode(ProxyId id, const GroupView& group, NodeAccounting& accounting)
    : cache_(id, group.budgets.at(id), make_policy(group.config.replacement),
             group.config.window, group.placement.get(), /*digest_config=*/nullptr,
             &accounting.registry),
      group_(group),
      accounting_(accounting) {}

void ProxyNode::handle(const WireMessage& message, TimePoint now, Outbox& out) {
  switch (message.kind) {
    case Kind::kClientRequest: return on_client_request(message, now, out);
    case Kind::kIcpQuery: return on_icp_query(message, now, out);
    case Kind::kIcpReply: return on_icp_reply(message, now, out);
    case Kind::kHttpRequest: return on_http_request(message, now, out);
    case Kind::kHttpResponse: return on_http_response(message, now, out);
    case Kind::kParentRequest: return on_parent_request(message, now, out);
    case Kind::kParentResponse: return on_parent_response(message, now, out);
    case Kind::kOriginFetch: return on_origin_fetch(message, now, out);
    default: throw std::logic_error("ProxyNode: not a protocol message");
  }
}

void ProxyNode::on_client_request(const WireMessage& message, TimePoint now, Outbox& out) {
  cache_.note_client_request();
  accounting_.counters.requests.inc();
  accounting_.counters.request_bytes.observe(static_cast<double>(message.body_size));

  Homed request;
  request.document = message.document;
  request.size = message.body_size;
  request.root_span = record_span(SpanKind::kArrival, message.request_id, message.document,
                                  now, 0, 0, static_cast<std::int64_t>(message.body_size));

  // 1. Local lookup: a promoting hit if resident.
  if (const auto size = cache_.serve_local(message.document, now)) {
    record_span(SpanKind::kLocalHit, message.request_id, message.document, now,
                request.root_span, 0, static_cast<std::int64_t>(*size));
    finish(message.request_id, request, RequestOutcome::kLocalHit, *size,
           group_.config.latency.local_hit, now, out);
    return;
  }

  const auto [it, inserted] = homed_.try_emplace(message.request_id, std::move(request));
  if (!inserted) throw std::logic_error("ProxyNode: duplicate request id");
  Homed& homed = it->second;

  // 2. ICP fan-out to the siblings and the parent; the replies drive the
  // rest of the request from on_icp_reply.
  homed.awaiting_replies = group_.topology.peer_count(id());
  if (homed.awaiting_replies == 0) {
    resolve_group_miss(message.request_id, homed, now, out);
    return;
  }
  group_.topology.for_each_peer(id(), [&](ProxyId target) {
    accounting_.transport.record_icp_query(IcpQuery{id(), target, message.document});
    accounting_.counters.icp_queries.inc();
    WireMessage query = outbound(Kind::kIcpQuery, target, message.request_id, message.document, now);
    query.span_id = homed.root_span;  // the peer's probe span links under our root
    query.hop = 1;
    out.push_back(query);
  });
}

void ProxyNode::on_icp_query(const WireMessage& message, TimePoint now, Outbox& out) {
  WireMessage reply =
      outbound(Kind::kIcpReply, message.from, message.request_id, message.document, now);
  if (down(now)) {
    // An outaged peer never answers; the requester learns that at the
    // reply deadline and books the exchange as a loss.
    reply.icp = WireMessage::Icp::kNoAnswer;
  } else {
    const bool hit = cache_.answer_icp(message.document);
    accounting_.transport.record_icp_reply(IcpReply{id(), message.from, message.document, hit});
    accounting_.counters.icp_replies.inc();
    record_span(SpanKind::kIcpProbe, message.request_id, message.document, now, message.span_id,
                message.hop, -1, static_cast<std::int32_t>(message.from), hit ? 1 : 0);
    reply.icp = hit ? WireMessage::Icp::kHit : WireMessage::Icp::kMiss;
  }
  out.push_back(reply);
}

void ProxyNode::on_icp_reply(const WireMessage& message, TimePoint now, Outbox& out) {
  Homed& request = homed(message.request_id);
  if (message.icp == WireMessage::Icp::kNoAnswer) {
    accounting_.transport.record_icp_loss();
    accounting_.counters.icp_losses.inc();
  } else if (message.icp == WireMessage::Icp::kHit) {
    request.candidates.push_back(message.from);
  }
  if (--request.awaiting_replies > 0) return;
  // 3. All replies in: fetch best candidate first.
  sort_by_ring_distance(request.candidates, id(), group_.topology.num_proxies());
  fetch_next_candidate(message.request_id, request, now, out);
}

void ProxyNode::fetch_next_candidate(std::uint64_t request_id, Homed& request, TimePoint now,
                                     Outbox& out) {
  if (request.next_candidate >= request.candidates.size()) {
    resolve_group_miss(request_id, request, now, out);
    return;
  }
  const ProxyId responder = request.candidates[request.next_candidate++];
  const HttpRequest fetch{id(), responder, request.document, piggyback_age(now)};
  accounting_.transport.record_http_request(fetch);
  accounting_.counters.sibling_fetches.inc();

  WireMessage message = outbound(Kind::kHttpRequest, responder, request_id, request.document, now);
  message.age = fetch.requester_age;
  message.span_id = request.root_span;
  message.hop = 1;
  out.push_back(message);
}

void ProxyNode::on_http_request(const WireMessage& message, TimePoint now, Outbox& out) {
  // serve_fetch, not serve_remote: time may have passed since our ICP reply
  // and the copy may be gone, which answers as a header-only not-found.
  const HttpResponse response =
      cache_.serve_fetch(HttpRequest{message.from, id(), message.document, message.age}, now);
  accounting_.transport.record_http_response(response);
  record_span(SpanKind::kSiblingFetch, message.request_id, message.document, now,
              message.span_id, message.hop, static_cast<std::int64_t>(response.body_size),
              static_cast<std::int32_t>(message.from), response.found ? 1 : 0);

  WireMessage reply =
      outbound(Kind::kHttpResponse, message.from, message.request_id, message.document, now);
  reply.found = response.found;
  reply.body_size = response.body_size;
  reply.source = response.source;
  reply.age = response.responder_age;
  out.push_back(reply);
}

void ProxyNode::on_http_response(const WireMessage& message, TimePoint now, Outbox& out) {
  Homed& request = homed(message.request_id);
  if (!message.found) {
    request.penalty += group_.config.latency.failed_probe;
    fetch_next_candidate(message.request_id, request, now, out);
    return;
  }
  cache_.consider_caching(Document{request.document, message.body_size, 0}, message.age, now);
  finish(message.request_id, request, RequestOutcome::kRemoteHit, message.body_size,
         group_.config.latency.remote_hit, now, out);
}

void ProxyNode::resolve_group_miss(std::uint64_t request_id, Homed& request, TimePoint now,
                                   Outbox& out) {
  if (group_.topology.parent_of(id())) {
    // 5. Hierarchical: the parent chain resolves the miss.
    send_parent_request(request_id, request.document, request.size, now, out);
    return;
  }
  // 4. Distributed: fetch from the origin once the origin delay has passed.
  WireMessage timer = outbound(Kind::kOriginFetch, id(), request_id, request.document, now);
  timer.body_size = request.size;
  out.push_back(timer);
}

void ProxyNode::send_parent_request(std::uint64_t request_id, DocumentId document, Bytes size,
                                    TimePoint now, Outbox& out) {
  const ProxyId parent = *group_.topology.parent_of(id());
  const HttpRequest hop{id(), parent, document, piggyback_age(now)};
  accounting_.transport.record_http_request(hop);
  accounting_.counters.parent_fetches.inc();

  WireMessage message = outbound(Kind::kParentRequest, parent, request_id, document, now);
  message.body_size = size;
  message.age = hop.requester_age;
  out.push_back(message);
}

void ProxyNode::on_parent_request(const WireMessage& message, TimePoint now, Outbox& out) {
  if (cache_.store().contains(message.document)) {
    // Reachable above the ICP horizon: a cache hit at a higher level.
    const HttpResponse response = cache_.serve_remote(
        HttpRequest{message.from, id(), message.document, message.age}, now);
    accounting_.transport.record_http_response(response);
    answer_child(message.request_id, message.from, message.document, response.body_size,
                 ResponseSource::kCache, response.responder_age, now, out);
    return;
  }
  if (group_.topology.parent_of(id())) {
    // Forward up, remembering which child to answer on the way down.
    forwarded_[message.request_id] = message.from;
    send_parent_request(message.request_id, message.document, message.body_size, now, out);
    return;
  }
  // Top of the chain: fetch from the origin once the origin delay has
  // passed. The timer keeps the child's request (`from` is the child).
  WireMessage timer = message;
  timer.kind = Kind::kOriginFetch;
  timer.stamp = now;
  out.push_back(timer);
}

void ProxyNode::on_origin_fetch(const WireMessage& message, TimePoint now, Outbox& out) {
  const Document document{message.document, message.body_size, 0};
  accounting_.transport.record_origin_fetch(id(), document.size);
  accounting_.counters.origin_fetches.inc();

  if (message.from != id()) {
    // Top of a parent chain: the parent placement rule (paper §3.3)
    // decides whether this cache keeps a copy.
    const HttpResponse response = cache_.resolve_miss_as_parent(
        document, HttpRequest{message.from, id(), message.document, message.age}, now);
    accounting_.transport.record_http_response(response);
    answer_child(message.request_id, message.from, message.document, document.size,
                 ResponseSource::kOrigin, response.responder_age, now, out);
    return;
  }
  // A client miss homed here: the conventional always-cache step.
  Homed& request = homed(message.request_id);
  if (!cache_.store().contains(document.id)) cache_.cache_after_origin_fetch(document, now);
  record_span(SpanKind::kOriginFetch, message.request_id, document.id, now, request.root_span, 0,
              static_cast<std::int64_t>(document.size));
  finish(message.request_id, request, RequestOutcome::kMiss, document.size,
         group_.config.latency.miss, now, out);
}

void ProxyNode::answer_child(std::uint64_t request_id, ProxyId child, DocumentId document,
                             Bytes size, ResponseSource source, std::optional<ExpAge> age,
                             TimePoint now, Outbox& out) {
  WireMessage body = outbound(Kind::kParentResponse, child, request_id, document, now);
  body.body_size = size;
  body.source = source;
  body.age = age;
  out.push_back(body);
}

void ProxyNode::on_parent_response(const WireMessage& message, TimePoint now, Outbox& out) {
  const Document document{message.document, message.body_size, 0};
  if (const auto child = forwarded_.find(message.request_id); child != forwarded_.end()) {
    // Intermediate node: decide whether to keep a copy (requester rule),
    // then answer the child with our own age.
    const ProxyId to = child->second;
    forwarded_.erase(child);
    cache_.consider_caching(document, message.age, now);
    HttpResponse down;
    down.from = id();
    down.to = to;
    down.document = message.document;
    down.body_size = message.body_size;
    down.source = message.source;
    down.responder_age = piggyback_age(now);
    accounting_.transport.record_http_response(down);
    answer_child(message.request_id, to, message.document, message.body_size, message.source,
                 down.responder_age, now, out);
    return;
  }
  // The original requester: a remote hit iff some cache above the ICP
  // horizon had the document, a miss if the chain reached the origin.
  Homed& request = homed(message.request_id);
  cache_.consider_caching(document, message.age, now);
  const bool cache_hit = message.source == ResponseSource::kCache;
  finish(message.request_id, request,
         cache_hit ? RequestOutcome::kRemoteHit : RequestOutcome::kMiss, message.body_size,
         cache_hit ? group_.config.latency.remote_hit : group_.config.latency.miss, now, out);
}

void ProxyNode::finish(std::uint64_t request_id, const Homed& request, RequestOutcome outcome,
                       Bytes bytes, Duration latency, TimePoint now, Outbox& out) {
  accounting_.metrics.record(outcome, bytes, latency + request.penalty);
  record_span(SpanKind::kComplete, request_id, request.document, now, request.root_span, 0,
              static_cast<std::int64_t>(outcome));
  WireMessage done = outbound(Kind::kCompletion, id(), request_id, request.document, now);
  out.push_back(done);
  homed_.erase(request_id);  // `request` may live here: nothing may read it after
}

ProxyNode::Homed& ProxyNode::homed(std::uint64_t request_id) {
  const auto it = homed_.find(request_id);
  if (it == homed_.end()) {
    throw std::logic_error("ProxyNode: message for unknown request " + std::to_string(request_id));
  }
  return it->second;
}

WireMessage ProxyNode::outbound(Kind kind, ProxyId to, std::uint64_t request_id,
                                DocumentId document, TimePoint now) const {
  WireMessage message;
  message.kind = kind;
  message.from = id();
  message.to = to;
  message.request_id = request_id;
  message.document = document;
  message.stamp = now;
  return message;
}

std::optional<ExpAge> ProxyNode::piggyback_age(TimePoint now) const {
  if (group_.placement->kind() == PlacementKind::kAdHoc) return std::nullopt;
  return cache_.expiration_age(now);
}

bool ProxyNode::down(TimePoint now) const {
  for (const PeerOutage& outage : group_.outages) {
    if (outage.proxy == id() && now >= outage.start && now < outage.end) return true;
  }
  return false;
}

std::uint64_t ProxyNode::record_span(SpanKind kind, std::uint64_t request_id,
                                     DocumentId document, TimePoint now, std::uint64_t parent,
                                     std::int32_t hop, std::int64_t value, std::int32_t peer,
                                     std::int8_t flag) {
  // Only roots (arrivals) may lack a parent; anything else without one
  // belongs to a request that carries no trace identity.
  if (!accounting_.flight.enabled() || (parent == 0 && kind != SpanKind::kArrival)) return 0;
  SpanEvent event;
  event.request = request_id;
  event.at_ms = span_ms(now);
  event.document = document;
  event.value = value;
  // Unique across units without shared state: node id in the high bits.
  event.span = ((static_cast<std::uint64_t>(id()) + 1) << 40) | ++accounting_.next_span;
  if (parent != 0) event.parent_span = static_cast<std::int64_t>(parent);
  event.proxy = id();
  event.peer = peer;
  event.hop = hop;
  event.kind = kind;
  event.flag = flag;
  accounting_.flight.record(event);
  return event.span;
}

RunResult collect_run_result(const GroupView& group,
                             const std::vector<const NodeAccounting*>& units,
                             const std::vector<const ProxyNode*>& nodes) {
  RunResult result;
  MetricRegistry registry(group.config.obs.registry);
  for (const NodeAccounting* unit : units) {
    result.metrics.merge(unit->metrics);
    result.transport.merge(unit->transport.stats());
    registry.merge(unit->registry);
  }

  // Occupancy diagnostics and per-proxy reporting, in proxy-id order, plus
  // the end-of-run gauges CacheGroup::export_final_gauges stamps.
  std::unordered_map<DocumentId, bool> seen;
  double age_sum_ms = 0.0;
  std::size_t finite_ages = 0;
  for (const ProxyNode* node : nodes) {
    const ProxyCache& proxy = node->cache();
    const ExpAge age = proxy.contention().lifetime_average();
    if (!age.is_infinite()) {
      age_sum_ms += age.millis();
      ++finite_ages;
    }
    result.per_cache_expiration_age.push_back(age);
    result.proxy_stats.push_back(proxy.stats());
    result.total_resident_copies += proxy.store().resident_count();
    for (const DocumentId id : proxy.store().resident_ids()) seen[id] = true;
    if (registry.enabled()) {
      const std::string prefix = "proxy." + std::to_string(proxy.id()) + ".";
      registry.gauge(prefix + "resident_bytes")
          .set(static_cast<double>(proxy.store().resident_bytes()));
      registry.gauge(prefix + "resident_docs")
          .set(static_cast<double>(proxy.store().resident_count()));
    }
  }
  result.unique_resident_documents = seen.size();
  result.replication_factor =
      seen.empty() ? 0.0
                   : static_cast<double>(result.total_resident_copies) /
                         static_cast<double>(seen.size());
  result.average_cache_expiration_age =
      finite_ages == 0 ? ExpAge::infinite()
                       : ExpAge::from_millis(age_sum_ms / static_cast<double>(finite_ages));
  if (registry.enabled()) {
    registry.gauge("group.replication_factor").set(result.replication_factor);
  }
  result.registry = registry.snapshot();
  return result;
}

}  // namespace eacache
