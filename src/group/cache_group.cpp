#include "group/cache_group.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/hash.h"

namespace eacache {

namespace {

/// Validation gate for the constructor: runs before any member that depends
/// on the config (the topology is built in the initializer list).
const GroupConfig& validated(const GroupConfig& config) {
  config.validate_or_throw();
  return config;
}

}  // namespace

Topology topology_from(const GroupConfig& config) {
  if (!config.custom_parents.empty()) {
    return Topology::from_parents(TopologyKind::kHierarchical, config.custom_parents);
  }
  switch (config.topology) {
    case TopologyKind::kDistributed: return Topology::distributed(config.num_proxies);
    case TopologyKind::kHierarchical: return Topology::two_level(config.num_proxies);
  }
  throw std::invalid_argument("topology_from: bad topology kind");
}

std::vector<Bytes> cache_budgets(const GroupConfig& config, std::size_t total_caches) {
  std::vector<Bytes> budgets(total_caches, config.aggregate_capacity / total_caches);
  if (!config.capacity_weights.empty()) {
    double weight_sum = 0.0;
    for (const double w : config.capacity_weights) weight_sum += w;
    for (std::size_t p = 0; p < total_caches; ++p) {
      budgets[p] = static_cast<Bytes>(static_cast<double>(config.aggregate_capacity) *
                                      config.capacity_weights[p] / weight_sum);
    }
  }
  return budgets;
}

ProxyId home_proxy_in(const Topology& topology, UserId user) {
  const auto& facing = topology.client_facing();
  return facing[mix64(user) % facing.size()];
}

std::shared_ptr<const PlacementPolicy> placement_for(const GroupConfig& config) {
  if (config.placement_override) return config.placement_override;
  return make_placement(config.placement, config.ea_hysteresis);
}

GroupCounters::GroupCounters(MetricRegistry& registry) {
  if (!registry.enabled()) return;
  requests = registry.counter("group.requests");
  icp_queries = registry.counter("group.icp.queries");
  icp_replies = registry.counter("group.icp.replies");
  icp_losses = registry.counter("group.icp.losses");
  sibling_fetches = registry.counter("group.sibling_fetches");
  parent_fetches = registry.counter("group.parent_fetches");
  origin_fetches = registry.counter("group.origin_fetches");
  request_bytes = registry.histogram("group.request_bytes", 0.0, static_cast<double>(kMiB), 64);
}

void sort_by_ring_distance(std::vector<ProxyId>& peers, ProxyId requester,
                           std::size_t num_caches) {
  std::sort(peers.begin(), peers.end(), [&](ProxyId a, ProxyId b) {
    return (a + num_caches - requester) % num_caches <
           (b + num_caches - requester) % num_caches;
  });
}

std::size_t GroupConfig::total_cache_count() const {
  if (!custom_parents.empty()) return custom_parents.size();
  return num_proxies + (topology == TopologyKind::kHierarchical ? 1 : 0);
}

std::vector<std::string> GroupConfig::validate() const {
  std::vector<std::string> errors;
  const auto fail = [&errors](std::string message) { errors.push_back(std::move(message)); };

  if (custom_parents.empty() && num_proxies == 0) {
    fail("num_proxies must be positive");
  }
  if (!custom_parents.empty() && topology != TopologyKind::kHierarchical) {
    fail("custom_parents requires the kHierarchical topology");
  }

  const std::size_t total_caches = total_cache_count();
  bool weights_usable = true;
  if (!capacity_weights.empty()) {
    if (capacity_weights.size() != total_caches) {
      fail("capacity_weights has " + std::to_string(capacity_weights.size()) +
           " entries but the group has " + std::to_string(total_caches) + " caches");
      weights_usable = false;
    }
    for (const double w : capacity_weights) {
      if (!(w > 0.0)) {
        fail("capacity_weights entries must be positive");
        weights_usable = false;
        break;
      }
    }
  }
  if (total_caches > 0 && weights_usable) {
    for (const Bytes budget : cache_budgets(*this, total_caches)) {
      if (budget == 0) {
        fail("aggregate_capacity too small: some cache's budget rounds to zero bytes");
        break;
      }
    }
  }

  if (coherence.enabled) {
    if (coherence.fresh_ttl <= Duration::zero()) {
      fail("coherence.fresh_ttl must be positive");
    }
    if (coherence.rule == FreshnessRule::kLmFactor &&
        (!(coherence.lm_factor > 0.0) || coherence.min_ttl <= Duration::zero() ||
         coherence.max_ttl < coherence.min_ttl)) {
      fail("coherence LM-factor parameters are inconsistent (lm_factor > 0, "
           "0 < min_ttl <= max_ttl required)");
    }
  }

  if (routing == RoutingMode::kHashPartition) {
    if (topology != TopologyKind::kDistributed) {
      fail("hash partitioning requires a flat (kDistributed) group");
    }
    if (placement != PlacementKind::kAdHoc) {
      fail("hash partitioning IS the placement scheme; placement must be kAdHoc");
    }
    if (prefetch.enabled) {
      fail("prefetching is a cooperative-mode feature (document homes are fixed "
           "under hash partitioning)");
    }
  }

  if (prefetch.enabled &&
      !(prefetch.min_confidence >= 0.0 && prefetch.min_confidence <= 1.0)) {
    fail("prefetch.min_confidence must be in [0, 1]");
  }

  if (icp_loss_probability < 0.0 || icp_loss_probability > 1.0) {
    fail("icp_loss_probability must be in [0, 1]");
  }

  if (pipeline.event_driven) {
    if (pipeline.icp_timeout <= Duration::zero()) {
      fail("pipeline.icp_timeout must be positive");
    } else if (pipeline.icp_timeout <= latency.icp_rtt) {
      fail("pipeline.icp_timeout must exceed latency.icp_rtt (replies would "
           "always time out)");
    }
  } else if (pipeline.icp_retries > 0 || pipeline.coalesce) {
    fail("pipeline.icp_retries / pipeline.coalesce require pipeline.event_driven");
  }
  if (!(pipeline.retry_backoff >= 1.0)) {
    fail("pipeline.retry_backoff must be >= 1");
  }

  if (placement_override && placement_override->kind() != placement) {
    fail("placement_override's kind() disagrees with the `placement` enum");
  }

  return errors;
}

void GroupConfig::validate_or_throw() const {
  const std::vector<std::string> errors = validate();
  if (errors.empty()) return;
  std::string message = "invalid GroupConfig: ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) message += "; ";
    message += errors[i];
  }
  throw std::invalid_argument(message);
}

CacheGroup::CacheGroup(const GroupConfig& config)
    : config_(validated(config)),
      topology_(topology_from(config_)),
      placement_(placement_for(config_)),
      registry_(config.obs.registry),
      trace_log_(config.obs.trace_capacity),
      transport_(config.wire),
      digest_directory_(config.digest) {
  const std::size_t total_caches = topology_.num_proxies();
  const std::vector<Bytes> budgets = cache_budgets(config_, total_caches);

  const DigestConfig* digest =
      config_.discovery == DiscoveryMode::kDigest ? &config_.digest : nullptr;
  proxies_.reserve(total_caches);
  for (std::size_t p = 0; p < total_caches; ++p) {
    proxies_.push_back(std::make_unique<ProxyCache>(
        static_cast<ProxyId>(p), budgets[p], make_policy(config_.replacement), config_.window,
        placement_.get(), digest, &registry_));
  }
  last_digest_publish_.assign(total_caches, kSimEpoch);
  digest_published_once_.assign(total_caches, false);

  transport_.bind_registry(&registry_, total_caches);
  obs_ = GroupCounters(registry_);

  if (config_.coherence.enabled) origin_.emplace(config_.origin);

  if (config_.routing == RoutingMode::kHashPartition) {
    hash_ring_.emplace(config_.hash_virtual_nodes);
    for (const ProxyId p : topology_.client_facing()) hash_ring_->add_proxy(p);
  }

  if (config_.prefetch.enabled) {
    predictors_.assign(total_caches, MarkovPredictor{});
    pending_prefetch_.assign(total_caches, {});
  }

  network_rng_.reseed(config_.network_seed);
}

std::size_t CacheGroup::pending_prefetches() const {
  // Only copies still resident are genuinely "pending" — a speculative
  // copy evicted before any demand was simply wasted.
  std::size_t pending = 0;
  for (std::size_t p = 0; p < pending_prefetch_.size(); ++p) {
    for (const DocumentId id : pending_prefetch_[p]) {
      if (proxies_[p]->store().contains(id)) ++pending;
    }
  }
  return pending;
}

void CacheGroup::learn_and_prefetch(ProxyCache& requester, const Request& request,
                                    TimePoint now) {
  const ProxyId p = requester.id();
  known_sizes_[request.document] = request.size;

  // Learn the per-user transition.
  const auto [it, inserted] = last_document_.try_emplace(request.user, request.document);
  if (!inserted) {
    if (it->second != request.document) {
      predictors_[p].observe(it->second, request.document);
    }
    it->second = request.document;
  }

  // Act on a confident prediction: speculative origin fetch into this proxy.
  const auto prediction = predictors_[p].predict(request.document);
  if (!prediction || prediction->confidence < config_.prefetch.min_confidence ||
      prediction->observations < config_.prefetch.min_observations) {
    return;
  }
  if (requester.store().contains(prediction->document)) return;
  const auto size_it = known_sizes_.find(prediction->document);
  if (size_it == known_sizes_.end()) return;  // size unknown: cannot speculate

  Document speculative{prediction->document, size_it->second, 0};
  if (origin_) speculative.version = origin_->version_at(speculative.id, now);
  note_origin_fetch(p, speculative, now, /*speculative=*/true);
  requester.cache_after_origin_fetch(speculative, now);
  if (requester.store().contains(speculative.id)) {
    pending_prefetch_[p].insert(speculative.id);
    ++prefetch_stats_.issued;
    prefetch_stats_.bytes_prefetched += speculative.size;
  }
}

void CacheGroup::refresh_digests(TimePoint now) {
  for (std::size_t p = 0; p < proxies_.size(); ++p) {
    if (digest_published_once_[p] && now - last_digest_publish_[p] < config_.digest.refresh_period) {
      continue;
    }
    BloomFilter snapshot = proxies_[p]->publish_digest();
    const Bytes wire_size = snapshot.wire_size();
    digest_directory_.update(static_cast<ProxyId>(p), std::move(snapshot), now);
    // Broadcast cost: one message per receiving peer.
    for (std::size_t q = 0; q < proxies_.size(); ++q) {
      if (q == p) continue;
      transport_.record_digest_publication(
          DigestPublication{static_cast<ProxyId>(p), static_cast<ProxyId>(q), wire_size});
    }
    last_digest_publish_[p] = now;
    digest_published_once_[p] = true;
  }
}

void CacheGroup::sort_by_ring_distance(std::vector<ProxyId>& peers, ProxyId requester) const {
  eacache::sort_by_ring_distance(peers, requester, proxies_.size());
}

bool CacheGroup::peer_down(ProxyId proxy, TimePoint at) const {
  for (const PeerOutage& outage : outages_) {
    if (outage.proxy == proxy && at >= outage.start && at < outage.end) return true;
  }
  return false;
}

std::vector<ProxyId> CacheGroup::probe_targets(ProxyId requester) const {
  std::vector<ProxyId> targets;
  targets.reserve(topology_.peer_count(requester));
  topology_.for_each_peer(requester, [&targets](ProxyId peer) { targets.push_back(peer); });
  return targets;
}

CacheGroup::ProbeResult CacheGroup::probe_peer(ProxyCache& requester, ProxyId target,
                                               const Request& request, TimePoint now) {
  const IcpQuery query{requester.id(), target, request.document};
  transport_.record_icp_query(query);
  obs_.icp_queries.inc();
  // UDP is best-effort: a lost query or reply looks like a peer miss and
  // the requester falls back to the origin (a duplicate fetch). A peer in
  // an injected outage window behaves exactly like a loss — it never
  // answers. The outage check precedes the RNG draw so that configurations
  // without outages consume loss draws identically with or without this
  // feature compiled into the flow.
  const bool down = peer_down(target, now);
  if (down || (config_.icp_loss_probability > 0.0 &&
               network_rng_.next_bool(config_.icp_loss_probability))) {
    transport_.record_icp_loss();
    obs_.icp_losses.inc();
    if (trace_log_.enabled()) {
      SpanEvent event;
      event.request = current_request_;
      event.at_ms = sim_ms(now);
      event.document = request.document;
      event.proxy = requester.id();
      event.peer = static_cast<std::int32_t>(target);
      event.kind = SpanKind::kIcpLoss;
      trace_log_.record(event);
    }
    return ProbeResult::kLost;
  }
  // A proxy only advertises copies it could legally serve: with coherence
  // on, TTL-stale copies answer "miss".
  const bool hit = copy_is_fresh(*proxies_[target], request.document, now);
  proxies_[target]->note_icp_answer(hit);
  transport_.record_icp_reply(IcpReply{target, requester.id(), request.document, hit});
  obs_.icp_replies.inc();
  if (trace_log_.enabled()) {
    SpanEvent event;
    event.request = current_request_;
    event.at_ms = sim_ms(now);
    event.document = request.document;
    event.proxy = requester.id();
    event.peer = static_cast<std::int32_t>(target);
    event.kind = SpanKind::kIcpProbe;
    event.flag = hit ? 1 : 0;
    trace_log_.record(event);
  }
  return hit ? ProbeResult::kHit : ProbeResult::kMiss;
}

std::vector<ProxyId> CacheGroup::digest_candidates(ProxyId requester,
                                                   DocumentId document) const {
  const std::vector<ProxyId> claimed = digest_directory_.candidates(document);
  std::vector<ProxyId> candidates;
  topology_.for_each_peer(requester, [&](ProxyId target) {
    if (std::binary_search(claimed.begin(), claimed.end(), target)) {
      candidates.push_back(target);
    }
  });
  return candidates;
}

std::vector<ProxyId> CacheGroup::discover_candidates(ProxyCache& requester,
                                                     const Request& request) {
  std::vector<ProxyId> candidates;
  if (config_.discovery == DiscoveryMode::kIcp) {
    topology_.for_each_peer(requester.id(), [&](ProxyId target) {
      if (probe_peer(requester, target, request, request.at) == ProbeResult::kHit) {
        candidates.push_back(target);
      }
    });
  } else {
    candidates = digest_candidates(requester.id(), request.document);
  }
  sort_by_ring_distance(candidates, requester.id());
  return candidates;
}

Document CacheGroup::document_from(const Request& request, TimePoint now) const {
  Document document{request.document, request.size, 0};
  if (origin_) document.version = origin_->version_at(request.document, now);
  return document;
}

Duration CacheGroup::freshness_lifetime(const CacheEntry& entry) const {
  const CoherenceConfig& coherence = config_.coherence;
  if (coherence.rule == FreshnessRule::kFixedTtl) return coherence.fresh_ttl;
  // Squid's LM-factor heuristic: a document unchanged for a long time is
  // unlikely to change soon.
  const TimePoint modified = origin_->version_start(entry.id, entry.version);
  const Duration age_when_validated =
      entry.last_validated > modified ? entry.last_validated - modified : Duration::zero();
  const auto lifetime = Duration{static_cast<SimClock::rep>(
      coherence.lm_factor * static_cast<double>(age_when_validated.count()))};
  return std::clamp(lifetime, coherence.min_ttl, coherence.max_ttl);
}

bool CacheGroup::copy_is_fresh(const ProxyCache& proxy, DocumentId document,
                               TimePoint now) const {
  const auto entry = proxy.store().peek(document);
  if (!entry) return false;
  if (!coherence_on()) return true;
  return now - entry->last_validated < freshness_lifetime(*entry);
}

CacheGroup::LocalLookup CacheGroup::local_lookup(ProxyCache& proxy, const Request& request,
                                                 TimePoint now) {
  const auto entry = proxy.store().peek(request.document);
  if (!entry) return {LocalState::kMiss, 0};

  const auto trace_local_hit = [&](Bytes size, bool validated) {
    if (!trace_log_.enabled()) return;
    SpanEvent event;
    event.request = current_request_;
    event.at_ms = sim_ms(now);
    event.document = request.document;
    event.proxy = proxy.id();
    event.kind = SpanKind::kLocalHit;
    event.flag = validated ? 1 : 0;
    event.value = static_cast<std::int64_t>(size);
    trace_log_.record(event);
  };

  if (!coherence_on()) {
    const auto size = proxy.serve_local(request.document, now);
    trace_local_hit(*size, false);
    return {LocalState::kFreshHit, *size};
  }

  const std::uint64_t current = origin_->version_at(request.document, now);
  if (now - entry->last_validated < freshness_lifetime(*entry)) {
    // TTL-fresh: served without contacting the origin. The oracle tells us
    // whether that quietly served stale content.
    if (entry->version != current) ++coherence_stats_.stale_served;
    const auto size = proxy.serve_local(request.document, now);
    trace_local_hit(*size, false);
    return {LocalState::kFreshHit, *size};
  }

  // TTL expired: If-Modified-Since round trip to the origin.
  ++coherence_stats_.validations;
  if (entry->version == current) {
    ++coherence_stats_.validated_304;
    proxy.mark_validated(request.document, now);
    const auto size = proxy.serve_local(request.document, now);
    trace_local_hit(*size, true);
    return {LocalState::kValidatedHit, *size};
  }
  // Changed at the origin: the 200 reply replaces the body; the old copy
  // is dropped here and the caller completes the origin fetch.
  ++coherence_stats_.validated_200;
  proxy.invalidate(request.document, now);
  return {LocalState::kChanged, 0};
}

ProxyId CacheGroup::home_proxy(UserId user) const { return home_proxy_in(topology_, user); }

void CacheGroup::flush_proxy(ProxyId proxy, TimePoint now) {
  proxies_.at(proxy)->flush(now);
}

std::uint64_t CacheGroup::begin_request(ProxyCache& requester, const Request& request) {
  requester.note_client_request();
  current_request_ = request_seq_++;
  obs_.requests.inc();
  obs_.request_bytes.observe(static_cast<double>(request.size));
  if (trace_log_.enabled()) {
    SpanEvent event;
    event.request = current_request_;
    event.at_ms = sim_ms(request.at);
    event.document = request.document;
    event.proxy = requester.id();
    event.kind = SpanKind::kArrival;
    event.value = static_cast<std::int64_t>(request.size);
    trace_log_.record(event);
  }
  return current_request_;
}

void CacheGroup::record_complete_span(ProxyId proxy, DocumentId document,
                                      std::uint64_t request_id, TimePoint at,
                                      RequestOutcome outcome) {
  if (!trace_log_.enabled()) return;
  SpanEvent event;
  event.request = request_id;
  event.at_ms = sim_ms(at);
  event.document = document;
  event.proxy = proxy;
  event.kind = SpanKind::kComplete;
  event.value = static_cast<std::int64_t>(outcome);
  trace_log_.record(event);
}

RequestOutcome CacheGroup::serve(const Request& request) {
  if (config_.discovery == DiscoveryMode::kDigest) refresh_digests(request.at);
  ProxyCache& requester = *proxies_[home_proxy(request.user)];
  const std::uint64_t request_id = begin_request(requester, request);

  Resolution resolved;
  if (config_.routing == RoutingMode::kHashPartition) {
    resolved = resolve_hash_partition(requester, request, request.at);
    metrics_.record(resolved.outcome, resolved.bytes, resolved.latency);
  } else {
    // A speculative copy stops being speculative the moment it is demanded.
    const bool was_prefetched =
        config_.prefetch.enabled &&
        pending_prefetch_[requester.id()].erase(request.document) > 0;

    resolved = resolve_cooperative(requester, request, request.at);
    metrics_.record(resolved.outcome, resolved.bytes, resolved.latency);

    if (config_.prefetch.enabled) {
      if (was_prefetched && resolved.outcome == RequestOutcome::kLocalHit) {
        ++prefetch_stats_.useful;
      }
      learn_and_prefetch(requester, request, request.at);
    }
  }

  record_complete_span(requester.id(), request.document, request_id, request.at,
                       resolved.outcome);
  return resolved.outcome;
}

CacheGroup::Resolution CacheGroup::resolve_hash_partition(ProxyCache& requester,
                                                          const Request& request,
                                                          TimePoint now) {
  const ProxyId home_id = hash_ring_->home_of(request.document);

  const Document document = document_from(request, now);

  if (home_id == requester.id()) {
    // The requester IS the document's home.
    const LocalLookup local = local_lookup(requester, request, now);
    if (local.state == LocalState::kFreshHit) {
      return {RequestOutcome::kLocalHit, local.size, config_.latency.local_hit};
    }
    if (local.state == LocalState::kValidatedHit) {
      return {RequestOutcome::kLocalHit, local.size,
              config_.latency.local_hit + config_.coherence.validation_rtt};
    }
    note_origin_fetch(requester.id(), document, now, /*speculative=*/false);
    if (!requester.store().contains(document.id)) {
      requester.cache_after_origin_fetch(document, now);
    }
    return {RequestOutcome::kMiss, document.size, config_.latency.miss};
  }

  // Forward to the home cache; the requester never keeps a copy (pure
  // partitioning: the aggregate disk holds at most one copy per document).
  ProxyCache& home = *proxies_[home_id];
  HttpRequest forward;
  forward.from = requester.id();
  forward.to = home_id;
  forward.document = request.document;
  transport_.record_http_request(forward);

  const LocalLookup at_home = local_lookup(home, request, now);
  if (at_home.state == LocalState::kFreshHit || at_home.state == LocalState::kValidatedHit) {
    HttpResponse response;
    response.from = home_id;
    response.to = requester.id();
    response.document = request.document;
    response.body_size = at_home.size;
    response.source = ResponseSource::kCache;
    transport_.record_http_response(response);
    const Duration extra = at_home.state == LocalState::kValidatedHit
                               ? config_.coherence.validation_rtt
                               : Duration::zero();
    return {RequestOutcome::kRemoteHit, at_home.size, config_.latency.remote_hit + extra};
  }

  // Home miss (or changed at origin): the home fetches and keeps the copy.
  note_origin_fetch(home_id, document, now, /*speculative=*/false);
  if (!home.store().contains(document.id)) {
    home.cache_after_origin_fetch(document, now);
  }
  HttpResponse response;
  response.from = home_id;
  response.to = requester.id();
  response.document = request.document;
  response.body_size = document.size;
  response.source = ResponseSource::kOrigin;
  transport_.record_http_response(response);
  return {RequestOutcome::kMiss, document.size, config_.latency.miss};
}

CacheGroup::Resolution CacheGroup::resolve_cooperative(ProxyCache& requester,
                                                       const Request& request, TimePoint now) {
  // 1. Local lookup (a promoting hit if resident; with coherence on this
  // runs the freshness/validation state machine).
  const LocalLookup local = local_lookup(requester, request, now);
  switch (local.state) {
    case LocalState::kFreshHit:
      return {RequestOutcome::kLocalHit, local.size, config_.latency.local_hit};
    case LocalState::kValidatedHit:
      return {RequestOutcome::kLocalHit, local.size,
              config_.latency.local_hit + config_.coherence.validation_rtt};
    case LocalState::kChanged: {
      // The If-Modified-Since reply carried the new body: an origin fetch.
      const Document document = document_from(request, now);
      note_origin_fetch(requester.id(), document, now, /*speculative=*/false);
      if (!requester.store().contains(document.id)) {
        requester.cache_after_origin_fetch(document, now);
      }
      return {RequestOutcome::kMiss, document.size, config_.latency.miss};
    }
    case LocalState::kMiss:
      break;
  }

  // 2. Locate peer copies: ICP fan-out (exact) or digest lookup
  // (approximate), best candidate first.
  const std::vector<ProxyId> candidates = discover_candidates(requester, request);

  // 3. Fetch through the candidates, falling back to the group-miss
  // resolution.
  return try_candidates(requester, request, candidates, now);
}

CacheGroup::Resolution CacheGroup::try_candidates(ProxyCache& requester, const Request& request,
                                                  const std::vector<ProxyId>& candidates,
                                                  TimePoint now) {
  // Fetch from the first candidate that actually has the document. ICP
  // candidates always do (in the synchronous driver); digest candidates can
  // be stale, and under the event-driven driver an ICP candidate may have
  // evicted the copy while the reply was in flight. Failed probes
  // accumulate a latency penalty that carries into whatever resolves the
  // request.
  Duration probe_penalty = Duration::zero();
  for (const ProxyId responder_id : candidates) {
    ProxyCache& responder = *proxies_[responder_id];

    HttpRequest fetch;
    fetch.from = requester.id();
    fetch.to = responder_id;
    fetch.document = request.document;
    if (placement_->kind() != PlacementKind::kAdHoc) {
      fetch.requester_age = requester.expiration_age(now);
    }
    transport_.record_http_request(fetch);
    obs_.sibling_fetches.inc();

    // Stale candidates answer in two ways: the copy is gone, or (with
    // coherence on) it is TTL-expired and the responder will not serve it.
    HttpResponse response;
    if (coherence_on() && responder.store().contains(request.document) &&
        !copy_is_fresh(responder, request.document, now)) {
      response.from = responder_id;
      response.to = requester.id();
      response.document = request.document;
      response.found = false;
    } else {
      response = responder.serve_fetch(fetch, now);
    }
    transport_.record_http_response(response);
    if (trace_log_.enabled()) {
      SpanEvent event;
      event.request = current_request_;
      event.at_ms = sim_ms(now);
      event.document = request.document;
      event.proxy = requester.id();
      event.peer = static_cast<std::int32_t>(responder_id);
      event.kind = SpanKind::kSiblingFetch;
      event.requester_ea_ms = ea_ms(fetch.requester_age);
      event.responder_ea_ms = ea_ms(response.responder_age);
      event.flag = response.found ? 1 : 0;
      if (response.found) event.value = static_cast<std::int64_t>(response.body_size);
      trace_log_.record(event);
    }
    if (!response.found) {
      probe_penalty += config_.latency.failed_probe;
      continue;
    }

    if (coherence_on() && response.version != document_from(request, now).version) {
      ++coherence_stats_.stale_served;
    }
    const bool kept = requester.consider_caching(
        Document{request.document, response.body_size, response.version},
        response.responder_age, now,
        coherence_on() ? std::optional<TimePoint>(response.validated_at) : std::nullopt);
    trace_placement(requester.id(), request.document, now, response.body_size,
                    fetch.requester_age, response.responder_age, kept);
    return {RequestOutcome::kRemoteHit, response.body_size,
            config_.latency.remote_hit + probe_penalty};
  }

  return resolve_group_miss(requester, request, probe_penalty, now);
}

CacheGroup::Resolution CacheGroup::resolve_group_miss(ProxyCache& requester,
                                                      const Request& request,
                                                      Duration probe_penalty, TimePoint now) {
  const auto parent = topology_.parent_of(requester.id());

  if (!parent) {
    // 4. Distributed architecture: fetch from the origin, cache locally
    // (conventional step — identical under both schemes).
    const Document document = document_from(request, now);
    note_origin_fetch(requester.id(), document, now, /*speculative=*/false);
    if (!requester.store().contains(document.id)) {
      requester.cache_after_origin_fetch(document, now);
    }
    return {RequestOutcome::kMiss, document.size, config_.latency.miss + probe_penalty};
  }

  // 5. Hierarchical architecture: the parent chain resolves the miss.
  const HttpResponse response = fetch_via_parent(requester, *parent, request, now);
  const bool kept = requester.consider_caching(
      Document{request.document, response.body_size, response.version},
      response.responder_age, now,
      coherence_on() ? std::optional<TimePoint>(response.validated_at) : std::nullopt);
  trace_placement(requester.id(), request.document, now, response.body_size, std::nullopt,
                  response.responder_age, kept);
  if (response.source == ResponseSource::kCache) {
    // A cache above the ICP horizon (grandparent or higher) had the
    // document: the group served it after all.
    return {RequestOutcome::kRemoteHit, response.body_size,
            config_.latency.remote_hit + probe_penalty};
  }
  return {RequestOutcome::kMiss, response.body_size, config_.latency.miss + probe_penalty};
}

HttpResponse CacheGroup::fetch_via_parent(ProxyCache& child, ProxyId parent_id,
                                          const Request& request, TimePoint now) {
  ProxyCache& parent = *proxies_[parent_id];

  HttpRequest hop;
  hop.from = child.id();
  hop.to = parent_id;
  hop.document = request.document;
  if (placement_->kind() != PlacementKind::kAdHoc) {
    hop.requester_age = child.expiration_age(now);
  }
  transport_.record_http_request(hop);
  obs_.parent_fetches.inc();

  // A TTL-stale copy at the parent cannot be served; it will be replaced by
  // the fresh body flowing down, so drop it now (admission below would
  // otherwise be blocked by the stale resident).
  if (coherence_on() && parent.store().contains(request.document) &&
      !copy_is_fresh(parent, request.document, now)) {
    parent.invalidate(request.document, now);
  }

  HttpResponse response;
  if (parent.store().contains(request.document)) {
    // Reachable above the ICP horizon (the direct parent answered a
    // negative ICP probe just now) and, under the event-driven driver, when
    // a concurrent request populated the parent meanwhile: a cache hit at a
    // higher level.
    response = parent.serve_remote(hop, now);
  } else if (const auto grandparent = topology_.parent_of(parent_id)) {
    // The parent obtains the document through its own parent, deciding as a
    // requester whether to keep a copy, then answers the child with its own
    // expiration age.
    const HttpResponse upper = fetch_via_parent(parent, *grandparent, request, now);
    const bool kept = parent.consider_caching(
        Document{request.document, upper.body_size, upper.version}, upper.responder_age, now,
        coherence_on() ? std::optional<TimePoint>(upper.validated_at) : std::nullopt);
    trace_placement(parent_id, request.document, now, upper.body_size, std::nullopt,
                    upper.responder_age, kept);
    response.from = parent_id;
    response.to = child.id();
    response.document = request.document;
    response.body_size = upper.body_size;
    response.source = upper.source;
    response.version = upper.version;
    response.validated_at = upper.validated_at;
    if (placement_->kind() != PlacementKind::kAdHoc) {
      response.responder_age = parent.expiration_age(now);
    }
  } else {
    // Top of the chain: fetch from the origin; the parent placement rule
    // (paper section 3.3) decides whether this cache keeps a copy.
    const Document document = document_from(request, now);
    note_origin_fetch(parent_id, document, now, /*speculative=*/false);
    response = parent.resolve_miss_as_parent(document, hop, now);
  }
  transport_.record_http_response(response);
  if (trace_log_.enabled()) {
    SpanEvent event;
    event.request = current_request_;
    event.at_ms = sim_ms(now);
    event.document = request.document;
    event.proxy = child.id();
    event.peer = static_cast<std::int32_t>(parent_id);
    event.kind = SpanKind::kParentFetch;
    event.requester_ea_ms = ea_ms(hop.requester_age);
    event.responder_ea_ms = ea_ms(response.responder_age);
    event.flag = 1;  // the parent chain always resolves the document
    event.value = static_cast<std::int64_t>(response.body_size);
    trace_log_.record(event);
  }
  return response;
}

void CacheGroup::note_origin_fetch(ProxyId requester, const Document& document, TimePoint at,
                                   bool speculative) {
  transport_.record_origin_fetch(requester, document.size);
  obs_.origin_fetches.inc();
  if (trace_log_.enabled()) {
    SpanEvent event;
    event.request = current_request_;
    event.at_ms = sim_ms(at);
    event.document = document.id;
    event.proxy = requester;
    event.kind = SpanKind::kOriginFetch;
    event.flag = speculative ? 1 : 0;
    event.value = static_cast<std::int64_t>(document.size);
    trace_log_.record(event);
  }
}

void CacheGroup::trace_placement(ProxyId proxy, DocumentId document, TimePoint at, Bytes size,
                                 std::optional<ExpAge> requester_age,
                                 std::optional<ExpAge> responder_age, bool accepted) {
  if (auditor_ != nullptr) {
    auditor_->on_placement(proxy, document, at, size, requester_age, responder_age, accepted);
  }
  if (!trace_log_.enabled()) return;
  SpanEvent event;
  event.request = current_request_;
  event.at_ms = sim_ms(at);
  event.document = document;
  event.proxy = proxy;
  event.kind = SpanKind::kPlacement;
  event.requester_ea_ms = ea_ms(requester_age);
  event.responder_ea_ms = ea_ms(responder_age);
  event.flag = accepted ? 1 : 0;
  trace_log_.record(event);
}

void CacheGroup::export_final_gauges() {
  if (!registry_.enabled()) return;
  for (const auto& proxy : proxies_) {
    const std::string prefix = "proxy." + std::to_string(proxy->id()) + ".";
    registry_.gauge(prefix + "resident_bytes")
        .set(static_cast<double>(proxy->store().resident_bytes()));
    registry_.gauge(prefix + "resident_docs")
        .set(static_cast<double>(proxy->store().resident_count()));
  }
  registry_.gauge("group.replication_factor").set(replication_factor());
}

ExpAge CacheGroup::average_cache_expiration_age() const {
  double sum_ms = 0.0;
  std::size_t finite = 0;
  for (const auto& proxy : proxies_) {
    const ExpAge age = proxy->contention().lifetime_average();
    if (!age.is_infinite()) {
      sum_ms += age.millis();
      ++finite;
    }
  }
  if (finite == 0) return ExpAge::infinite();
  return ExpAge::from_millis(sum_ms / static_cast<double>(finite));
}

std::size_t CacheGroup::total_resident_copies() const {
  std::size_t total = 0;
  for (const auto& proxy : proxies_) total += proxy->store().resident_count();
  return total;
}

std::size_t CacheGroup::unique_resident_documents() const {
  std::unordered_map<DocumentId, bool> seen;
  for (const auto& proxy : proxies_) {
    for (const DocumentId id : proxy->store().resident_ids()) seen[id] = true;
  }
  return seen.size();
}

double CacheGroup::replication_factor() const {
  const std::size_t unique = unique_resident_documents();
  if (unique == 0) return 0.0;
  return static_cast<double>(total_resident_copies()) / static_cast<double>(unique);
}

}  // namespace eacache
