// CacheGroup: the cooperative cache as a whole — proxies, topology,
// transport accounting and the request orchestration of paper section 3.3.
//
// Request flow for one client request:
//   1. The user's home proxy (users are pinned to client-facing proxies by a
//      stable hash, as in a departmental deployment) tries a local hit.
//   2. On local miss: ICP query to every sibling (and the parent, in the
//      hierarchical architecture); each probe costs one query + one reply.
//   3. Any positive reply -> HTTP fetch from the chosen responder: a REMOTE
//      HIT. Placement decisions fire on both ends (requester keep-a-copy,
//      responder promote-or-not).
//   4. All negative, distributed architecture -> fetch from the origin and
//      (conventionally) cache: a MISS.
//   5. All negative, hierarchical architecture -> HTTP request up the
//      parent chain; the top fetches from the origin; every cache on the
//      path applies the parent placement rule; still a MISS (the origin was
//      contacted).
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/outcome.h"
#include "common/random.h"
#include "common/types.h"
#include "digest/digest_directory.h"
#include "ea/contention.h"
#include "ea/placement.h"
#include "group/hash_ring.h"
#include "group/pipeline_config.h"
#include "group/topology.h"
#include "metrics/metrics.h"
#include "net/latency_model.h"
#include "net/transport.h"
#include "obs/metric_registry.h"
#include "obs/obs_config.h"
#include "obs/trace_log.h"
#include "origin/origin_server.h"
#include "prefetch/markov_predictor.h"
#include "proxy/proxy_cache.h"
#include "storage/replacement_policy.h"
#include "trace/trace.h"

namespace eacache {

/// How a cache locates documents held by its peers.
///  * kIcp    — per-miss query/reply to every sibling (exact, chatty): the
///              protocol the paper's experiments use.
///  * kDigest — Summary-Cache style (paper ref. [6]): periodic Bloom-filter
///              snapshots; no per-miss queries, but snapshots go stale
///              (wasted probes / missed remote hits).
enum class DiscoveryMode { kIcp, kDigest };

/// How requests move between caches.
///  * kCooperative   — the paper's model: try locally, discover peer copies
///                     (ICP or digests), fetch remotely or from the origin;
///                     the PLACEMENT policy decides who keeps copies.
///  * kHashPartition — the consistent-hashing baseline (paper refs. [8] and
///                     [16]): every document has exactly one home cache on
///                     a hash ring; requests forward there; no replication
///                     at all. Placement must be kAdHoc (partitioning IS
///                     the placement decision) and the topology distributed.
enum class RoutingMode { kCooperative, kHashPartition };

/// TTL + If-Modified-Since coherence (off by default — the paper's own
/// experiments assume immutable documents).
///
/// When enabled, a cached copy is FRESH for `fresh_ttl` after its last
/// validation. Stale copies are not advertised over ICP, not served to
/// peers, and a stale local copy triggers an If-Modified-Since round trip
/// to the origin: unchanged -> 304, freshness renewed, served as a hit
/// (plus `validation_rtt`); changed -> the reply carries the new body, the
/// old copy is replaced, and the request counts as a miss.
/// How long a validated copy stays fresh.
///  * kFixedTtl  — a flat lifetime (`fresh_ttl`).
///  * kLmFactor  — Squid's adaptive rule: lifetime proportional to the
///                 document's age at validation time
///                 (lm_factor * (validated - last_modified)), clamped to
///                 [min_ttl, max_ttl]. Stable documents earn long
///                 lifetimes; freshly-changed ones are rechecked soon.
enum class FreshnessRule { kFixedTtl, kLmFactor };

struct CoherenceConfig {
  bool enabled = false;
  FreshnessRule rule = FreshnessRule::kFixedTtl;
  Duration fresh_ttl = hours(1);      // kFixedTtl
  double lm_factor = 0.1;             // kLmFactor
  Duration min_ttl = minutes(1);      // kLmFactor clamp
  Duration max_ttl = hours(24 * 7);   // kLmFactor clamp
  Duration validation_rtt = msec(300);
};

/// "Eager mode" placement (paper §5): per-proxy first-order Markov
/// prediction over each user's request stream; after serving document A,
/// the proxy speculatively fetches A's most likely successor from the
/// origin when the predictor is confident enough. Off by default — the
/// paper's schemes are lazy-mode.
struct PrefetchConfig {
  bool enabled = false;
  double min_confidence = 0.25;       // successor mass needed to act
  std::uint64_t min_observations = 3;  // evidence needed to act
};

/// Prefetch outcome counters (all zero when prefetching is off).
struct PrefetchStats {
  std::uint64_t issued = 0;        // speculative fetches performed
  std::uint64_t useful = 0;        // prefetched copies hit before eviction
  std::uint64_t still_pending = 0; // unresolved at end of run (set by sim)
  Bytes bytes_prefetched = 0;      // extra origin traffic paid

  /// issued == useful + wasted + still_pending. The invariant is asserted
  /// in debug builds; release builds clamp to zero instead of letting the
  /// unsigned subtraction wrap to a huge "wasted" count.
  [[nodiscard]] std::uint64_t wasted() const {
    assert(issued >= useful + still_pending);
    return issued >= useful + still_pending ? issued - useful - still_pending : 0;
  }
};

/// A transient peer outage (fault injection): while active, ICP probes to
/// `proxy` go unanswered — the serialized driver books them as losses, the
/// event-driven pipeline sees them as discovery timeouts. The window is
/// half-open: [start, end).
struct PeerOutage {
  ProxyId proxy = 0;
  TimePoint start{};
  TimePoint end{};
};

/// Coherence outcome counters (all zero when coherence is off).
struct CoherenceStats {
  std::uint64_t validations = 0;    // If-Modified-Since round trips
  std::uint64_t validated_304 = 0;  // renewals (document unchanged)
  std::uint64_t validated_200 = 0;  // replacements (document changed)
  std::uint64_t stale_served = 0;   // TTL-fresh copies that were actually
                                    // out of date when served (oracle check)
};

struct GroupConfig {
  /// Number of CLIENT-FACING caches (the paper's N). The hierarchical
  /// topology adds one root cache above them.
  std::size_t num_proxies = 4;

  /// The group's total disk budget, split equally among all caches
  /// (including a hierarchical root), exactly as in the paper's setup
  /// ("disk space available at each cache is X/N bytes").
  Bytes aggregate_capacity = 10 * kMiB;

  /// Optional non-uniform split of the aggregate budget (the paper assumes
  /// equal shares; ABL-HETERO relaxes that). When non-empty the size must
  /// equal the TOTAL cache count (num_proxies, plus one for a hierarchical
  /// root); cache i receives aggregate * weights[i] / sum(weights).
  std::vector<double> capacity_weights;

  /// Explicit parent table for arbitrary hierarchies (e.g. three levels).
  /// When non-empty it defines the WHOLE group (num_proxies is ignored;
  /// topology must be kHierarchical): entry i is cache i's parent, nullopt
  /// for roots. Client-facing caches are those nobody lists as a parent.
  std::vector<std::optional<ProxyId>> custom_parents;

  PolicyKind replacement = PolicyKind::kLru;
  PlacementKind placement = PlacementKind::kEa;
  double ea_hysteresis = 2.0;  // replication threshold (kEaHysteresis only)

  /// Test seam: substitute a hand-built placement policy for the one
  /// `placement` would construct. The override's kind() must match
  /// `placement` (validated) so every consumer that dispatches on the enum
  /// still agrees with the object actually deciding. Shared because
  /// GroupConfig is copied freely into sweep jobs; policies are stateless.
  std::shared_ptr<const PlacementPolicy> placement_override;
  WindowConfig window{};
  TopologyKind topology = TopologyKind::kDistributed;
  LatencyModel latency{};
  WireCosts wire{};
  DiscoveryMode discovery = DiscoveryMode::kIcp;
  DigestConfig digest{};
  RoutingMode routing = RoutingMode::kCooperative;
  std::size_t hash_virtual_nodes = 64;  // ring smoothing (kHashPartition)
  CoherenceConfig coherence{};
  OriginConfig origin{};
  PrefetchConfig prefetch{};

  /// ICP runs over UDP: queries/replies can vanish. A lost exchange makes
  /// the requester treat the peer as a miss — the classic cause of
  /// duplicate origin fetches in ICP deployments. Loss is applied per
  /// query/reply exchange, deterministically from `network_seed`.
  double icp_loss_probability = 0.0;
  std::uint64_t network_seed = 99;

  /// Request-pipeline driver selection + timeout/retry/coalescing knobs.
  PipelineConfig pipeline{};

  /// Observability: metric registry + request-lifecycle tracing. Pure
  /// accounting — simulation outcomes are identical for every setting.
  ObsConfig obs{};

  /// Every violated configuration rule, in a stable order; empty means the
  /// config is usable. Aggregates ALL problems instead of failing on the
  /// first one, so a misconfigured sweep reports its whole diagnosis at
  /// once. Group-level rules only — `RunSpec::validate()` (core/run_spec.h)
  /// is the public entry point; it calls this and layers the per-run and
  /// execution-policy rules on top.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Throws std::invalid_argument listing every violation ("; "-joined)
  /// when validate() is non-empty. Called by the CacheGroup constructor and
  /// by run_simulation.
  void validate_or_throw() const;

  /// Total cache count this config builds: custom_parents when given,
  /// otherwise num_proxies plus a hierarchical root.
  [[nodiscard]] std::size_t total_cache_count() const;
};

// ---- Group construction helpers ------------------------------------------
//
// Shared by CacheGroup and the node executors (core/proxy_node.h: the
// sharded engine and the daemon), which build the same proxies without a
// group orchestrator. Splitting them out keeps every construction path
// agreeing by definition.

/// The topology a config builds: custom_parents when given, otherwise the
/// `topology` kind over num_proxies.
[[nodiscard]] Topology topology_from(const GroupConfig& config);

/// The group-wide placement policy: the test seam's override when set,
/// otherwise the one `placement` names.
[[nodiscard]] std::shared_ptr<const PlacementPolicy> placement_for(const GroupConfig& config);

/// The eight "group.*" metric handles, registered under the same names by
/// every driver so merged registries line up. Null handles when the
/// registry is off.
struct GroupCounters {
  GroupCounters() = default;
  explicit GroupCounters(MetricRegistry& registry);

  MetricRegistry::Counter requests;
  MetricRegistry::Counter icp_queries;
  MetricRegistry::Counter icp_replies;
  MetricRegistry::Counter icp_losses;
  MetricRegistry::Counter sibling_fetches;
  MetricRegistry::Counter parent_fetches;
  MetricRegistry::Counter origin_fetches;
  MetricRegistry::HistogramHandle request_bytes;
};

/// Per-cache byte budgets: equal split (the paper's setup) unless explicit
/// weights are given. Assumes a validated config.
[[nodiscard]] std::vector<Bytes> cache_budgets(const GroupConfig& config,
                                               std::size_t total_caches);

/// The client-facing proxy a user's requests arrive at (stable hash onto
/// the client-facing set).
[[nodiscard]] ProxyId home_proxy_in(const Topology& topology, UserId user);

/// Deterministic best-first candidate order: ring distance from the
/// requester over a group of `num_caches` caches.
void sort_by_ring_distance(std::vector<ProxyId>& peers, ProxyId requester,
                           std::size_t num_caches);

/// Observer for every placement decision the group makes (requester
/// keep-a-copy and parent keep-a-copy alike). `requester_age`/`responder_age`
/// are the expiration ages the two sides actually exchanged on the wire —
/// the hook never re-queries an estimator. Used by the invariant checker
/// (src/validate/) to audit decisions against the paper's §3.3 rules;
/// callbacks may read the group but must not mutate it.
class PlacementAuditor {
 public:
  virtual ~PlacementAuditor() = default;
  virtual void on_placement(ProxyId proxy, DocumentId document, TimePoint at, Bytes size,
                            std::optional<ExpAge> requester_age,
                            std::optional<ExpAge> responder_age, bool accepted) = 0;
};

class CacheGroup {
 public:
  explicit CacheGroup(const GroupConfig& config);

  CacheGroup(const CacheGroup&) = delete;
  CacheGroup& operator=(const CacheGroup&) = delete;

  /// Serve one trace request at simulated time `request.at`, start to
  /// finish, with the legacy synchronous driver. The event-driven
  /// alternative is sim/request_pipeline.h, which stages the SAME
  /// resolution helpers over the event queue.
  RequestOutcome serve(const Request& request);

  /// Failure injection: simulate a proxy crash/restart that loses its whole
  /// cache (explicit removals — not contention signals). The proxy rejoins
  /// cold immediately; digests catch up at the next refresh.
  void flush_proxy(ProxyId proxy, TimePoint now);

  /// Fault injection: transient peer outages. While an outage is active,
  /// ICP probes to the affected proxy go unanswered.
  void set_outages(std::vector<PeerOutage> outages) { outages_ = std::move(outages); }
  [[nodiscard]] bool peer_down(ProxyId proxy, TimePoint at) const;

  [[nodiscard]] const GroupConfig& config() const { return config_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const GroupMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const TransportStats& transport_stats() const { return transport_.stats(); }
  [[nodiscard]] const CoherenceStats& coherence_stats() const { return coherence_stats_; }
  /// still_pending is zero here; the simulator fills it at end of run from
  /// pending_prefetches().
  [[nodiscard]] const PrefetchStats& prefetch_stats() const { return prefetch_stats_; }
  /// The group-wide metric registry ("group.*", "proxy.<id>.*", "link.*").
  /// Empty when GroupConfig::obs.registry is false.
  [[nodiscard]] const MetricRegistry& registry() const { return registry_; }
  /// The request-lifecycle span ring. Disabled (capacity 0) by default.
  [[nodiscard]] const TraceLog& trace_log() const { return trace_log_; }
  /// Stamp end-of-run gauges (per-proxy occupancy, group replication) into
  /// the registry; no-op when the registry is off.
  void export_final_gauges();
  [[nodiscard]] std::size_t pending_prefetches() const;
  [[nodiscard]] std::size_t num_proxies() const { return proxies_.size(); }
  [[nodiscard]] const ProxyCache& proxy(ProxyId id) const { return *proxies_.at(id); }

  /// The proxy a user's requests arrive at (stable hash onto the
  /// client-facing set).
  [[nodiscard]] ProxyId home_proxy(UserId user) const;

  /// Table 1's metric: the mean of the per-cache average expiration ages
  /// (each cache's mean victim DocExpAge over the whole run). Caches that
  /// never evicted are excluded from the mean; if NO cache evicted the
  /// result is ExpAge::infinite().
  [[nodiscard]] ExpAge average_cache_expiration_age() const;

  /// Group-wide occupancy diagnostics for the replication analysis.
  [[nodiscard]] std::size_t total_resident_copies() const;
  [[nodiscard]] std::size_t unique_resident_documents() const;
  /// copies / unique (1.0 = no replication). 0 when the group is empty.
  [[nodiscard]] double replication_factor() const;

  /// Attach (or detach, with nullptr) the single placement auditor. The
  /// auditor must outlive the group or detach itself first.
  void attach_auditor(PlacementAuditor* auditor) { auditor_ = auditor; }
  /// Forward an eviction observer onto one proxy's store (validation hook;
  /// see CacheStore::add_eviction_observer for the observer contract).
  void add_eviction_observer(ProxyId proxy, EvictionObserver* observer) {
    proxies_.at(proxy)->add_eviction_observer(observer);
  }

 private:
  /// The event-driven driver schedules the private stage helpers below on
  /// the event queue; it lives in its own translation unit to keep this one
  /// free of event-engine concerns.
  friend class RequestPipeline;

  /// What resolving one request produced. `latency` is the LEGACY charge —
  /// the paper's per-outcome aggregate plus any probe penalties — which the
  /// synchronous driver records directly and the event-driven driver uses
  /// to place the completion event (measuring latency instead).
  struct Resolution {
    RequestOutcome outcome = RequestOutcome::kMiss;
    Bytes bytes = 0;
    Duration latency = Duration::zero();
  };

  /// Request preamble shared by both drivers: per-proxy accounting, the
  /// request id, registry counters and the arrival span. Returns the id.
  std::uint64_t begin_request(ProxyCache& requester, const Request& request);
  /// Completion span shared by both drivers (no-op when tracing is off).
  void record_complete_span(ProxyId proxy, DocumentId document, std::uint64_t request_id,
                            TimePoint at, RequestOutcome outcome);

  /// Full cooperative resolution (local lookup → discovery → fetch), used
  /// by the synchronous driver. Mutates caches and records spans/transport
  /// but NOT metrics — the driver does that.
  Resolution resolve_cooperative(ProxyCache& requester, const Request& request, TimePoint now);
  Resolution resolve_hash_partition(ProxyCache& requester, const Request& request,
                                    TimePoint now);

  /// The document a request resolves to, stamped with the origin version
  /// current at `now` when coherence is on.
  [[nodiscard]] Document document_from(const Request& request, TimePoint now) const;
  [[nodiscard]] bool coherence_on() const { return config_.coherence.enabled; }
  /// Freshness lifetime of an entry under the configured rule.
  [[nodiscard]] Duration freshness_lifetime(const CacheEntry& entry) const;
  /// Is the proxy's copy (if any) within its freshness lifetime?
  [[nodiscard]] bool copy_is_fresh(const ProxyCache& proxy, DocumentId document,
                                   TimePoint now) const;

  /// Local lookup with the full coherence state machine.
  enum class LocalState { kMiss, kFreshHit, kValidatedHit, kChanged };
  struct LocalLookup {
    LocalState state = LocalState::kMiss;
    Bytes size = 0;
  };
  LocalLookup local_lookup(ProxyCache& proxy, const Request& request, TimePoint now);

  /// One ICP query/reply exchange with `target`: transport + registry +
  /// span accounting, the outage check, the (seeded) UDP-loss draw and the
  /// freshness-aware presence answer. Both drivers issue probes through
  /// here, in the same target order, so the loss RNG consumes draws
  /// identically under either driver.
  enum class ProbeResult { kLost, kMiss, kHit };
  ProbeResult probe_peer(ProxyCache& requester, ProxyId target, const Request& request,
                         TimePoint now);
  /// Peers the probe fan-out targets: siblings plus the parent, if any
  /// (the event-driven pipeline's probe rounds; the serialized path walks
  /// Topology::for_each_peer instead).
  [[nodiscard]] std::vector<ProxyId> probe_targets(ProxyId requester) const;
  /// Digest-mode candidates (free, approximate), unsorted.
  [[nodiscard]] std::vector<ProxyId> digest_candidates(ProxyId requester,
                                                       DocumentId document) const;
  /// Peer ids that may hold the document, best-first. ICP mode returns
  /// exact answers (and records the query/reply traffic); digest mode
  /// consults peers' published snapshots (free, but approximate).
  std::vector<ProxyId> discover_candidates(ProxyCache& requester, const Request& request);

  /// Fetch from the first candidate that actually has the document, falling
  /// through to the group-miss resolution. Mutations + spans, no metrics.
  Resolution try_candidates(ProxyCache& requester, const Request& request,
                            const std::vector<ProxyId>& candidates, TimePoint now);
  Resolution resolve_group_miss(ProxyCache& requester, const Request& request,
                                Duration probe_penalty, TimePoint now);
  /// Forward up the parent chain; returns the response the child receives.
  HttpResponse fetch_via_parent(ProxyCache& child, ProxyId parent_id, const Request& request,
                                TimePoint now);
  /// Digest mode: republish any snapshot older than the refresh period.
  void refresh_digests(TimePoint now);
  /// Deterministic best-first order: ring distance from the requester.
  void sort_by_ring_distance(std::vector<ProxyId>& peers, ProxyId requester) const;

  /// Origin-fetch bookkeeping shared by every call site: transport bytes,
  /// the group counter and (when tracing) a kOriginFetch span.
  void note_origin_fetch(ProxyId requester, const Document& document, TimePoint at,
                         bool speculative);
  /// Placement-decision span (requester or parent rule). EA values are the
  /// ones ALREADY exchanged on the wire — tracing never re-queries an
  /// estimator, so counters match between traced and untraced runs.
  void trace_placement(ProxyId proxy, DocumentId document, TimePoint at, Bytes size,
                       std::optional<ExpAge> requester_age,
                       std::optional<ExpAge> responder_age, bool accepted);
  [[nodiscard]] static std::int64_t sim_ms(TimePoint at) { return (at - kSimEpoch).count(); }
  [[nodiscard]] static double ea_ms(std::optional<ExpAge> age) {
    return age.has_value() ? age->millis() : -1.0;
  }

  GroupConfig config_;
  Topology topology_;
  std::shared_ptr<const PlacementPolicy> placement_;
  PlacementAuditor* auditor_ = nullptr;
  MetricRegistry registry_;  // before proxies_: they hold handles into it
  TraceLog trace_log_;
  std::vector<std::unique_ptr<ProxyCache>> proxies_;
  Transport transport_;
  GroupMetrics metrics_;

  // Request-lifecycle bookkeeping for tracing.
  std::uint64_t request_seq_ = 0;
  std::uint64_t current_request_ = 0;

  GroupCounters obs_;  // group-wide counters

  // Digest discovery state. One shared directory stands in for the
  // identical per-proxy copies a real deployment keeps; the broadcast COST
  // is still accounted per receiving peer.
  PeerDigestDirectory digest_directory_;
  std::vector<TimePoint> last_digest_publish_;
  std::vector<bool> digest_published_once_;

  // Hash-partition routing state (kHashPartition only).
  std::optional<HashRing> hash_ring_;

  // Coherence state (CoherenceConfig::enabled only).
  std::optional<OriginServer> origin_;
  CoherenceStats coherence_stats_;

  // Simulated UDP loss for ICP (icp_loss_probability > 0 only).
  Rng network_rng_{0};

  // Fault injection: transient peer outages (see set_outages()).
  std::vector<PeerOutage> outages_;

  // Prefetch state (PrefetchConfig::enabled only).
  void learn_and_prefetch(ProxyCache& requester, const Request& request, TimePoint now);
  std::vector<MarkovPredictor> predictors_;              // one per proxy
  std::unordered_map<UserId, DocumentId> last_document_; // per-user stream
  std::unordered_map<DocumentId, Bytes> known_sizes_;    // for speculation
  std::vector<std::unordered_set<DocumentId>> pending_prefetch_;
  PrefetchStats prefetch_stats_;
};

}  // namespace eacache
