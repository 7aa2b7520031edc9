// Transport accounting for the simulated cache group.
//
// The group orchestrator calls record_* as it moves messages between
// proxies; the stats let tests and benches verify the EA scheme's headline
// overhead claim: identical message counts to ad-hoc, with only a fixed
// 8-byte piggyback on HTTP messages.
//
// When bound to a MetricRegistry the transport additionally accounts BYTES
// MOVED PER LINK ("link.<from>-><to>.bytes", with "origin" as the terminal
// column) — the per-edge view the aggregate TransportStats cannot give.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/message.h"
#include "obs/metric_registry.h"

namespace eacache {

struct TransportStats {
  std::uint64_t icp_queries = 0;
  std::uint64_t icp_replies = 0;
  std::uint64_t icp_losses = 0;  // UDP exchanges that never completed
  std::uint64_t http_requests = 0;
  std::uint64_t http_responses = 0;
  std::uint64_t failed_probes = 0;  // not-found fetches (digest mode)
  std::uint64_t digest_publications = 0;
  std::uint64_t origin_fetches = 0;

  Bytes icp_bytes = 0;
  Bytes http_header_bytes = 0;
  Bytes http_body_bytes = 0;
  Bytes piggyback_bytes = 0;
  Bytes digest_bytes = 0;

  /// Field-wise accumulation, for aggregating per-worker accounting shards
  /// (the daemon keeps one Transport per worker thread and merges after
  /// join; the simulator's single instance never needs this).
  void merge(const TransportStats& other) {
    icp_queries += other.icp_queries;
    icp_replies += other.icp_replies;
    icp_losses += other.icp_losses;
    http_requests += other.http_requests;
    http_responses += other.http_responses;
    failed_probes += other.failed_probes;
    digest_publications += other.digest_publications;
    origin_fetches += other.origin_fetches;
    icp_bytes += other.icp_bytes;
    http_header_bytes += other.http_header_bytes;
    http_body_bytes += other.http_body_bytes;
    piggyback_bytes += other.piggyback_bytes;
    digest_bytes += other.digest_bytes;
  }

  [[nodiscard]] std::uint64_t total_messages() const {
    return icp_queries + icp_replies + http_requests + http_responses + digest_publications;
  }
  [[nodiscard]] Bytes total_bytes() const {
    return icp_bytes + http_header_bytes + http_body_bytes + piggyback_bytes + digest_bytes;
  }
};

class Transport {
 public:
  explicit Transport(WireCosts costs = WireCosts{}) : costs_(costs) {}

  /// Attach a metric registry (which must outlive the transport) for a
  /// group of `num_caches` proxies. A sender's row of the per-link counter
  /// table is allocated on its first traffic and each link counter is
  /// registered on the link's first traffic, so a transport that sends from
  /// a few proxies, or over a sparse topology, pays only for what it uses.
  void bind_registry(MetricRegistry* registry, std::size_t num_caches) {
    registry_ = (registry != nullptr && registry->enabled()) ? registry : nullptr;
    num_caches_ = num_caches;
    links_.assign(registry_ != nullptr ? num_caches : 0, {});
  }

  void record_icp_query(const IcpQuery& query) {
    ++stats_.icp_queries;
    stats_.icp_bytes += costs_.icp_message();
    add_link_bytes(query.from, query.to, costs_.icp_message());
  }
  void record_icp_reply(const IcpReply& reply) {
    ++stats_.icp_replies;
    stats_.icp_bytes += costs_.icp_message();
    add_link_bytes(reply.from, reply.to, costs_.icp_message());
  }
  /// A query (or its reply) was dropped in flight: the query's bytes were
  /// spent, no reply arrives.
  void record_icp_loss() { ++stats_.icp_losses; }
  void record_http_request(const HttpRequest& request) {
    ++stats_.http_requests;
    stats_.http_header_bytes += costs_.http_request_headers;
    Bytes wire = costs_.http_request_headers;
    if (request.requester_age.has_value()) {
      stats_.piggyback_bytes += costs_.ea_piggyback;
      wire += costs_.ea_piggyback;
    }
    add_link_bytes(request.from, request.to, wire);
  }
  void record_http_response(const HttpResponse& response) {
    ++stats_.http_responses;
    stats_.http_header_bytes += costs_.http_response_headers;
    stats_.http_body_bytes += response.body_size;
    if (!response.found) ++stats_.failed_probes;
    Bytes wire = costs_.http_response_headers + response.body_size;
    if (response.responder_age.has_value()) {
      stats_.piggyback_bytes += costs_.ea_piggyback;
      wire += costs_.ea_piggyback;
    }
    add_link_bytes(response.from, response.to, wire);
  }
  void record_digest_publication(const DigestPublication& publication) {
    ++stats_.digest_publications;
    stats_.digest_bytes += publication.digest_size;
    add_link_bytes(publication.from, publication.to, publication.digest_size);
  }
  /// `requester` is the cache that contacted the origin (the link endpoint).
  void record_origin_fetch(ProxyId requester, Bytes body_size) {
    ++stats_.origin_fetches;
    stats_.http_header_bytes += costs_.http_request_headers + costs_.http_response_headers;
    stats_.http_body_bytes += body_size;
    add_link_bytes(requester, kOriginLink,
                   costs_.http_request_headers + costs_.http_response_headers + body_size);
  }

  [[nodiscard]] const TransportStats& stats() const { return stats_; }
  [[nodiscard]] const WireCosts& costs() const { return costs_; }

 private:
  /// Sentinel "to" endpoint for origin-server traffic.
  static constexpr std::size_t kOriginLink = static_cast<std::size_t>(-1);

  void add_link_bytes(std::size_t from, std::size_t to, Bytes bytes) {
    if (registry_ == nullptr || from >= num_caches_) return;
    const std::size_t column = to == kOriginLink ? num_caches_ : to;
    if (column > num_caches_) return;
    std::vector<MetricRegistry::Counter>& row = links_[from];
    if (row.empty()) row.resize(num_caches_ + 1);
    MetricRegistry::Counter& counter = row[column];
    if (!counter.bound()) {
      const std::string peer =
          column == num_caches_ ? std::string("origin") : std::to_string(column);
      counter = registry_->counter("link." + std::to_string(from) + "->" + peer + ".bytes");
    }
    counter.inc(bytes);
  }

  WireCosts costs_;
  TransportStats stats_;
  MetricRegistry* registry_ = nullptr;  // null = per-link accounting off
  std::size_t num_caches_ = 0;
  /// links_[from][to], the origin in the last column; empty rows are
  /// senders with no traffic yet.
  std::vector<std::vector<MetricRegistry::Counter>> links_;
};

}  // namespace eacache
