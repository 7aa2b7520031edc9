// WireMessage: the one envelope every proxy-to-proxy interaction travels
// in, whichever executor moves it. A ProxyNode (core/proxy_node.h) reads
// and writes nothing else. The daemon puts it on an InMemoryTransport
// mailbox (core/inmemory_transport.h); the sharded engine puts it on a
// shard mailbox with `stamp` rewritten to the delivery instant.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "ea/expiration_age.h"
#include "net/message.h"

namespace eacache {

/// A flat tagged union (plain fields, not std::variant): trivially
/// copyable, so correlation code reads common fields without visitation,
/// and 80 bytes, because the sharded engine sorts every mailbox entry by
/// delivery order once per window (an ICP fan-out is one entry per shard
/// each way, every other hop one entry).
struct WireMessage {
  enum class Kind : std::uint8_t {
    kClientRequest,   ///< load generator -> home proxy: serve `document`
    kIcpQuery,        ///< proxy -> peer: do you hold `document`?
    kIcpReply,        ///< peer -> proxy: the `icp` answer to a query
    kHttpRequest,     ///< proxy -> peer: transfer `document` (EA age piggybacked)
    kHttpResponse,    ///< peer -> proxy: body (or not-found) + EA age
    kParentRequest,   ///< child -> parent: resolve a group-wide miss up the chain
    kParentResponse,  ///< parent -> child: the body flowing back down + EA age
    kOriginFetch,     ///< node -> itself: origin timer, never put on a wire
    kFlush,           ///< driver -> proxy: drop all cached documents (fault injection)
    kShutdown,        ///< driver -> proxy: drain and exit the worker loop
    kCompletion,      ///< home proxy -> load generator: request fully resolved
    kStatsRequest,    ///< stats poller -> proxy: publish a registry snapshot
    kStatsReply,      ///< proxy -> stats poller: snapshot published (ack)
  };

  /// kIcpReply's answer. A peer inside an injected outage never answers;
  /// the requester books the exchange as a loss at the reply deadline.
  enum class Icp : std::uint8_t { kMiss, kHit, kNoAnswer };

  Kind kind = Kind::kClientRequest;
  Icp icp = Icp::kMiss;
  /// kHttpResponse: false when the responder no longer holds the copy its
  /// ICP reply advertised (a header-only not-found).
  bool found = true;
  /// kStatsRequest only: also publish the recent-span flight ring (used by
  /// the flight recorder; plain poller ticks leave it false — cheaper).
  bool want_spans = false;
  /// kHttpResponse / kParentResponse: who produced the body.
  ResponseSource source = ResponseSource::kCache;
  ProxyId from = 0;
  ProxyId to = 0;
  UserId user = 0;
  /// Cross-hop trace header (DESIGN.md §13): hop depth from the home proxy.
  std::int32_t hop = -1;
  DocumentId document = 0;
  /// Correlates replies and responses with the client request that caused
  /// them. Assigned by the load generator (the trace index in the sharded
  /// engine); echoed by every hop.
  std::uint64_t request_id = 0;
  /// The instant the message was sent (the client request's arrival for
  /// kClientRequest). The sharded engine rewrites it to the delivery
  /// instant when the message enters a shard mailbox.
  TimePoint stamp{};
  /// kClientRequest / kParentRequest: the document's size (the origin
  /// fetch body). Responses: the body size.
  Bytes body_size = 0;
  /// EA piggyback: the requester's age on request hops, the responder's on
  /// response hops; nullopt under ad-hoc placement.
  std::optional<ExpAge> age;
  /// Cross-hop trace header: the root span the receiver's spans link
  /// under. 0 means "no trace identity" (tracing off, or a driver message).
  std::uint64_t span_id = 0;
};

// Every shard mailbox entry is one of these: keep it from growing.
static_assert(sizeof(WireMessage) <= 80, "WireMessage grew past its 80-byte budget");

}  // namespace eacache
