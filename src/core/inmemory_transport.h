// The message seam between proxies when there is no event queue.
//
// The discrete-event simulator moves protocol messages by direct function
// call: the orchestrator IS the network, so delivery is implicit and the
// `Transport` class only does accounting. A live daemon has no orchestrator
// — each proxy runs on its own thread and messages must actually travel.
// This header provides that wire for `WireMessage` envelopes
// (core/wire_message.h): a `MessageTransport` delivery interface and an
// `InMemoryTransport` that connects N in-process endpoints through locked
// FIFO mailboxes.
//
// Delivery contract (what the daemon's correctness rests on, and what
// tests/core/inmemory_transport_test.cpp proves):
//   * no loss — every send() is eventually receivable exactly once;
//   * per-sender FIFO — two messages from the same sender to the same
//     receiver arrive in send order (messages from DIFFERENT senders may
//     interleave arbitrarily, like IP);
//   * receive() blocks with a deadline, so a worker can multiplex its
//     mailbox against shutdown without spinning.
//
// Wire accounting stays with the existing net/transport.h `Transport`; this
// class only moves envelopes. ProxyNode (core/proxy_node.h) records costs
// at its send sites, same as the simulator's orchestrator does.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/wire_message.h"

namespace eacache {

/// Where envelopes go. The daemon group sends through this interface so a
/// test can substitute a recording fake; InMemoryTransport is the real one.
class MessageTransport {
 public:
  virtual ~MessageTransport() = default;

  /// Deliver `message` to endpoint `to`'s mailbox. Never blocks the sender
  /// beyond the mailbox lock; never drops.
  virtual void send(ProxyId to, WireMessage message) = 0;
};

/// N locked FIFO mailboxes. Endpoint ids are dense [0, num_endpoints); the
/// daemon maps proxy ids directly and reserves the last endpoint for the
/// load generator's completion mailbox.
class InMemoryTransport final : public MessageTransport {
 public:
  explicit InMemoryTransport(std::size_t num_endpoints);

  InMemoryTransport(const InMemoryTransport&) = delete;
  InMemoryTransport& operator=(const InMemoryTransport&) = delete;

  void send(ProxyId to, WireMessage message) override;

  /// Block until a message is available at `at` or `timeout` elapses.
  /// Returns nullopt on timeout. FIFO per mailbox (hence per-sender FIFO,
  /// since send() enqueues under the same lock).
  [[nodiscard]] std::optional<WireMessage> receive(ProxyId at, std::chrono::nanoseconds timeout);

  /// Non-blocking drain step: returns the head of `at`'s mailbox, or
  /// nullopt if it is empty right now.
  [[nodiscard]] std::optional<WireMessage> try_receive(ProxyId at);

  [[nodiscard]] std::size_t num_endpoints() const { return mailboxes_.size(); }

  /// Messages currently queued at `at` (test/diagnostic use; the value is
  /// stale the moment it returns).
  [[nodiscard]] std::size_t pending(ProxyId at);

 private:
  struct Mailbox {
    Mutex mutex;
    CondVar ready;
    std::deque<WireMessage> queue EACACHE_GUARDED_BY(mutex);
  };

  Mailbox& mailbox_at(ProxyId at);

  // deque of Mailbox directly is impossible (Mutex is not movable), so the
  // fixed-size table is built once in the constructor.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

}  // namespace eacache
