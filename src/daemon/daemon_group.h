// DaemonGroup: the cooperative cache group as N live proxy instances, one
// worker thread each, exchanging protocol messages over an in-memory wire
// instead of being orchestrated by the simulator.
//
// Every worker executes one ProxyNode (core/proxy_node.h), the protocol
// core the sharded engine runs too: it hands the node each message from
// its mailbox, puts the node's sends on the wire, runs its origin timers
// inline and forwards its completions to the load generator's endpoint.
// Flat and hierarchical groups alike: a parent cache is one more worker.
//
// Concurrency design (checked by the DESIGN.md §11 analysis stack and the
// TSan pipeline's daemon stage):
//  * SHARE NOTHING between workers. Each worker exclusively owns its node
//    (cache plus per-request state) and its accounting unit (transport,
//    GroupMetrics, MetricRegistry, flight ring) — no per-cache locks exist
//    because no cache is ever touched by two threads. The only shared
//    mutable state is the InMemoryTransport's locked mailboxes and the
//    Clock (both annotated).
//  * All cross-worker interaction is message passing. Workers never block
//    waiting for a specific peer — every handler runs to completion and
//    returns to the mailbox loop, so mutual probing cannot deadlock.
//  * collect_result() merges the per-worker units AFTER stop() has joined
//    every thread; thread join is the only synchronization the merge needs.
//
// In closed-loop smoke replay (FakeClock pinned to trace stamps) the run is
// deterministic and its RunResult serializes byte-identically to the
// classic simulator's — tests/daemon/daemon_vs_sim_test.cpp pins that for
// flat, 2-level and 3-level groups.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/clock.h"
#include "core/inmemory_transport.h"
#include "core/proxy_node.h"
#include "core/run_result.h"
#include "group/cache_group.h"
#include "obs/trace_log.h"

namespace eacache {

/// How the load generator paces submissions and how workers read "now".
///  * kSmokeReplay — closed loop, one request in flight, a FakeClock pinned
///    to each request's trace stamp: deterministic, comparable to the
///    simulator byte for byte.
///  * kWallClock  — open loop against a SteadyClock: requests are submitted
///    at real instants (trace timestamps compressed by a speedup factor, or
///    a fixed rate) and overlap in flight.
enum class DaemonMode { kSmokeReplay, kWallClock };

class DaemonGroup {
 public:
  /// One worker's state as published through the stats seam: a registry
  /// snapshot plus the cheap live scalars the poller derives rates from.
  /// `spans` is filled only when the sample asked for the flight ring.
  struct WorkerStatsSample {
    ProxyId proxy = 0;
    MetricRegistry registry;
    GroupMetrics metrics;
    TransportStats transport;
    std::uint64_t in_flight = 0;       // requests pending at this worker
    Bytes resident_bytes = 0;
    std::uint64_t resident_docs = 0;
    ExpAge expiration_age = ExpAge::infinite();
    std::vector<SpanEvent> spans;      // flight-recorder ring, oldest first
    std::uint64_t spans_recorded = 0;
    std::uint64_t spans_dropped = 0;
  };

  /// `config` must pass RunSpec::validate(RunTarget::kDaemon) (the
  /// constructor throws otherwise); `clock` must outlive the group.
  /// `flight_capacity` sizes each worker's bounded recent-span ring for the
  /// flight recorder (0 disables span recording entirely — the default, and
  /// the zero-overhead state smoke-replay byte-identity is pinned against).
  DaemonGroup(const GroupConfig& config, Clock& clock, DaemonMode mode,
              std::size_t flight_capacity = 0);
  ~DaemonGroup();

  DaemonGroup(const DaemonGroup&) = delete;
  DaemonGroup& operator=(const DaemonGroup&) = delete;

  /// Spawn one worker thread per cache (parents included). Call once.
  void start();
  /// Deliver kShutdown to every worker and join. Idempotent. The caller
  /// must have drained its in-flight requests first (completions for
  /// requests still in flight at shutdown are lost, not corrupted).
  void stop();

  /// Every cache of the group, parents included: one worker each.
  [[nodiscard]] std::size_t num_proxies() const { return workers_.size(); }
  /// Same stable user->proxy pinning as CacheGroup::home_proxy.
  [[nodiscard]] ProxyId home_proxy(UserId user) const;
  /// The extra wire endpoint reserved for the load generator's completions.
  [[nodiscard]] ProxyId load_endpoint() const {
    return static_cast<ProxyId>(workers_.size());
  }
  /// The extra wire endpoint the stats sampler receives kStatsReply on.
  [[nodiscard]] ProxyId stats_endpoint() const {
    return static_cast<ProxyId>(workers_.size() + 1);
  }
  [[nodiscard]] InMemoryTransport& wire() { return wire_; }

  /// Live stats sample: send every worker a kStatsRequest, wait for all
  /// acks, then copy the published per-worker samples. The request is
  /// handled at the top of each worker's mailbox loop like any other
  /// message, so the hot path takes no locks and the snapshot of each
  /// worker is internally consistent (between two requests, never mid-
  /// request). Returns nullopt if any worker fails to ack within `timeout`
  /// (e.g. the group is stopped). Thread-safe: concurrent samplers (poller
  /// tick vs flight dump) serialize on an internal mutex.
  [[nodiscard]] std::optional<std::vector<WorkerStatsSample>> sample_stats(
      bool want_spans, std::chrono::nanoseconds timeout);

  [[nodiscard]] DaemonMode mode() const { return mode_; }
  /// The clock the group runs on (the poller stamps snapshots with it).
  [[nodiscard]] Clock& clock() const { return clock_; }

  /// Assemble the RunResult from the per-worker shards. Requires stop() —
  /// the merge is unsynchronized by design and relies on thread join.
  [[nodiscard]] RunResult collect_result();

 private:
  /// Everything one worker thread owns exclusively. The accounting unit is
  /// built first so the node can register its cache's handles into it; all
  /// registration happens on the constructing thread before start().
  struct Worker {
    Worker(ProxyId id, const GroupView& group, std::size_t flight_capacity)
        : accounting(group, flight_capacity), node(id, group, accounting) {}

    NodeAccounting accounting;
    ProxyNode node;
    ProxyNode::Outbox out;

    // The one piece of worker state another thread may read: the stats
    // sample the worker publishes when it handles kStatsRequest. The worker
    // only touches it inside that handler, so the mutex is never contended
    // on the request hot path.
    struct StatsSlot {
      Mutex mutex;
      WorkerStatsSample data EACACHE_GUARDED_BY(mutex);
    };
    StatsSlot stats;

    std::thread thread;
  };

  void worker_main(std::size_t index);
  /// "now" for one protocol step: the request's trace stamp in smoke replay
  /// (deterministic), the live clock in wall-clock mode.
  [[nodiscard]] TimePoint step_now(const WireMessage& message) const;
  /// Hand `message` to the worker's node and schedule its outbox: sends go
  /// on the wire, origin timers run inline, completions go to the load
  /// generator.
  void run_node(Worker& w, const WireMessage& message, TimePoint now);
  void handle_stats_request(Worker& w, const WireMessage& message);

  GroupView group_;
  Clock& clock_;
  DaemonMode mode_;
  std::vector<std::unique_ptr<Worker>> workers_;
  InMemoryTransport wire_;  // workers' mailboxes + load and stats endpoints
  bool started_ = false;
  bool stopped_ = false;

  // Serializes concurrent sample_stats callers (poller tick vs flight
  // dump): both share the stats endpoint's mailbox, so only one sample may
  // be in flight. The epoch stamps each round's kStatsRequest so a reply
  // straggling in after a timeout is recognized as stale and dropped.
  Mutex stats_mutex_;
  std::uint64_t stats_epoch_ EACACHE_GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace eacache
