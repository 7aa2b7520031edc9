#include "sim/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/proxy_node.h"
#include "core/wall_timer.h"
#include "group/partition.h"

namespace eacache {

namespace {

/// An entry of a shard's timer heap: a pre-scheduled series sample or cache
/// flush, or an origin timer a node set. Plain data; fires in (instant,
/// sequence) order.
struct Timer {
  enum class Kind : std::uint8_t { kSeriesSample, kFlush, kOriginFetch };

  TimePoint at{};
  std::uint64_t seq = 0;
  Kind kind = Kind::kOriginFetch;
  std::size_t series_index = 0;  ///< kSeriesSample: which sample point
  /// kOriginFetch: the fetch, fed back to node message.to when it fires;
  /// kFlush: message.to is the cache to flush.
  WireMessage message;
};

/// Heap order (std::push_heap is a max-heap): the earliest (at, seq) on top.
struct TimerLater {
  [[nodiscard]] bool operator()(const Timer& a, const Timer& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

/// One shard: its timer heap, the accounting unit its nodes charge, and
/// the mailbox. The mailbox is the ONLY state other threads touch.
struct Shard {
  // ---- single-owner state (the shard's worker thread) -------------------
  explicit Shard(const GroupView& group) : accounting(group) {}

  std::size_t index = 0;
  NodeAccounting accounting;
  /// The instant of the event firing now (kSimEpoch before the first).
  /// No timer may be set before it.
  TimePoint now = kSimEpoch;
  /// Min-heap on (at, seq) under TimerLater. Sequence numbers rise in
  /// scheduling order: pre-scheduled events hold the lowest.
  std::vector<Timer> timers;
  std::uint64_t next_seq = 0;

  /// Trace indices whose home proxy lives here, ascending (= time order).
  std::vector<std::uint64_t> admissions;
  std::size_t next_admission = 0;

  /// The outbox a node handler fills; drained right after each handler.
  ProxyNode::Outbox out;
  /// Messages produced this window, bucketed by destination shard and
  /// stamped with their delivery instant; moved into the targets'
  /// mailboxes at the barrier.
  std::vector<std::vector<WireMessage>> outgoing;
  /// This window's due mailbox messages (a buffer reused every window).
  std::vector<WireMessage> due;

  /// Periodic observability samples: (series index, proxy, sample).
  struct SeriesRecord {
    std::size_t index = 0;
    TimePoint at{};
    ProxyId proxy = 0;
    ProxySeriesSample sample;
  };
  std::vector<SeriesRecord> series;

  // ---- shared state (any thread, at barriers) ---------------------------
  Mutex mailbox_mutex;
  /// Messages addressed to this shard, not yet due.
  std::vector<WireMessage> mailbox EACACHE_GUARDED_BY(mailbox_mutex);
  /// The earliest stamp in `mailbox`, kept by the senders and the owner so
  /// that the barrier reads it instead of scanning the mailbox.
  std::optional<TimePoint> mailbox_first EACACHE_GUARDED_BY(mailbox_mutex);
  /// This shard's earliest purely-local pending work (timers + admissions),
  /// published just before arriving at the barrier.
  std::optional<TimePoint> next_local EACACHE_GUARDED_BY(mailbox_mutex);
};

/// Lower `earliest` to `at` if `at` comes first or nothing was pending.
void keep_earliest(std::optional<TimePoint>& earliest, TimePoint at) {
  if (!earliest.has_value() || at < *earliest) earliest = at;
}

/// Mailbox batch order: (delivery instant, request id, kind, from, to).
/// Total over any batch the engine can produce — a request never has two
/// identical hops in flight — and independent of mailbox arrival order,
/// which is what makes the batch's fire order deterministic.
struct DeliveryOrder {
  [[nodiscard]] bool operator()(const WireMessage& a, const WireMessage& b) const {
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    if (a.request_id != b.request_id) return a.request_id < b.request_id;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.from != b.from) return a.from < b.from;
    return a.to < b.to;
  }
};

class ShardEngine {
 public:
  ShardEngine(const Trace& trace, const RunSpec& spec)
      : trace_(trace),
        spec_(spec),
        group_(spec.group, spec.faults.outages),
        partition_(partition_topology(group_.topology, spec.exec.shards)),
        lookahead_(spec.effective_lookahead()),
        delays_(hop_delays(spec.group.latency)) {
    build_shards();
  }

  SimulationResult run(PhaseTimings* timings) {
    const WallTimer sim_timer;
    std::optional<TimePoint> first_window;
    {
      MutexLock lock(round_mutex_);
      for (auto& shard : shards_) publish_next_local(*shard);
      compute_next_window();
      first_window = next_window();
    }
    if (first_window.has_value()) {
      if (shards_.size() == 1) {
        worker(0, *first_window);
      } else {
        std::vector<std::thread> workers;
        workers.reserve(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
          workers.emplace_back([this, s, start = *first_window] { worker(s, start); });
        }
        for (std::thread& w : workers) w.join();
      }
    }
    rethrow_failure();
    if (timings != nullptr) timings->sim_ms = sim_timer.elapsed_ms();

    const WallTimer report_timer;
    SimulationResult result = collect();
    if (timings != nullptr) timings->report_ms = report_timer.elapsed_ms();
    return result;
  }

 private:
  // ---- construction -----------------------------------------------------

  void build_shards() {
    const GroupConfig& config = spec_.group;
    shards_.reserve(partition_.shards);
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      auto shard = std::make_unique<Shard>(group_);
      shard->index = s;
      shard->outgoing.resize(partition_.shards);
      shards_.push_back(std::move(shard));
    }
    nodes_.resize(group_.topology.num_proxies());
    for (std::size_t s = 0; s < partition_.shards; ++s) {
      for (const ProxyId p : partition_.members[s]) {
        nodes_[p] = std::make_unique<ProxyNode>(p, group_, shards_[s]->accounting);
      }
    }

    // Admissions: each request enters at its user's home proxy's shard.
    for (std::uint64_t i = 0; i < trace_.requests.size(); ++i) {
      const ProxyId home = home_proxy_in(group_.topology, trace_.requests[i].user);
      shards_[partition_.shard_of[home]]->admissions.push_back(i);
    }

    // Pre-scheduled events get the LOWEST sequence numbers, so at equal
    // timestamps they fire before any timer, message or admission — the
    // same relative order under every shard count. Series first, then
    // flushes, mirroring the classic driver's scheduling order.
    if (config.obs.series_points > 0 && !trace_.empty()) {
      const TimePoint front = trace_.requests.front().at;
      const TimePoint back = trace_.requests.back().at;
      const Duration period = std::max(
          msec(1), (back - front) / static_cast<SimClock::rep>(config.obs.series_points));
      for (auto& shard : shards_) {
        std::size_t index = 0;
        for (TimePoint t = front + period; t <= back; t += period, ++index) {
          Timer sample;
          sample.at = t;
          sample.kind = Timer::Kind::kSeriesSample;
          sample.series_index = index;
          schedule(*shard, sample);
        }
      }
    }
    for (const FaultPlan::Flush& flush : spec_.faults.flushes) {
      Timer timer;
      timer.at = flush.at;
      timer.kind = Timer::Kind::kFlush;
      timer.message.to = flush.proxy;
      schedule(*shards_[partition_.shard_of[flush.proxy]], timer);
    }
  }

  // ---- window loop ------------------------------------------------------

  void worker(std::size_t s, TimePoint first_window) {
    Shard& shard = *shards_[s];
    std::optional<TimePoint> window = first_window;
    while (window.has_value()) {
      try {
        process_window(shard, *window);
        flush_outgoing(shard);
        {
          MutexLock lock(shard.mailbox_mutex);
          publish_next_local_locked(shard);
        }
      } catch (...) {
        MutexLock lock(round_mutex_);
        if (!failure_) failure_ = std::current_exception();
      }
      window = barrier_arrive();
    }
  }

  /// Fire everything due in [window_start, window_start + W) as one merge
  /// of three sources: the mailbox batch sorted in DeliveryOrder, this
  /// window's admissions in trace order, and the timer heap. At one
  /// instant the order is: timers set before this window (pre-scheduled
  /// ones first), then the batch, then the admissions, then timers set
  /// during this window — the order every shard count reproduces.
  void process_window(Shard& shard, TimePoint window_start) {
    const TimePoint window_end = window_start + lookahead_;

    // Take every due mailbox message in canonical order: arrival order
    // (thread timing) is erased, which is what keeps the schedule
    // identical under every shard count.
    std::vector<WireMessage>& due = shard.due;
    {
      MutexLock lock(shard.mailbox_mutex);
      const auto later = std::partition(
          shard.mailbox.begin(), shard.mailbox.end(),
          [window_end](const WireMessage& message) { return message.stamp >= window_end; });
      due.assign(later, shard.mailbox.end());
      shard.mailbox.erase(later, shard.mailbox.end());
      shard.mailbox_first.reset();
      for (const WireMessage& message : shard.mailbox) {
        keep_earliest(shard.mailbox_first, message.stamp);
      }
    }
    std::sort(due.begin(), due.end(), DeliveryOrder{});

    const std::uint64_t first_new_timer = shard.next_seq;
    std::size_t next_due = 0;
    while (true) {
      const bool has_timer = !shard.timers.empty() && shard.timers.front().at < window_end;
      const bool has_message = next_due < due.size();
      const bool has_admission = shard.next_admission < shard.admissions.size() &&
                                 admission_at(shard) < window_end;
      if (!has_timer && !has_message && !has_admission) break;

      TimePoint at = kSimTimeMax;
      if (has_timer) at = shard.timers.front().at;
      if (has_message) at = std::min(at, due[next_due].stamp);
      if (has_admission) at = std::min(at, admission_at(shard));
      shard.now = at;
      if (has_timer && shard.timers.front().at == at &&
          shard.timers.front().seq < first_new_timer) {
        fire_timer(shard);
      } else if (has_message && due[next_due].stamp == at) {
        deliver(shard, due[next_due++], at);
      } else if (has_admission && admission_at(shard) == at) {
        admit(shard, shard.admissions[shard.next_admission++], at);
      } else {
        fire_timer(shard);
      }
    }
  }

  [[nodiscard]] TimePoint admission_at(const Shard& shard) const {
    return trace_.requests[shard.admissions[shard.next_admission]].at;
  }

  void flush_outgoing(Shard& shard) {
    for (std::size_t t = 0; t < shards_.size(); ++t) {
      std::vector<WireMessage>& batch = shard.outgoing[t];
      if (batch.empty()) continue;
      std::optional<TimePoint> first;
      for (const WireMessage& message : batch) keep_earliest(first, message.stamp);
      Shard& target = *shards_[t];
      MutexLock lock(target.mailbox_mutex);
      target.mailbox.insert(target.mailbox.end(), batch.begin(), batch.end());
      keep_earliest(target.mailbox_first, *first);
      batch.clear();
    }
  }

  void publish_next_local(Shard& shard) {
    MutexLock lock(shard.mailbox_mutex);
    publish_next_local_locked(shard);
  }

  void publish_next_local_locked(Shard& shard) EACACHE_REQUIRES(shard.mailbox_mutex) {
    std::optional<TimePoint> next;
    if (!shard.timers.empty()) next = shard.timers.front().at;
    if (shard.next_admission < shard.admissions.size()) keep_earliest(next, admission_at(shard));
    shard.next_local = next;
  }

  /// Arrive at the window barrier; returns the next window's start, or
  /// nullopt once the run is over. The last arriver computes the next
  /// window and bumps the generation. The others poll the generation,
  /// yielding their CPU between polls, kBarrierPolls times before they park
  /// on round_cv_: a window is microseconds of work, a park costs a futex
  /// wake-up per window, and a yield hands an oversubscribed CPU (more
  /// shards than cores) to a shard that still has work.
  std::optional<TimePoint> barrier_arrive() EACACHE_EXCLUDES(round_mutex_) {
    std::uint64_t generation = 0;
    {
      MutexLock lock(round_mutex_);
      generation = generation_.load(std::memory_order_relaxed);
      if (++waiting_ == shards_.size()) {
        waiting_ = 0;
        compute_next_window();
        generation_.store(generation + 1, std::memory_order_release);
        round_cv_.notify_all();
        return next_window();
      }
    }
    for (int poll = 0; poll < kBarrierPolls; ++poll) {
      if (generation_.load(std::memory_order_acquire) != generation) break;
      std::this_thread::yield();
    }
    MutexLock lock(round_mutex_);
    while (generation_.load(std::memory_order_relaxed) == generation) round_cv_.wait(round_mutex_);
    return next_window();
  }

  [[nodiscard]] std::optional<TimePoint> next_window() const EACACHE_REQUIRES(round_mutex_) {
    if (done_) return std::nullopt;
    return window_start_;
  }

  /// Last barrier arriver: the next window starts at the global earliest
  /// pending instant, rounded down to a multiple of the lookahead. No
  /// pending work anywhere (or a worker failure) ends the run.
  void compute_next_window() EACACHE_REQUIRES(round_mutex_) {
    if (failure_) {
      done_ = true;
      return;
    }
    std::optional<TimePoint> global;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mailbox_mutex);
      if (shard->next_local.has_value()) keep_earliest(global, *shard->next_local);
      if (shard->mailbox_first.has_value()) keep_earliest(global, *shard->mailbox_first);
    }
    if (!global.has_value()) {
      done_ = true;
      return;
    }
    window_start_ = kSimEpoch + lookahead_ * ((*global - kSimEpoch) / lookahead_);
  }

  void rethrow_failure() EACACHE_EXCLUDES(round_mutex_) {
    std::exception_ptr failure;
    {
      MutexLock lock(round_mutex_);
      failure = failure_;
    }
    if (failure) std::rethrow_exception(failure);
  }

  // ---- executing the nodes ----------------------------------------------

  /// A trace request enters at its home node.
  void admit(Shard& shard, std::uint64_t index, TimePoint now) {
    const Request& request = trace_.requests[index];
    WireMessage message;
    message.kind = WireMessage::Kind::kClientRequest;
    message.to = home_proxy_in(group_.topology, request.user);
    message.user = request.user;
    message.document = request.document;
    message.request_id = index;
    message.stamp = now;
    message.body_size = request.size;
    deliver(shard, message, now);
  }

  /// Run one node handler, then schedule its outbox: every send rides the
  /// mailbox (same-shard sends included) due after its hop delay, origin
  /// timers go onto this shard's timer heap, and completions need nothing —
  /// the node already charged GroupMetrics.
  void deliver(Shard& shard, const WireMessage& message, TimePoint now) {
    nodes_[message.to]->handle(message, now, shard.out);
    for (WireMessage& sent : shard.out) {
      switch (sent.kind) {
        case WireMessage::Kind::kOriginFetch: {
          Timer timer;
          timer.at = now + delays_.origin;
          timer.message = sent;
          schedule(shard, timer);
          break;
        }
        case WireMessage::Kind::kCompletion:
          break;
        default:
          sent.stamp = now + hop_delay(sent.kind);
          shard.outgoing[partition_.shard_of[sent.to]].push_back(sent);
      }
    }
    shard.out.clear();
  }

  void schedule(Shard& shard, Timer timer) {
    if (timer.at < shard.now) {
      throw std::logic_error("shard engine: timer scheduled in the past");
    }
    timer.seq = shard.next_seq++;
    shard.timers.push_back(timer);
    std::push_heap(shard.timers.begin(), shard.timers.end(), TimerLater{});
  }

  /// Pop the heap's top and fire it at shard.now.
  void fire_timer(Shard& shard) {
    std::pop_heap(shard.timers.begin(), shard.timers.end(), TimerLater{});
    const Timer timer = shard.timers.back();
    shard.timers.pop_back();
    switch (timer.kind) {
      case Timer::Kind::kSeriesSample:
        sample_series(shard, timer.series_index, timer.at);
        break;
      case Timer::Kind::kFlush:
        nodes_[timer.message.to]->cache().flush(timer.at);
        break;
      case Timer::Kind::kOriginFetch:
        deliver(shard, timer.message, timer.at);
        break;
    }
  }

  [[nodiscard]] Duration hop_delay(WireMessage::Kind kind) const {
    switch (kind) {
      case WireMessage::Kind::kIcpReply: return delays_.reply;
      case WireMessage::Kind::kHttpResponse:
      case WireMessage::Kind::kParentResponse: return delays_.body;
      default: return delays_.probe;  // ICP query, sibling and parent requests
    }
  }

  void sample_series(Shard& shard, std::size_t index, TimePoint at) {
    for (const ProxyId p : partition_.members[shard.index]) {
      const ProxyCache& proxy = nodes_[p]->cache();
      ProxySeriesSample sample;
      const ExpAge age = proxy.expiration_age(at);
      sample.finite = !age.is_infinite();
      if (sample.finite) sample.exp_age_ms = age.millis();
      sample.resident_bytes = proxy.store().resident_bytes();
      sample.resident_docs = proxy.store().resident_count();
      shard.series.push_back(Shard::SeriesRecord{index, at, p, sample});
    }
  }

  // ---- end-of-run merge -------------------------------------------------

  SimulationResult collect() {
    std::vector<const NodeAccounting*> units;
    for (const auto& shard : shards_) units.push_back(&shard->accounting);
    std::vector<const ProxyNode*> nodes;
    for (const auto& node : nodes_) nodes.push_back(node.get());
    SimulationResult result = collect_run_result(group_, units, nodes);

    // Series points: every shard sampled its own proxies at the same
    // global instants; reassemble per-instant points in proxy-id order.
    std::size_t num_points = 0;
    for (const auto& shard : shards_) {
      for (const Shard::SeriesRecord& record : shard->series) {
        num_points = std::max(num_points, record.index + 1);
      }
    }
    result.proxy_series.resize(num_points);
    for (auto& point : result.proxy_series) point.proxies.resize(nodes_.size());
    for (const auto& shard : shards_) {
      for (const Shard::SeriesRecord& record : shard->series) {
        result.proxy_series[record.index].at = record.at;
        result.proxy_series[record.index].proxies[record.proxy] = record.sample;
      }
    }
    return result;
  }

  // ---- members ----------------------------------------------------------

  const Trace& trace_;
  const RunSpec& spec_;
  GroupView group_;
  TopologyPartition partition_;
  Duration lookahead_;
  HopDelays delays_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Indexed by proxy id; node p runs only on shard partition_.shard_of[p].
  std::vector<std::unique_ptr<ProxyNode>> nodes_;

  /// Barrier polls before a waiter parks (see barrier_arrive).
  static constexpr int kBarrierPolls = 1000;

  Mutex round_mutex_;
  CondVar round_cv_;
  std::size_t waiting_ EACACHE_GUARDED_BY(round_mutex_) = 0;
  /// Windows completed. Written only under round_mutex_ (after the next
  /// window is computed); atomic so waiters can poll it without the lock.
  std::atomic<std::uint64_t> generation_{0};
  TimePoint window_start_ EACACHE_GUARDED_BY(round_mutex_){};
  bool done_ EACACHE_GUARDED_BY(round_mutex_) = false;
  std::exception_ptr failure_ EACACHE_GUARDED_BY(round_mutex_);
};

}  // namespace

SimulationResult run_sharded_simulation(const Trace& trace, const RunSpec& spec,
                                        PhaseTimings* timings) {
  if (!spec.exec.sharded()) {
    throw std::invalid_argument("run_sharded_simulation: ExecutionPolicy::shards must be >= 1");
  }
  spec.validate_or_throw(RunTarget::kSimulation);
  if (!is_time_ordered(trace.requests)) {
    throw std::invalid_argument("run_sharded_simulation: trace must be time-ordered");
  }
  ShardEngine engine(trace, spec);
  return engine.run(timings);
}

}  // namespace eacache
