#include "sim/shard_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/proxy_node.h"
#include "core/wall_timer.h"
#include "group/partition.h"

namespace eacache {

namespace {

/// A window index past every real one: the progress of a shard that will
/// never send again and the horizon of one nothing messages. Far enough
/// below the int64 limit that adding a lag cannot overflow.
constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max() / 4;

/// The most ICP answers one reply bundle carries: one bit each in a
/// 64-bit field (see deliver_icp_queries).
constexpr std::size_t kMaxBundle = 64;

/// A series sample or cache flush scheduled before the run.
struct Scheduled {
  enum class Kind : std::uint8_t { kSeriesSample, kFlush };

  TimePoint at{};
  std::uint64_t seq = 0;
  Kind kind = Kind::kSeriesSample;
  std::size_t series_index = 0;  ///< kSeriesSample: which sample point
  ProxyId proxy = 0;             ///< kFlush: the cache to flush
};

/// An origin fetch a node set; `message` goes back to its node when it fires.
struct OriginTimer {
  TimePoint at{};
  std::uint64_t seq = 0;
  WireMessage message;
};

/// The timer a shard fires next: the earlier of its two timer fronts.
struct TimerFront {
  TimePoint at{};
  std::uint64_t seq = 0;
  bool origin = false;  ///< the origin FIFO's front, else the pre-scheduled one
};

/// One shard: its timers, the accounting unit its nodes charge, and the
/// mailbox. The mailbox and the published progress are the ONLY state
/// other threads touch.
struct Shard {
  // ---- single-owner state (the shard's worker thread) -------------------
  explicit Shard(const GroupView& group) : accounting(group) {}

  /// A shard whose nodes message this one, and the fewest windows any of
  /// those messages takes (shard_lags).
  struct Sender {
    std::size_t shard = 0;
    std::int64_t lag = 0;
  };

  std::size_t index = 0;
  NodeAccounting accounting;
  /// The instant of the event firing now (kSimEpoch before the first).
  /// No timer may be set before it.
  TimePoint now = kSimEpoch;
  /// The window running now.
  std::int64_t window = -1;
  std::vector<Sender> senders;

  /// Series samples and flushes, sorted by (at, seq) once before the run;
  /// they hold the lowest sequence numbers.
  std::vector<Scheduled> scheduled;
  std::size_t next_scheduled = 0;
  /// Origin timers in (at, seq) order: every one is set HopDelays::origin
  /// after a nondecreasing instant, so a FIFO keeps them sorted.
  std::deque<OriginTimer> origins;
  std::uint64_t next_seq = 0;

  /// Trace indices whose home proxy lives here, ascending (= time order).
  std::vector<std::uint64_t> admissions;
  std::size_t next_admission = 0;

  /// The outbox a node handler fills; drained right after each handler.
  ProxyNode::Outbox out;
  /// Messages produced this window, bucketed by destination shard and
  /// stamped with their delivery instant; moved into the targets'
  /// mailboxes when the window ends.
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

  // ---- shared state -----------------------------------------------------
  Mutex mailbox_mutex;
  /// Messages addressed to this shard, not yet due.
  std::vector<WireMessage> mailbox EACACHE_GUARDED_BY(mailbox_mutex);
  /// The earliest stamp in `mailbox`, kept by the senders and the owner so
  /// that nobody scans the mailbox for it.
  std::optional<TimePoint> mailbox_first EACACHE_GUARDED_BY(mailbox_mutex);
  /// This shard's earliest purely-local pending work (timers + admissions),
  /// published after every window for the all-waiting jump.
  std::optional<TimePoint> next_local EACACHE_GUARDED_BY(mailbox_mutex);
  /// The last window this shard has run and flushed, or promised to pass
  /// idle: it never again sends from a window at or before it. Written by
  /// the owner, read by every shard it messages; on its own cache line.
  alignas(64) std::atomic<std::int64_t> progress{-1};
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
        delays_(hop_delays(spec.group.latency)),
        lags_(shard_lags(group_.topology, partition_, delays_, lookahead_)) {
    build_shards();
    build_fanout();
  }

  SimulationResult run(PhaseTimings* timings) {
    const WallTimer sim_timer;
    for (auto& shard : shards_) publish_next_local(*shard);
    {
      MutexLock lock(round_mutex_);
      jump();
    }
    if (!stop_) {
      if (shards_.size() == 1) {
        worker(0);
      } else {
        std::vector<std::thread> workers;
        workers.reserve(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
          workers.emplace_back([this, s] { worker(s); });
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
      for (std::size_t r = 0; r < partition_.shards; ++r) {
        if (const auto lag = lags_[r][s]) shard->senders.push_back(Shard::Sender{r, *lag});
      }
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
          Scheduled sample;
          sample.at = t;
          sample.kind = Scheduled::Kind::kSeriesSample;
          sample.series_index = index;
          sample.seq = shard->next_seq++;
          shard->scheduled.push_back(sample);
        }
      }
    }
    for (const FaultPlan::Flush& flush : spec_.faults.flushes) {
      Shard& shard = *shards_[partition_.shard_of[flush.proxy]];
      Scheduled event;
      event.at = flush.at;
      event.kind = Scheduled::Kind::kFlush;
      event.proxy = flush.proxy;
      event.seq = shard.next_seq++;
      shard.scheduled.push_back(event);
    }
    for (auto& shard : shards_) {
      std::sort(shard->scheduled.begin(), shard->scheduled.end(),
                [](const Scheduled& a, const Scheduled& b) {
                  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
                });
    }
  }

  /// fanout_[home * shards + s]: the home's ICP peers on shard s, ascending.
  void build_fanout() {
    fanout_.resize(group_.topology.num_proxies() * shards_.size());
    for (const ProxyId home : group_.topology.client_facing()) {
      group_.topology.for_each_peer(home, [&](ProxyId peer) {
        fanout_[home * shards_.size() + partition_.shard_of[peer]].push_back(peer);
      });
    }
    for (std::vector<ProxyId>& peers : fanout_) std::sort(peers.begin(), peers.end());
  }

  [[nodiscard]] const std::vector<ProxyId>& fanout(ProxyId home, std::size_t shard) const {
    return fanout_[home * shards_.size() + shard];
  }

  // ---- synchronization --------------------------------------------------

  /// One shard's loop: run its earliest window with work once no sender
  /// can still deliver into it. Otherwise promise to pass every window
  /// through the horizon idle, and wait for a sender to move on.
  void worker(std::size_t s) {
    Shard& shard = *shards_[s];
    bool waiting = false;
    try {
      while (!stop_) {
        const std::int64_t horizon = this->horizon(shard);  // first: see next_work
        const std::optional<std::int64_t> next = next_work(shard);
        if (next.has_value() && *next <= horizon) {
          if (waiting) {
            MutexLock lock(round_mutex_);
            --waiting_;
            waiting = false;
          }
          run_window(shard, *next);
          continue;
        }
        publish_progress(shard, horizon);
        if (!waiting) {
          waiting = true;
          if (arrive_waiting()) continue;
        }
        wait_past(shard, horizon);
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void run_window(Shard& shard, std::int64_t window) {
    shard.window = window;
    process_window(shard, window);
    flush_outgoing(shard);
    publish_next_local(shard);
    publish_progress(shard, window);
  }

  [[nodiscard]] std::int64_t window_of(TimePoint at) const { return (at - kSimEpoch) / lookahead_; }

  /// The last window `shard` may run: a message from a sender lands at
  /// least its lag after that sender's published progress (or the floor).
  /// Capped at kForever, so published progress never passes it.
  [[nodiscard]] std::int64_t horizon(const Shard& shard) const {
    const std::int64_t floor = floor_;
    std::int64_t horizon = kForever;
    for (const Shard::Sender& sender : shard.senders) {
      const std::int64_t progress = std::max(shards_[sender.shard]->progress.load(), floor);
      horizon = std::min(horizon, progress + sender.lag);
    }
    return horizon;
  }

  /// The window of the shard's earliest pending work, or nullopt. Read
  /// after the horizon: senders flush before they publish progress, so
  /// every message due through the horizon is in the mailbox by then.
  std::optional<std::int64_t> next_work(Shard& shard) {
    std::optional<TimePoint> mail;
    {
      MutexLock lock(shard.mailbox_mutex);
      mail = shard.mailbox_first;
    }
    if (mail.has_value() && window_of(*mail) <= shard.progress.load()) {
      throw std::logic_error("shard engine: shard " + std::to_string(shard.index) +
                             " received a message for window " +
                             std::to_string(window_of(*mail)) + ", which it has passed");
    }
    std::optional<TimePoint> next = next_local(shard);
    if (mail.has_value()) keep_earliest(next, *mail);
    if (!next.has_value()) return std::nullopt;
    return window_of(*next);
  }

  /// Promise that `shard` never again sends from a window at or before
  /// `window`, and wake the parked shards, if any.
  void publish_progress(Shard& shard, std::int64_t window) EACACHE_EXCLUDES(round_mutex_) {
    if (window <= shard.progress.load()) return;
    // Sequentially consistent with wait_past's sleepers_ increment: either
    // a parker sees this progress or this thread sees the parker.
    shard.progress = window;
    if (sleepers_ != 0) {
      MutexLock lock(round_mutex_);
      round_cv_.notify_all();
    }
  }

  /// Count this shard as waiting. The last one to arrive runs the jump;
  /// returns true when it did, so the caller re-reads its horizon.
  bool arrive_waiting() EACACHE_EXCLUDES(round_mutex_) {
    MutexLock lock(round_mutex_);
    if (++waiting_ < shards_.size()) return false;
    jump();
    return true;
  }

  /// Every shard waits, so none is running a window: every message sent
  /// is in a mailbox and every shard's local work is published. Raise the
  /// floor to just before the earliest pending window anywhere — a quiet
  /// stretch goes in one step — or end the run when nothing is pending.
  void jump() EACACHE_REQUIRES(round_mutex_) {
    std::optional<TimePoint> earliest;
    for (auto& shard : shards_) {
      MutexLock lock(shard->mailbox_mutex);
      if (shard->next_local.has_value()) keep_earliest(earliest, *shard->next_local);
      if (shard->mailbox_first.has_value()) keep_earliest(earliest, *shard->mailbox_first);
    }
    if (earliest.has_value()) {
      floor_ = std::max(floor_.load(), window_of(*earliest) - 1);
    } else {
      stop_ = true;
    }
    round_cv_.notify_all();
  }

  /// Wait until the shard's horizon passes `horizon` or the run stops. Poll,
  /// yielding the CPU between polls, kWaitPolls times, then park on
  /// round_cv_: a window is microseconds of work, a park costs a futex
  /// wake-up, and a yield hands an oversubscribed CPU (more shards than
  /// cores) to a shard that still has work.
  void wait_past(const Shard& shard, std::int64_t horizon) EACACHE_EXCLUDES(round_mutex_) {
    for (int poll = 0; poll < kWaitPolls; ++poll) {
      if (stop_ || this->horizon(shard) > horizon) return;
      std::this_thread::yield();
    }
    MutexLock lock(round_mutex_);
    ++sleepers_;
    while (!stop_ && this->horizon(shard) <= horizon) round_cv_.wait(round_mutex_);
    --sleepers_;
  }

  /// A worker failed: stop every worker; run() rethrows the first failure.
  void fail(std::exception_ptr error) EACACHE_EXCLUDES(round_mutex_) {
    MutexLock lock(round_mutex_);
    if (!failure_) failure_ = std::move(error);
    stop_ = true;
    round_cv_.notify_all();
  }

  void rethrow_failure() EACACHE_EXCLUDES(round_mutex_) {
    std::exception_ptr failure;
    {
      MutexLock lock(round_mutex_);
      failure = failure_;
    }
    if (failure) std::rethrow_exception(failure);
  }

  // ---- one window -------------------------------------------------------

  /// Fire everything due in window `window` as one merge of four sources:
  /// the mailbox batch sorted in DeliveryOrder, this window's admissions in
  /// trace order, and the two timer fronts (next_timer). At one instant the
  /// order is: timers set before this window (pre-scheduled ones first),
  /// then the batch, then the admissions, then timers set during this
  /// window — the order every shard count reproduces.
  void process_window(Shard& shard, std::int64_t window) {
    const TimePoint window_end = kSimEpoch + lookahead_ * (window + 1);

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
      std::optional<TimerFront> timer = next_timer(shard);
      if (timer.has_value() && timer->at >= window_end) timer.reset();
      const bool has_message = next_due < due.size();
      const bool has_admission = shard.next_admission < shard.admissions.size() &&
                                 admission_at(shard) < window_end;
      if (!timer.has_value() && !has_message && !has_admission) break;

      TimePoint at = kSimTimeMax;
      if (timer.has_value()) at = timer->at;
      if (has_message) at = std::min(at, due[next_due].stamp);
      if (has_admission) at = std::min(at, admission_at(shard));
      shard.now = at;
      if (timer.has_value() && timer->at == at && timer->seq < first_new_timer) {
        fire_timer(shard, *timer);
      } else if (has_message && due[next_due].stamp == at) {
        dispatch(shard, due[next_due++], at);
      } else if (has_admission && admission_at(shard) == at) {
        admit(shard, shard.admissions[shard.next_admission++], at);
      } else {
        fire_timer(shard, *timer);
      }
    }
  }

  [[nodiscard]] TimePoint admission_at(const Shard& shard) const {
    return trace_.requests[shard.admissions[shard.next_admission]].at;
  }

  /// The earlier of the pre-scheduled and origin-FIFO fronts by (instant,
  /// sequence), or nullopt when both are empty.
  [[nodiscard]] static std::optional<TimerFront> next_timer(const Shard& shard) {
    std::optional<TimerFront> front;
    if (shard.next_scheduled < shard.scheduled.size()) {
      const Scheduled& event = shard.scheduled[shard.next_scheduled];
      front = TimerFront{event.at, event.seq, false};
    }
    if (!shard.origins.empty()) {
      const OriginTimer& timer = shard.origins.front();
      if (!front.has_value() || timer.at < front->at ||
          (timer.at == front->at && timer.seq < front->seq)) {
        front = TimerFront{timer.at, timer.seq, true};
      }
    }
    return front;
  }

  [[nodiscard]] std::optional<TimePoint> next_local(const Shard& shard) const {
    std::optional<TimePoint> next;
    if (const auto timer = next_timer(shard)) next = timer->at;
    if (shard.next_admission < shard.admissions.size()) keep_earliest(next, admission_at(shard));
    return next;
  }

  void publish_next_local(Shard& shard) {
    const std::optional<TimePoint> next = next_local(shard);
    MutexLock lock(shard.mailbox_mutex);
    shard.next_local = next;
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

  void dispatch(Shard& shard, const WireMessage& message, TimePoint now) {
    switch (message.kind) {
      case WireMessage::Kind::kIcpQuery: return deliver_icp_queries(shard, message, now);
      case WireMessage::Kind::kIcpReply: return deliver_icp_replies(shard, message, now);
      default: return deliver(shard, message, now);
    }
  }

  /// Run one node handler, then schedule its outbox: every send rides the
  /// mailbox (same-shard sends included) due after its hop delay, origin
  /// timers join this shard's origin FIFO, and completions need nothing —
  /// the node already charged GroupMetrics. An ICP fan-out leaves as one
  /// bundle per destination shard: the query to the home's lowest-id peer
  /// there stands for all of them (deliver_icp_queries).
  void deliver(Shard& shard, const WireMessage& message, TimePoint now) {
    nodes_[message.to]->handle(message, now, shard.out);
    std::size_t queries = 0;
    for (WireMessage& sent : shard.out) {
      switch (sent.kind) {
        case WireMessage::Kind::kOriginFetch:
          set_origin_timer(shard, sent, now + delays_.origin);
          break;
        case WireMessage::Kind::kCompletion:
          break;
        case WireMessage::Kind::kIcpQuery:
          ++queries;
          if (sent.to == fanout(sent.from, partition_.shard_of[sent.to]).front()) {
            send(shard, sent, now);
          }
          break;
        default:
          send(shard, sent, now);
      }
    }
    shard.out.clear();
    if (queries != 0 && queries != group_.topology.peer_count(message.to)) {
      throw std::logic_error("shard engine: a node sent a partial ICP fan-out");
    }
  }

  /// Stamp `message` with its delivery instant and queue it for its shard.
  /// A message landing before the sender's window plus the link's lag
  /// would reach a shard that may already have run past it.
  void send(Shard& shard, WireMessage message, TimePoint now) {
    message.stamp = now + hop_delay(message.kind);
    const std::uint32_t target = partition_.shard_of[message.to];
    if (target != shard.index) {
      const std::optional<std::int64_t> lag = lags_[shard.index][target];
      if (!lag.has_value() || window_of(message.stamp) < shard.window + *lag) {
        throw std::logic_error("shard engine: a message from shard " +
                               std::to_string(shard.index) + " to shard " +
                               std::to_string(target) +
                               " lands before the sender's window plus the link's lag");
      }
    }
    shard.outgoing[target].push_back(message);
  }

  /// Expand a query bundle: every peer of the home on this shard answers,
  /// in ascending id — the contiguous run the separate queries formed in
  /// DeliveryOrder. The answers go back as one kIcpReply entry per
  /// kMaxBundle peers, `from` the chunk's first peer, with the answers as
  /// bit sets in fields a reply does not use: hits in body_size,
  /// no-answers (a peer inside an outage) in span_id.
  void deliver_icp_queries(Shard& shard, const WireMessage& bundle, TimePoint now) {
    const std::vector<ProxyId>& peers = fanout(bundle.from, shard.index);
    WireMessage answers;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const std::size_t bit = i % kMaxBundle;
      if (bit == 0) {
        if (i > 0) send(shard, answers, now);
        answers = WireMessage{};
        answers.kind = WireMessage::Kind::kIcpReply;
        answers.from = peers[i];
        answers.to = bundle.from;
        answers.request_id = bundle.request_id;
        answers.document = bundle.document;
      }
      WireMessage query = bundle;
      query.to = peers[i];
      nodes_[peers[i]]->handle(query, now, shard.out);
      if (shard.out.size() != 1 || shard.out.front().kind != WireMessage::Kind::kIcpReply) {
        throw std::logic_error("shard engine: an ICP query must cause exactly one reply");
      }
      const WireMessage::Icp answer = shard.out.front().icp;
      if (answer == WireMessage::Icp::kHit) answers.body_size |= Bytes{1} << bit;
      if (answer == WireMessage::Icp::kNoAnswer) answers.span_id |= std::uint64_t{1} << bit;
      shard.out.clear();
    }
    send(shard, answers, now);
  }

  /// Expand a reply bundle at the home into its kIcpReply messages, in
  /// ascending peer id.
  void deliver_icp_replies(Shard& shard, const WireMessage& bundle, TimePoint now) {
    const std::vector<ProxyId>& peers = fanout(bundle.to, partition_.shard_of[bundle.from]);
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(peers.begin(), peers.end(), bundle.from) - peers.begin());
    const std::size_t count = std::min(kMaxBundle, peers.size() - first);
    for (std::size_t bit = 0; bit < count; ++bit) {
      WireMessage reply;
      reply.kind = WireMessage::Kind::kIcpReply;
      reply.from = peers[first + bit];
      reply.to = bundle.to;
      reply.request_id = bundle.request_id;
      reply.document = bundle.document;
      reply.stamp = bundle.stamp;
      if (((bundle.span_id >> bit) & 1U) != 0) {
        reply.icp = WireMessage::Icp::kNoAnswer;
      } else if (((bundle.body_size >> bit) & 1U) != 0) {
        reply.icp = WireMessage::Icp::kHit;
      }
      deliver(shard, reply, now);
    }
  }

  /// Origin timers all take HopDelays::origin, so they are set in (at, seq)
  /// order and a FIFO holds them sorted; anything else is a logic error.
  void set_origin_timer(Shard& shard, const WireMessage& fetch, TimePoint at) {
    if (at < shard.now) {
      throw std::logic_error("shard engine: timer scheduled in the past");
    }
    if (!shard.origins.empty() && at < shard.origins.back().at) {
      throw std::logic_error("shard engine: origin timer set before the FIFO's back");
    }
    shard.origins.push_back(OriginTimer{at, shard.next_seq++, fetch});
  }

  /// Pop the front `timer` names and fire it at shard.now.
  void fire_timer(Shard& shard, const TimerFront& timer) {
    if (timer.origin) {
      const OriginTimer origin = shard.origins.front();
      shard.origins.pop_front();
      deliver(shard, origin.message, origin.at);
      return;
    }
    const Scheduled event = shard.scheduled[shard.next_scheduled++];
    switch (event.kind) {
      case Scheduled::Kind::kSeriesSample:
        sample_series(shard, event.series_index, event.at);
        break;
      case Scheduled::Kind::kFlush:
        nodes_[event.proxy]->cache().flush(event.at);
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
  ShardLags lags_;
  std::vector<std::vector<ProxyId>> fanout_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Indexed by proxy id; node p runs only on shard partition_.shard_of[p].
  std::vector<std::unique_ptr<ProxyNode>> nodes_;

  /// Horizon polls before a waiting shard parks (see wait_past).
  static constexpr int kWaitPolls = 1000;

  Mutex round_mutex_;
  CondVar round_cv_;
  /// Shards with no window they may run: the last one to arrive jumps.
  std::size_t waiting_ EACACHE_GUARDED_BY(round_mutex_) = 0;
  std::exception_ptr failure_ EACACHE_GUARDED_BY(round_mutex_);
  /// Shards parked on round_cv_; publishers lock and notify only when
  /// there are some.
  std::atomic<std::size_t> sleepers_{0};
  /// Every shard's progress counts as at least this: the all-waiting jump
  /// raises it (under round_mutex_).
  std::atomic<std::int64_t> floor_{-1};
  /// Set once nothing is pending anywhere or a worker failed.
  std::atomic<bool> stop_{false};
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
