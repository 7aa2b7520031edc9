#include "daemon/daemon_group.h"

#include <stdexcept>
#include <utility>

#include "core/run_spec.h"
#include "core/wall_timer.h"

namespace eacache {

namespace {

constexpr std::chrono::milliseconds kMailboxPoll{20};

/// Validation gate for the constructor: runs before any member that depends
/// on the config (the group view builds the topology).
const GroupConfig& validated(const GroupConfig& config) {
  RunSpec spec;
  spec.group = config;
  spec.validate_or_throw(RunTarget::kDaemon);
  return config;
}

}  // namespace

DaemonGroup::DaemonGroup(const GroupConfig& config, Clock& clock, DaemonMode mode,
                         std::size_t flight_capacity)
    : group_(validated(config), {}),
      clock_(clock),
      mode_(mode),
      wire_(group_.topology.num_proxies() + 2) {
  const std::size_t total = group_.topology.num_proxies();
  workers_.reserve(total);
  for (std::size_t p = 0; p < total; ++p) {
    workers_.push_back(std::make_unique<Worker>(static_cast<ProxyId>(p), group_, flight_capacity));
  }
}

DaemonGroup::~DaemonGroup() { stop(); }

void DaemonGroup::start() {
  if (started_) throw std::logic_error("DaemonGroup::start: already started");
  started_ = true;
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    workers_[p]->thread = std::thread([this, p] { worker_main(p); });
  }
}

void DaemonGroup::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    WireMessage bye;
    bye.kind = WireMessage::Kind::kShutdown;
    bye.to = static_cast<ProxyId>(p);
    wire_.send(static_cast<ProxyId>(p), bye);
  }
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

ProxyId DaemonGroup::home_proxy(UserId user) const {
  return home_proxy_in(group_.topology, user);
}

TimePoint DaemonGroup::step_now(const WireMessage& message) const {
  return mode_ == DaemonMode::kSmokeReplay ? message.stamp : clock_.now();
}

void DaemonGroup::worker_main(std::size_t index) {
  Worker& w = *workers_[index];
  for (;;) {
    std::optional<WireMessage> message =
        wire_.receive(static_cast<ProxyId>(index), kMailboxPoll);
    if (!message) continue;
    const TimePoint now = step_now(*message);
    switch (message->kind) {
      case WireMessage::Kind::kShutdown:
        return;
      case WireMessage::Kind::kFlush: {
        w.node.cache().flush(now);
        // Flushes are acknowledged so the closed-loop driver can order them
        // against requests served by OTHER workers (mailbox FIFO only
        // orders messages to the same endpoint).
        WireMessage ack = *message;
        ack.kind = WireMessage::Kind::kCompletion;
        ack.from = w.node.id();
        ack.to = load_endpoint();
        wire_.send(ack.to, ack);
        break;
      }
      case WireMessage::Kind::kStatsRequest:
        handle_stats_request(w, *message);
        break;
      case WireMessage::Kind::kCompletion:
      case WireMessage::Kind::kStatsReply:
        break;  // only the load/stats endpoints receive these
      default:
        run_node(w, *message, now);
    }
  }
}

void DaemonGroup::run_node(Worker& w, const WireMessage& message, TimePoint now) {
  w.node.handle(message, now, w.out);
  // By index: an origin timer runs inline and may append more messages.
  for (std::size_t i = 0; i < w.out.size(); ++i) {
    WireMessage sent = w.out[i];
    switch (sent.kind) {
      case WireMessage::Kind::kOriginFetch:
        w.node.handle(sent, now, w.out);
        break;
      case WireMessage::Kind::kCompletion:
        sent.to = load_endpoint();
        wire_.send(sent.to, sent);
        break;
      default:
        wire_.send(sent.to, sent);
    }
  }
  w.out.clear();
}

void DaemonGroup::handle_stats_request(Worker& w, const WireMessage& message) {
  {
    MutexLock lock(w.stats.mutex);
    WorkerStatsSample& sample = w.stats.data;
    const ProxyCache& proxy = w.node.cache();
    sample.proxy = proxy.id();
    sample.registry = w.accounting.registry.snapshot();
    sample.metrics = w.accounting.metrics;
    sample.transport = w.accounting.transport.stats();
    sample.in_flight = w.node.in_flight();
    sample.resident_bytes = proxy.store().resident_bytes();
    sample.resident_docs = proxy.store().resident_count();
    // peek_: a telemetry sample must not bump ea.age_queries (obs-is-free).
    sample.expiration_age = proxy.peek_expiration_age(clock_.now());
    sample.spans_recorded = w.accounting.flight.recorded();
    sample.spans_dropped = w.accounting.flight.dropped();
    if (message.want_spans) {
      sample.spans = w.accounting.flight.events();
    } else {
      sample.spans.clear();
    }
  }
  WireMessage ack;
  ack.kind = WireMessage::Kind::kStatsReply;
  ack.from = w.node.id();
  ack.to = message.from;
  ack.request_id = message.request_id;  // the sampler's epoch stamp
  wire_.send(ack.to, ack);
}

std::optional<std::vector<DaemonGroup::WorkerStatsSample>> DaemonGroup::sample_stats(
    bool want_spans, std::chrono::nanoseconds timeout) {
  MutexLock lock(stats_mutex_);
  const std::uint64_t epoch = ++stats_epoch_;
  for (std::size_t p = 0; p < workers_.size(); ++p) {
    WireMessage request;
    request.kind = WireMessage::Kind::kStatsRequest;
    request.from = stats_endpoint();
    request.to = static_cast<ProxyId>(p);
    request.request_id = epoch;
    request.want_spans = want_spans;
    wire_.send(request.to, request);
  }

  const Deadline deadline(timeout);
  std::vector<bool> acked(workers_.size(), false);
  std::size_t acks = 0;
  while (acks < workers_.size()) {
    if (deadline.expired()) return std::nullopt;
    const std::optional<WireMessage> reply = wire_.receive(stats_endpoint(), deadline.remaining());
    if (!reply) return std::nullopt;
    if (reply->kind != WireMessage::Kind::kStatsReply || reply->request_id != epoch) {
      continue;  // straggler from a timed-out earlier round
    }
    if (reply->from < workers_.size() && !acked[reply->from]) {
      acked[reply->from] = true;
      ++acks;
    }
  }

  std::vector<WorkerStatsSample> samples;
  samples.reserve(workers_.size());
  for (const auto& worker : workers_) {
    MutexLock slot(worker->stats.mutex);
    samples.push_back(worker->stats.data);
  }
  return samples;
}

RunResult DaemonGroup::collect_result() {
  if (started_ && !stopped_) {
    throw std::logic_error("DaemonGroup::collect_result: stop() the workers first");
  }
  // Safe without locks: stop() joined every worker, and thread join orders
  // all their writes before these reads.
  std::vector<const NodeAccounting*> units;
  std::vector<const ProxyNode*> nodes;
  for (const auto& worker : workers_) {
    units.push_back(&worker->accounting);
    nodes.push_back(&worker->node);
  }
  return collect_run_result(group_, units, nodes);
}

}  // namespace eacache
