// The traced run's layer ladder. Each probe reaches its layer through a
// public entry point and times the calls from outside; README.md lists the
// end-to-end metric each layer metric is expected to move.
//
// Left out on purpose: the ICP codec (icp_encode/icp_decode) and the shard
// message codec (encode_shard_message/decode_shard_message). No engine calls
// either on a request path today — the sharded engine only sorts messages
// with ShardMessageOrder — so their cost cannot move any end-to-end metric.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "core/clock.h"
#include "core/inmemory_transport.h"
#include "core/run_result_json.h"
#include "daemon/daemon_group.h"
#include "ea/contention.h"
#include "event/event_queue.h"
#include "open_loop.h"
#include "sim/experiment.h"
#include "sim/request_pipeline.h"
#include "sim/simulator.h"
#include "storage/cache_store.h"
#include "workloads.h"

namespace perfbench {

using namespace eacache;

namespace {

/// splitmix64: the hold model's delays, seeded from --seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

double per_request(double count, double requests) {
  return requests > 0.0 ? count / requests : 0.0;
}

// ---- the dropped paper workloads' correctness gate -------------------------------

/// No timed workload replays the paper trace on the classic driver or the
/// event-driven pipeline any more (main.cpp says why), so their outputs
/// are checked here: every spec once with the invariant checker attached.
/// The traced run reports no peak RSS, which this gate would otherwise set.
void invariant_gate(const Trace& trace, const std::vector<RunSpec>& specs,
                    const std::string& driver, Report& report) {
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  bool all_enabled = true;
  for (RunSpec spec : specs) {
    spec.check_invariants = true;
    const SimulationResult result = run(trace, spec);
    all_enabled = all_enabled && result.validation.enabled;
    checks += result.validation.checks;
    violations += result.validation.violations;
    if (!result.validation.ok()) report.note("invariant report: " + result.validation.summary());
  }
  report.check(all_enabled && violations == 0 && checks > 0,
               "invariant checker, " + driver + ": " + std::to_string(specs.size()) + " runs, " +
                   std::to_string(checks) + " checks, " + std::to_string(violations) +
                   " violations");
}

void paper_invariant_gates(const Trace& trace, Report& report, Tracer& tracer) {
  const Tracer::Span span(tracer, "layer.invariants", 0);
  invariant_gate(trace, paper_sweep_specs(), "classic driver, {AdHoc, EA} x ladder", report);
  std::vector<RunSpec> pipeline_specs;
  for (const Bytes capacity : paper_capacity_ladder()) {
    pipeline_specs.emplace_back().group = pipeline_group(capacity);
  }
  invariant_gate(trace, pipeline_specs, "event-driven pipeline, EA x ladder", report);
}

// ---- counters read out of the workload's own results ----------------------------

std::uint64_t sum_proxy_counters(const MetricRegistry& registry, const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name.rfind("proxy.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

void result_counters(const std::vector<SimulationResult>& results, Report& report) {
  double requests = 0, icp = 0, origin = 0, evictions = 0, silent = 0, served = 0;
  double age_queries = 0, accepted = 0, rejected = 0, suppressed = 0;
  for (const SimulationResult& r : results) {
    requests += static_cast<double>(r.metrics.total_requests());
    icp += static_cast<double>(r.transport.icp_queries);
    origin += static_cast<double>(r.transport.origin_fetches);
    const MetricRegistry& reg = r.registry;
    evictions += static_cast<double>(sum_proxy_counters(reg, ".evictions.capacity"));
    silent += static_cast<double>(sum_proxy_counters(reg, ".silent_hits"));
    served += static_cast<double>(sum_proxy_counters(reg, ".local.hits") +
                                  sum_proxy_counters(reg, ".fetches.served"));
    age_queries += static_cast<double>(sum_proxy_counters(reg, ".ea.age_queries"));
    accepted += static_cast<double>(sum_proxy_counters(reg, ".placement.accepted"));
    rejected += static_cast<double>(sum_proxy_counters(reg, ".placement.rejected"));
    suppressed += static_cast<double>(sum_proxy_counters(reg, ".promotions.suppressed"));
  }
  const auto n = static_cast<std::uint64_t>(requests);
  report.layer("group.icp_queries_per_req", per_request(icp, requests), "msg/req", n);
  report.layer("group.origin_fetches_per_req", per_request(origin, requests), "1/req", n);
  report.layer("storage.evictions_per_req", per_request(evictions, requests), "1/req", n);
  report.layer("storage.silent_hit_share", per_request(silent, served), "ratio",
               static_cast<std::uint64_t>(served));
  report.layer("ea.age_queries_per_req", per_request(age_queries, requests), "1/req", n);
  report.layer("ea.accept_ratio", per_request(accepted, accepted + rejected), "ratio",
               static_cast<std::uint64_t>(accepted + rejected));
  report.layer("ea.promotions_suppressed_per_req", per_request(suppressed, requests), "1/req", n);
}

// ---- group: CacheGroup::serve split by outcome, plus the eviction stream ---------

struct EvictionCapture final : EvictionObserver {
  std::vector<EvictionRecord> records;
  void on_eviction(const EvictionRecord& record) override { records.push_back(record); }
};

void group_and_estimator(const Trace& trace, Report& report, Tracer& tracer) {
  std::vector<double> serve_ns[3];
  std::vector<std::unique_ptr<EvictionCapture>> captures;
  for (const Bytes capacity : {100 * kKiB, 1 * kGiB}) {
    const Tracer::Span span(tracer, "layer.group.serve", capacity);
    CacheGroup group(paper_group(4, capacity, PlacementKind::kEa));
    if (capacity == 100 * kKiB) {
      for (std::size_t p = 0; p < group.num_proxies(); ++p) {
        captures.push_back(std::make_unique<EvictionCapture>());
        group.add_eviction_observer(static_cast<ProxyId>(p), captures.back().get());
      }
    }
    for (const Request& request : trace.requests) {
      const WallClock::time_point start = WallClock::now();
      const RequestOutcome outcome = group.serve(request);
      serve_ns[static_cast<int>(outcome)].push_back(
          static_cast<double>(nanos_between(start, WallClock::now())));
    }
  }
  const char* names[3] = {"local", "remote", "miss"};
  for (int i = 0; i < 3; ++i) {
    const auto n = static_cast<std::uint64_t>(serve_ns[i].size());
    report.layer(std::string("group.serve_ns.") + names[i] + ".p50", quantile(serve_ns[i], 0.5),
                 "ns", n);
    report.layer(std::string("group.serve_ns.") + names[i] + ".p99", quantile(serve_ns[i], 0.99),
                 "ns", n);
  }

  // Eq. 5 estimator: replay each proxy's captured victims (EA@100KiB) into a
  // standalone ContentionEstimator, one update plus one age query each.
  const Tracer::Span span(tracer, "layer.ea.estimator", 0);
  std::vector<double> rounds_ns;
  std::uint64_t victims = 0;
  for (int round = 0; round < 5; ++round) {
    std::int64_t elapsed = 0;
    victims = 0;
    for (const auto& capture : captures) {
      ContentionEstimator estimator(AgeForm::kLru, WindowConfig{});
      const WallClock::time_point start = WallClock::now();
      for (const EvictionRecord& record : capture->records) {
        estimator.on_eviction(record);
        (void)estimator.cache_expiration_age(record.evict_time);
      }
      elapsed += nanos_between(start, WallClock::now());
      victims += capture->records.size();
    }
    rounds_ns.push_back(victims > 0 ? static_cast<double>(elapsed) / static_cast<double>(victims)
                                    : 0.0);
  }
  report.layer("ea.estimator_ns", median(rounds_ns), "ns", victims);
}

// ---- storage: each proxy's stream against a standalone CacheStore -----------------

void storage_replay(const Trace& trace, Report& report, Tracer& tracer) {
  const GroupConfig config = paper_group(4, 100 * kKiB, PlacementKind::kEa);
  const Topology topology = topology_from(config);
  std::vector<std::vector<const Request*>> streams(topology.num_proxies());
  for (const Request& request : trace.requests) {
    streams[home_proxy_in(topology, request.user)].push_back(&request);
  }
  for (const Bytes aggregate : {100 * kKiB, 1 * kGiB}) {
    const Tracer::Span span(tracer, "layer.storage", aggregate);
    std::int64_t touch_ns = 0, admit_ns = 0;
    std::uint64_t touches = 0, admits = 0;
    for (const auto& stream : streams) {
      CacheStore store(aggregate / streams.size(), make_policy(PolicyKind::kLru));
      for (const Request* request : stream) {
        const WallClock::time_point start = WallClock::now();
        const bool hit = store.touch(request->document, request->at).has_value();
        const WallClock::time_point touched = WallClock::now();
        touch_ns += nanos_between(start, touched);
        ++touches;
        if (!hit) {
          (void)store.admit(Document{request->document, request->size, 0}, request->at);
          admit_ns += nanos_between(touched, WallClock::now());
          ++admits;
        }
      }
    }
    const std::string label = aggregate == 100 * kKiB ? "100KiB" : "1GiB";
    report.layer("storage.touch_ns." + label,
                 static_cast<double>(touch_ns) / static_cast<double>(std::max<std::uint64_t>(touches, 1)),
                 "ns", touches);
    report.layer("storage.admit_ns." + label,
                 static_cast<double>(admit_ns) / static_cast<double>(std::max<std::uint64_t>(admits, 1)),
                 "ns", admits);
  }
}

// ---- event + pipeline: the simulator's driving loop, counted from outside ---------

struct QueueShape {
  double pending_p50 = 0.0;
  double cancel_share = 0.0;
};

QueueShape pipeline_replay(const Trace& trace, Report& report, Tracer& tracer) {
  const Tracer::Span span(tracer, "layer.pipeline", 0);
  CacheGroup group(pipeline_group(1 * kMiB));
  EventQueue queue;
  RequestPipeline pipeline(group, queue);
  std::uint64_t events = 0;
  std::int64_t start_ns = 0;
  std::vector<double> pending;
  pending.reserve(trace.size());
  double pending_max = 0.0;
  for (const Request& request : trace.requests) {
    events += queue.run_until(request.at);
    const WallClock::time_point start = WallClock::now();
    pipeline.start(request);
    start_ns += nanos_between(start, WallClock::now());
    const auto depth = static_cast<double>(queue.pending());
    pending.push_back(depth);
    pending_max = std::max(pending_max, depth);
  }
  while (pipeline.in_flight() > 0 && queue.step()) ++events;

  // Every discovery round schedules one ICP timeout; the ones that did not
  // fire were cancelled. Rounds = requests that reached discovery (neither
  // a local hit nor a coalesced join) plus retry rounds.
  const PipelineStats& stats = pipeline.stats();
  const double local_hits = static_cast<double>(group.metrics().count(RequestOutcome::kLocalHit));
  const double rounds = static_cast<double>(stats.started) - local_hits -
                        static_cast<double>(stats.coalesced_joins) +
                        static_cast<double>(stats.icp_retries);
  const double cancelled = std::max(0.0, rounds - static_cast<double>(stats.icp_timeouts));
  const double scheduled = static_cast<double>(events) + cancelled;

  const auto n = static_cast<std::uint64_t>(trace.size());
  QueueShape shape;
  shape.pending_p50 = quantile(pending, 0.5);
  shape.cancel_share = scheduled > 0.0 ? cancelled / scheduled : 0.0;
  report.layer("event.events_per_req", per_request(static_cast<double>(events),
                                                   static_cast<double>(n)), "1/req", n);
  report.layer("event.pending_p50", shape.pending_p50, "count", n);
  report.layer("event.pending_max", pending_max, "count", n);
  report.layer("event.cancel_share", shape.cancel_share, "ratio",
               static_cast<std::uint64_t>(scheduled));
  report.layer("pipeline.start_ns", static_cast<double>(start_ns) / static_cast<double>(n), "ns", n);
  report.layer("pipeline.in_flight_max", static_cast<double>(stats.max_in_flight), "count", n);
  return shape;
}

/// Hold model: keep `depth` events pending; each operation fires the
/// earliest and schedules a replacement, and with probability `extra` also
/// schedules an event that is cancelled before it fires. One such event per
/// operation at most, so cancel shares above one half are modelled as half.
double hold_ns(std::size_t depth, double cancel_share, std::uint64_t seed) {
  EventQueue queue;
  SplitMix rng(seed);
  const double share = std::min(cancel_share, 0.5);
  const double extra = share / (1.0 - share);
  const auto delay = [&] { return msec(1 + static_cast<std::int64_t>(rng.next() % 2000)); };
  const EventFn noop = [](TimePoint) {};
  for (std::size_t i = 0; i < depth; ++i) queue.schedule_after(delay(), noop);
  constexpr std::uint64_t kOps = 400'000;
  const WallClock::time_point start = WallClock::now();
  for (std::uint64_t op = 0; op < kOps; ++op) {
    queue.step();
    queue.schedule_after(delay(), noop);
    if (rng.uniform() < extra) queue.cancel(queue.schedule_after(delay(), noop));
  }
  return static_cast<double>(nanos_between(start, WallClock::now())) / static_cast<double>(kOps);
}

void event_hold(const QueueShape& shape, std::uint64_t seed, Report& report, Tracer& tracer) {
  const Tracer::Span span(tracer, "layer.event.hold", 0);
  const auto shallow = static_cast<std::size_t>(std::max(1.0, std::round(shape.pending_p50)));
  std::vector<double> shallow_ns, deep_ns;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    shallow_ns.push_back(hold_ns(shallow, shape.cancel_share, seed + rep));
    deep_ns.push_back(hold_ns(1024, 0.0, seed + rep));
  }
  report.layer("event.hold_ns.shallow", median(shallow_ns), "ns", 3 * 400'000);
  report.layer("event.hold_ns.deep1024", median(deep_ns), "ns", 3 * 400'000);
}

// ---- shard: the COST ladder on the metro trace (reported, never gated) ------------

void shard_ladder(std::uint64_t metro_seed, Report& report, Tracer& tracer) {
  const Tracer::Span span(tracer, "layer.shard", 0);
  Tracer quiet(false);
  const Trace trace = synthesize(metro_trace_config(metro_seed, kMetroRequests), 1, quiet).trace;
  const auto rate = [&](std::size_t shards, std::string* json) {
    RunSpec spec;
    spec.group = metro_group();
    spec.exec.shards = shards;
    const WallClock::time_point start = WallClock::now();
    const SimulationResult result = run(trace, spec);
    const double seconds = seconds_between(start, WallClock::now());
    if (json != nullptr) *json = simulation_result_to_json(result);
    return static_cast<double>(trace.size()) / seconds;
  };
  std::string one, four;
  const double classic = rate(0, nullptr);
  const double rps1 = rate(1, &one);
  const double rps4 = rate(4, &four);
  report.check(one == four, "metro result JSON identical at 1 and 4 shards (" +
                                std::to_string(trace.size()) + " requests)");
  const auto n = static_cast<std::uint64_t>(trace.size());
  report.layer("shard.rps_classic", classic, "req/s", n);
  report.layer("shard.rps_1", rps1, "req/s", n);
  report.layer("shard.rps_4", rps4, "req/s", n);
  report.layer("shard.speedup_4v1", rps4 / rps1, "x", n);
  report.layer("shard.cost_ratio", rps4 / classic, "x", n);
}

// ---- mailbox: one WireMessage bounced between two threads -------------------------

void mailbox_hop(Report& report, Tracer& tracer) {
  const Tracer::Span span(tracer, "layer.mailbox", 0);
  InMemoryTransport wire(2);
  constexpr int kRoundTrips = 20'000;
  std::thread echo([&wire] {
    for (;;) {
      const auto message = wire.receive(1, std::chrono::seconds(5));
      if (!message || message->kind == WireMessage::Kind::kShutdown) return;
      wire.send(0, *message);
    }
  });
  std::vector<double> hop_ns;
  hop_ns.reserve(kRoundTrips);
  WireMessage ping;
  ping.kind = WireMessage::Kind::kIcpQuery;
  for (int i = 0; i < kRoundTrips; ++i) {
    ping.request_id = static_cast<std::uint64_t>(i) + 1;
    const WallClock::time_point start = WallClock::now();
    wire.send(1, ping);
    const auto pong = wire.receive(0, std::chrono::seconds(5));
    if (!pong) break;
    hop_ns.push_back(static_cast<double>(nanos_between(start, WallClock::now())) / 2.0);
  }
  WireMessage bye;
  bye.kind = WireMessage::Kind::kShutdown;
  wire.send(1, bye);
  echo.join();
  report.check(hop_ns.size() == kRoundTrips, "mailbox: every round trip returned");
  const auto n = static_cast<std::uint64_t>(hop_ns.size());
  report.layer("mailbox.hop_ns.p50", quantile(hop_ns, 0.5), "ns", n);
  report.layer("mailbox.hop_ns.p99", quantile(hop_ns, 0.99), "ns", n);
}

// ---- daemon: messages per request, and the generator's own lateness ---------------

void daemon_probe(const Trace& trace, Report& report, Tracer& tracer) {
  const Tracer::Span span(tracer, "layer.daemon", 0);
  SteadyClock clock;
  const GroupConfig config = daemon_group();
  {
    DaemonGroup group(config, clock, DaemonMode::kWallClock);
    group.start();
    const Trace slice{{trace.requests.begin(),
                       trace.requests.begin() +
                           static_cast<std::ptrdiff_t>(std::min<std::size_t>(200'000, trace.size()))}};
    const ClosedLoopReport closed = run_closed_loop(group, slice.requests, 64);
    group.stop();
    const RunResult result = group.collect_result();
    report.check(closed.completed == slice.size(), "daemon probe: closed loop completed");
    report.layer("daemon.msgs_per_req",
                 per_request(static_cast<double>(result.transport.total_messages()),
                             static_cast<double>(result.metrics.total_requests())),
                 "msg/req", result.metrics.total_requests());
  }
  DaemonGroup group(config, clock, DaemonMode::kWallClock);
  group.start();
  OpenLoopOptions open;
  open.rate_rps = 100'000.0;
  open.requests = 100'000;
  const OpenLoopReport measured = run_open_loop(group, trace.requests, open);
  group.stop();
  report.check(measured.completed == measured.sent, "daemon probe: open loop completed");
  report.layer("loadgen.late_ms_max", measured.late_ms_max, "ms", measured.sent);
  report.layer("loadgen.backlog_max", static_cast<double>(measured.backlog_max), "count",
               measured.sent);
}

// ---- result JSON and the obs registry's cost --------------------------------------

void result_json_and_obs(const Trace& trace, Report& report, Tracer& tracer) {
  {
    const Tracer::Span span(tracer, "layer.result_json", 0);
    std::vector<double> render_ms;
    for (const RunSpec& spec : paper_sweep_specs()) {
      const SimulationResult result = run(trace, spec);
      const WallClock::time_point start = WallClock::now();
      const std::string json = simulation_result_to_json(result);
      render_ms.push_back(seconds_between(start, WallClock::now()) * 1e3);
      if (json.empty()) report.check(false, "result JSON rendered");
    }
    report.layer("result_json.ms_per_run", median(render_ms), "ms", render_ms.size());
  }

  const Tracer::Span span(tracer, "layer.obs", 0);
  std::vector<double> on_s, off_s;
  for (int rep = 0; rep < 5; ++rep) {
    for (const bool obs : {true, false}) {
      RunSpec spec;
      spec.group = paper_group(4, 1 * kMiB, PlacementKind::kEa);
      if (!obs) spec.group.obs = ObsConfig::disabled();
      const WallClock::time_point start = WallClock::now();
      (void)run(trace, spec);
      (obs ? on_s : off_s).push_back(seconds_between(start, WallClock::now()));
    }
  }
  report.layer("obs.overhead_pct", 100.0 * (median(on_s) - median(off_s)) / median(off_s), "%",
               on_s.size() + off_s.size());
}

}  // namespace

void run_layer_ladder(const Options& options, const std::vector<SimulationResult>& results,
                      Report& report, Tracer& tracer) {
  result_counters(results, report);

  Tracer quiet(false);
  const Trace paper = synthesize(paper_trace_config(options.paper_seed), 1, quiet).trace;
  paper_invariant_gates(paper, report, tracer);
  group_and_estimator(paper, report, tracer);
  storage_replay(paper, report, tracer);
  const QueueShape shape = pipeline_replay(paper, report, tracer);
  event_hold(shape, options.seed, report, tracer);
  shard_ladder(options.metro_seed, report, tracer);
  mailbox_hop(report, tracer);
  daemon_probe(paper, report, tracer);
  result_json_and_obs(paper, report, tracer);
  report.note("not measured: icp_encode/icp_decode and encode/decode_shard_message -- no "
              "engine calls either codec on a request path, so neither can move an "
              "end-to-end metric");
}

}  // namespace perfbench
