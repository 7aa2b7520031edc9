#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/clock.h"
#include "core/run_result_json.h"
#include "daemon/daemon_group.h"
#include "open_loop.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace eacache;

SyntheticTraceConfig paper_trace_config(std::uint64_t seed) {
  SyntheticTraceConfig config = SyntheticTraceConfig::bu_calibrated();
  config.seed = seed;
  // The calibration the paper benches replay (bench/bench_common.cpp): a
  // steeper popularity skew plus session repeats reproduce the BU traces'
  // small hot set.
  config.zipf_alpha = 1.0;
  config.repeat_probability = 0.5;
  config.repeat_window = 256;
  return config;
}

SyntheticTraceConfig metro_trace_config(std::uint64_t seed, std::uint64_t requests) {
  SyntheticTraceConfig config;
  config.seed = seed;
  config.num_requests = requests;
  config.num_documents = 6'000;
  config.num_users = 4'096;
  // 500 req/s of simulated arrivals: dense enough that a conservative
  // window holds real work instead of being an empty barrier.
  config.span = msec(static_cast<std::int64_t>(requests) * 2);
  return config;
}

GroupConfig paper_group(std::size_t proxies, Bytes capacity, PlacementKind placement) {
  GroupConfig config;
  config.num_proxies = proxies;
  config.aggregate_capacity = capacity;
  config.replacement = PolicyKind::kLru;
  config.placement = placement;
  config.topology = TopologyKind::kDistributed;
  config.latency = LatencyModel::paper_defaults();
  return config;
}

GroupConfig pipeline_group(Bytes capacity) {
  GroupConfig config = paper_group(4, capacity, PlacementKind::kEa);
  config.pipeline.event_driven = true;
  config.icp_loss_probability = 0.1;
  config.pipeline.icp_retries = 2;
  config.pipeline.coalesce = true;
  return config;
}

GroupConfig metro_group() {
  GroupConfig config;
  std::vector<std::optional<ProxyId>> parents(1089);
  for (ProxyId leaf = 0; leaf < 1024; ++leaf) parents[leaf] = static_cast<ProxyId>(1024 + leaf / 16);
  for (ProxyId mid = 1024; mid < 1088; ++mid) parents[mid] = 1088;
  parents[1088] = std::nullopt;
  config.topology = TopologyKind::kHierarchical;
  config.custom_parents = std::move(parents);
  config.aggregate_capacity = 64 * kMiB;
  config.replacement = PolicyKind::kLru;
  config.placement = PlacementKind::kEa;
  config.latency = LatencyModel::paper_defaults();
  return config;
}

GroupConfig daemon_group() {
  GroupConfig config = paper_group(2, 1 * kMiB, PlacementKind::kEa);
  config.obs.series_points = 0;  // the daemon has no mid-run sampling hook
  return config;
}

std::vector<RunSpec> paper_sweep_specs() {
  std::vector<RunSpec> specs;
  for (const PlacementKind placement : {PlacementKind::kAdHoc, PlacementKind::kEa}) {
    for (const Bytes capacity : paper_capacity_ladder()) {
      RunSpec spec;
      spec.group = paper_group(4, capacity, placement);
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

SynthesizedTrace synthesize(const SyntheticTraceConfig& config, int reps, Tracer& tracer) {
  SynthesizedTrace out;
  for (int rep = 0; rep < reps; ++rep) {
    const Tracer::Span span(tracer, "trace.generate", static_cast<std::uint64_t>(rep));
    const WallClock::time_point start = WallClock::now();
    Trace trace = generate_synthetic_trace(config);
    out.seconds.push_back(seconds_between(start, WallClock::now()));
    out.trace = std::move(trace);
  }
  return out;
}

namespace {

/// Syntheses timed before the first pass. One more is timed after every
/// pass, so the setup_s samples spread over the whole run: the host slows
/// this code by up to ~1.5x for seconds at a time, and samples taken back
/// to back all land in the same slow stretch.
constexpr int kSetupReps = 3;

/// Time one more synthesis of `config` for setup_s, outside every timed
/// sample.
void resample_setup(const SyntheticTraceConfig& config, std::vector<double>& seconds,
                    Tracer& tracer) {
  seconds.push_back(synthesize(config, 1, tracer).seconds.front());
}

/// setup_s: the median synthesis time plus, on the daemon, the median
/// DaemonGroup construction and start() time.
void report_setup(Report& report, const std::vector<double>& synthesis,
                  const std::vector<double>& group_start) {
  const double group_s = group_start.empty() ? 0.0 : median(group_start);
  report.end_to_end("setup_s", median(synthesis) + group_s, "s",
                    synthesis.size() + group_start.size());
}

/// What one execution of a workload body measured.
struct BodyResult {
  double rps = 0.0;
  double gen_s = 0.0;
  std::uint64_t passes = 0;
  std::vector<SimulationResult> results;  // the last pass's results
};

/// One timed sample, and whether the host left it alone (see steal_free).
struct Sample {
  double seconds = 0.0;
  bool valid = true;
};

template <typename Body>
Sample timed(Body&& body) {
  const double steal = host_steal_seconds();
  const WallClock::time_point start = WallClock::now();
  body();
  const double seconds = seconds_between(start, WallClock::now());
  return {seconds, steal_free(host_steal_seconds() - steal, seconds)};
}

/// The values of the samples the host left alone; all of them when it
/// disturbed every one, so a run always reports what it saw.
std::vector<double> valid_values(const std::vector<Sample>& samples,
                                 const std::vector<double>& values, std::uint64_t& dropped) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].valid) kept.push_back(values[i]);
  }
  if (kept.empty()) return values;
  dropped += values.size() - kept.size();
  return kept;
}

// ---- metro-sharded -------------------------------------------------------------

/// The sharded engine's determinism gate: byte-identical result JSON at 1
/// and 4 shards, on the first 60k requests of the metro trace.
void shard_identity_gate(const Trace& trace, Report& report) {
  Trace prefix;
  prefix.requests.assign(trace.requests.begin(),
                         trace.requests.begin() +
                             static_cast<std::ptrdiff_t>(std::min<std::size_t>(60'000, trace.size())));
  RunSpec spec;
  spec.group = metro_group();
  spec.exec.shards = 1;
  const std::string one = simulation_result_to_json(run(prefix, spec));
  spec.exec.shards = 4;
  const std::string four = simulation_result_to_json(run(prefix, spec));
  report.check(one == four, "metro result JSON identical at 1 and 4 shards (" +
                                std::to_string(prefix.size()) + " requests)");
}

/// metro-sharded: timed passes of the metro trace on 4 shards until
/// `seconds` have elapsed (at least three). rps counts only the run()
/// calls; trace synthesis is done before and the result-JSON rendering
/// after each call. The call time is the fastest pass among those the host
/// left alone: on a shared host this code runs up to ~1.5x slower for
/// seconds at a time, and the fastest pass varies least between runs.
BodyResult metro_body(const Options& options, double seconds, bool gate, Report& report,
                      Tracer& tracer) {
  const SyntheticTraceConfig config = metro_trace_config(options.metro_seed, kMetroRequests);
  SynthesizedTrace input = synthesize(config, kSetupReps, tracer);
  const Trace& trace = input.trace;
  RunSpec spec;
  spec.group = metro_group();
  spec.exec.shards = 4;
  if (gate) shard_identity_gate(trace, report);

  BodyResult out;
  std::vector<Sample> calls;
  std::string reference_json;
  std::uint64_t mismatches = 0;
  const WallClock::time_point begin = WallClock::now();
  for (std::uint64_t pass = 0; pass < 3 || seconds_between(begin, WallClock::now()) < seconds;
       ++pass) {
    if (pass > 0) resample_setup(config, input.seconds, tracer);
    const Tracer::Span pass_span(tracer, "pass", pass);
    SimulationResult result;
    {
      const Tracer::Span span(tracer, "engine", pass);
      calls.push_back(timed([&] { result = run(trace, spec); }));
    }
    std::string json;
    {
      const Tracer::Span span(tracer, "result_json", pass);
      json = simulation_result_to_json(result);
    }
    {
      // The result JSON carries the hit and byte-hit counts, so identical
      // JSON across passes is the determinism check.
      const Tracer::Span span(tracer, "check", pass);
      if (result.metrics.total_requests() != trace.size()) ++mismatches;
      if (reference_json.empty()) reference_json = json;
      if (json != reference_json) ++mismatches;
    }
    out.results.assign(1, std::move(result));
    ++out.passes;
  }
  report.add_attempted(out.passes * trace.size());
  report.check(mismatches == 0, "every pass reproduced the first pass's result JSON (" +
                                    std::to_string(out.passes) + " passes, " +
                                    std::to_string(mismatches) + " mismatches)");
  std::vector<double> seconds_taken;
  for (const Sample& sample : calls) seconds_taken.push_back(sample.seconds);
  std::uint64_t dropped = 0;
  const double fastest = quantile(valid_values(calls, seconds_taken, dropped), 0.0);
  out.rps = static_cast<double>(trace.size()) / fastest;
  report.end_to_end("rps", out.rps, "req/s", out.passes);

  // A simulated engine replays a whole trace in one call, so it has no
  // per-request wall latency. p50_us here is the time per request, 1/rps:
  // every gated metric must appear on every workload.
  report.end_to_end("p50_us", 1e6 / out.rps, "us", out.passes);
  report.note("p50_us on a simulated workload is time per request (1/rps), not a per-request "
              "latency");
  report.note(std::to_string(dropped) + " timed passes dropped for host steal");
  out.gen_s = median(input.seconds);
  report_setup(report, input.seconds, {});
  const SimulationResult& last = out.results.back();
  report.note("hit rate " + std::to_string(last.metrics.hit_rate()) + ", byte hit rate " +
              std::to_string(last.metrics.byte_hit_rate()));
  return out;
}

// ---- daemon-open ---------------------------------------------------------------

constexpr double kOpenLoopRate = 100'000.0;
constexpr std::size_t kClosedLoopInFlight = 64;
constexpr std::size_t kGateInFlight = 8;
constexpr double kSegmentSeconds = 0.5;

BodyResult daemon_body(const Options& options, double seconds, bool gate, Report& report,
                       Tracer& tracer) {
  const SyntheticTraceConfig trace_config = paper_trace_config(options.paper_seed);
  SynthesizedTrace input = synthesize(trace_config, kSetupReps, tracer);
  const Trace& trace = input.trace;
  const GroupConfig config = daemon_group();

  SteadyClock clock;
  std::vector<double> group_setup_s;
  const auto start_group = [&] {
    const WallClock::time_point start = WallClock::now();
    auto group = std::make_unique<DaemonGroup>(config, clock, DaemonMode::kWallClock);
    group->start();
    group_setup_s.push_back(seconds_between(start, WallClock::now()));
    return group;
  };

  if (gate) {
    // The daemon's hit rate must land within two points of the classic
    // simulation of the same trace and group (daemon_demo's bound). The gate
    // replays at 8 in flight: at 64, requests for the same hot document
    // overlap in flight and miss together, which costs ~2.5 points of hit
    // rate by design, not by a fault.
    RunSpec spec;
    spec.group = config;
    const double simulated = run(trace, spec).metrics.hit_rate();
    auto group = start_group();
    const ClosedLoopReport closed = run_closed_loop(*group, trace.requests, kGateInFlight);
    group->stop();
    const double live = group->collect_result().metrics.hit_rate();
    report.check(closed.completed == trace.size(),
                 "daemon gate: every request completed at " + std::to_string(kGateInFlight) +
                     " in flight");
    report.check(std::abs(live - simulated) < 0.02,
                 "daemon gate: hit rate " + std::to_string(live) + " within 0.02 of the classic "
                 "simulation's " + std::to_string(simulated));
    group_setup_s.clear();
  }

  BodyResult out;
  const double phase_seconds = seconds / 2.0;

  // Phase A: closed loop, 64 in flight, one full trace per fresh group.
  std::vector<double> phase_a_rps;
  std::vector<Sample> phase_a;
  std::uint64_t incomplete = 0;
  const WallClock::time_point begin = WallClock::now();
  for (std::uint64_t pass = 0;
       pass < 3 || seconds_between(begin, WallClock::now()) < phase_seconds; ++pass) {
    if (pass > 0) resample_setup(trace_config, input.seconds, tracer);
    const Tracer::Span pass_span(tracer, "pass", pass);
    auto group = start_group();
    ClosedLoopReport closed;
    {
      const Tracer::Span span(tracer, "engine", pass);
      phase_a.push_back(
          timed([&] { closed = run_closed_loop(*group, trace.requests, kClosedLoopInFlight); }));
    }
    group->stop();
    SimulationResult result = group->collect_result();
    {
      const Tracer::Span span(tracer, "result_json", pass);
      (void)run_result_to_json(result);
    }
    {
      const Tracer::Span span(tracer, "check", pass);
      incomplete += trace.size() - closed.completed;
      if (result.metrics.total_requests() != closed.completed) ++incomplete;
    }
    report.add_attempted(trace.size());
    phase_a_rps.push_back(static_cast<double>(closed.completed) / closed.wall_seconds);
    out.results.assign(1, std::move(result));
    ++out.passes;
  }
  report.add_failed(incomplete);
  report.check(incomplete == 0, "phase A: every request completed (" +
                                    std::to_string(out.passes) + " passes, hit rate " +
                                    std::to_string(out.results.back().metrics.hit_rate()) + ")");
  // The fastest pass the host left alone, as on metro-sharded.
  std::uint64_t dropped = 0;
  out.rps = quantile(valid_values(phase_a, phase_a_rps, dropped), 1.0);
  report.end_to_end("rps", out.rps, "req/s", phase_a_rps.size());

  // Phase B: open loop at a fixed rate, timed from each request's due
  // instant, summarized per half-second segment. p50_us is the quietest
  // segment's median: on a shared host, steal slows the workers enough for
  // seconds at a time that requests queue, and then the median over the
  // segments measures the host (up to 5x between runs of one build).
  auto group = start_group();
  const auto segment = static_cast<std::size_t>(kOpenLoopRate * kSegmentSeconds);
  std::vector<double> steal_at;  // host steal at each segment boundary
  OpenLoopOptions open;
  open.rate_rps = kOpenLoopRate;
  open.requests = static_cast<std::uint64_t>(kOpenLoopRate * phase_seconds);
  open.before_send = [&](std::uint64_t index) {
    if (index % segment == 0) steal_at.push_back(host_steal_seconds());
  };
  OpenLoopReport measured;
  {
    const Tracer::Span span(tracer, "engine", out.passes);
    measured = run_open_loop(*group, trace.requests, open);
  }
  steal_at.push_back(host_steal_seconds());
  group->stop();
  report.add_attempted(measured.sent);
  report.add_failed(measured.sent - measured.completed);
  report.check(measured.completed == measured.sent,
               "phase B: " + std::to_string(measured.completed) + " of " +
                   std::to_string(measured.sent) + " requests completed by the drain deadline");

  std::vector<double> p50, p90, p99;
  std::vector<Sample> segments;
  for (std::size_t from = 0; from < measured.latency_us.size(); from += segment) {
    const std::size_t to = std::min(from + segment, measured.latency_us.size());
    std::vector<double> window(measured.latency_us.begin() + static_cast<std::ptrdiff_t>(from),
                               measured.latency_us.begin() + static_cast<std::ptrdiff_t>(to));
    // A request that never completed misses every latency limit.
    for (double& v : window) {
      if (v < 0.0) v = 1e12;
    }
    const std::size_t k = from / segment;
    segments.push_back({kSegmentSeconds,
                        steal_free(steal_at[k + 1] - steal_at[k], kSegmentSeconds)});
    p50.push_back(quantile(window, 0.50));
    p90.push_back(quantile(window, 0.90));
    p99.push_back(quantile(window, 0.99));
  }
  const auto n = static_cast<std::uint64_t>(measured.latency_us.size());
  const std::uint64_t dropped_a = dropped;
  report.end_to_end("p50_us", quantile(valid_values(segments, p50, dropped), 0.0), "us", n);
  // The upper percentiles, median over the segments, are printed with their
  // sample counts but not gated: their spread between runs follows host
  // steal bursts (README.md).
  std::uint64_t ignored = 0;  // the same segments again
  report.end_to_end("p90_us", median(valid_values(segments, p90, ignored)), "us", n,
                    /*gated=*/false);
  report.end_to_end("p99_us", median(valid_values(segments, p99, ignored)), "us", n,
                    /*gated=*/false);
  report.note("dropped for host steal: " + std::to_string(dropped_a) + " phase A passes, " +
              std::to_string(dropped - dropped_a) + " phase B segments");
  report.note("phase B: " + std::to_string(p50.size()) + " segments of " +
              std::to_string(segment) + " requests at " + std::to_string(kOpenLoopRate) +
              " req/s; generator late by at most " + std::to_string(measured.late_ms_max) +
              " ms, backlog max " + std::to_string(measured.backlog_max) +
              "; worst segment p90 " + std::to_string(quantile(p90, 1.0)) + " us");

  out.gen_s = median(input.seconds);
  report_setup(report, input.seconds, group_setup_s);
  return out;
}

BodyResult workload_body(const Options& options, double seconds, bool gate, Report& report,
                         Tracer& tracer) {
  if (options.workload == "daemon-open") return daemon_body(options, seconds, gate, report, tracer);
  return metro_body(options, seconds, gate, report, tracer);
}

}  // namespace

void run_workload(const Options& options, Report& report) {
  if (!options.traced) {
    Tracer off(false);
    (void)workload_body(options, options.seconds, /*gate=*/true, report, off);
    report.end_to_end("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    return;
  }

  // Traced run: the workload untraced, then traced, each for half the
  // time; the difference is the tracing overhead. The ladder follows.
  Tracer off(false);
  const BodyResult plain = workload_body(options, options.seconds / 2.0, true, report, off);
  Tracer tracer(true);
  const BodyResult traced = workload_body(options, options.seconds / 2.0, false, report, tracer);
  report.layer("trace.gen_s", traced.gen_s, "s", 1);
  report.layer("trace.overhead_rps", plain.rps - traced.rps, "req/s", plain.passes + traced.passes);
  const std::map<std::string, double> self = tracer.self_ms();
  const auto per_pass = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / static_cast<double>(traced.passes);
  };
  report.layer("trace.self_ms.engine", per_pass("engine"), "ms/pass", traced.passes);
  report.layer("trace.self_ms.result_json", per_pass("result_json"), "ms/pass", traced.passes);
  report.layer("trace.self_ms.check", per_pass("check"), "ms/pass", traced.passes);
  report.layer("trace.self_ms.bench", per_pass("pass"), "ms/pass", traced.passes);

  run_layer_ladder(options, traced.results, report, tracer);

  if (!options.spans_out.empty()) {
    if (tracer.write_jsonl(options.spans_out)) {
      report.note("wrote " + std::to_string(tracer.size()) + " spans to " + options.spans_out);
    } else {
      report.note("could not write spans to " + options.spans_out);
    }
  }
}

}  // namespace perfbench
