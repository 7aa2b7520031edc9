// Live telemetry plane tests (DESIGN.md §13):
//  * StatsExpositionTest — scrape the real loopback HTTP endpoint twice
//    around live load and validate Prometheus exposition grammar plus
//    counter monotonicity between the scrapes.
//  * TelemetryGoldenTest — a hand-built deterministic TelemetrySnapshot
//    pins the JSON exporter schema byte-for-byte
//    (tests/golden/telemetry_snapshot.json, EACACHE_UPDATE_GOLDEN to
//    regenerate via tests/tools/refresh_goldens.sh).
//  * SpanPropagationTest — cross-hop trace identity: remote ICP-probe and
//    sibling-fetch spans link back to a root span minted on another worker.
//  * FlightRecorderTest — FaultPlan-triggered dumps write span + delta
//    lines without perturbing smoke-replay byte-identity.
//  * SampleStatsTest — the snapshot seam's basic contract.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_result_json.h"
#include "daemon/daemon.h"
#include "daemon/telemetry.h"
#include "trace/synthetic.h"

#ifndef EACACHE_GOLDEN_DIR
#error "EACACHE_GOLDEN_DIR must point at tests/golden"
#endif

namespace eacache {
namespace {

Trace small_trace(std::uint64_t requests, std::uint64_t seed) {
  SyntheticTraceConfig workload;
  workload.num_requests = requests;
  workload.num_documents = requests / 8;
  workload.num_users = 24;
  workload.span = hours(2);
  workload.seed = seed;
  return generate_synthetic_trace(workload);
}

GroupConfig daemon_config(std::size_t proxies) {
  GroupConfig config;
  config.num_proxies = proxies;
  config.aggregate_capacity = 512 * kKiB;
  config.placement = PlacementKind::kEa;
  config.obs.series_points = 0;
  return config;
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:port; returns the full response
/// (headers + body) or an empty string on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  const ssize_t sent = ::write(fd, request.data(), request.size());
  EXPECT_EQ(sent, static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : response.substr(split + 4);
}

/// Parsed Prometheus text exposition, validated against the subset of the
/// grammar the exporter promises: HELP/TYPE per family, families never
/// interleaved, every sample belonging to an announced family.
struct Exposition {
  std::map<std::string, std::string> types;    // family -> counter|gauge|histogram
  std::map<std::string, double> samples;       // name+labels -> value
};

Exposition parse_exposition(const std::string& text) {
  Exposition parsed;
  // Counters render via std::to_string, doubles via %.12g (may yield
  // scientific notation, inf or nan).
  const std::regex sample_re(
      R"(^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?(?:[0-9][0-9eE+.\-]*|inf|nan))$)");
  std::string current_family;
  std::set<std::string> closed_families;  // grammar: no interleaving
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << "bad TYPE line: " << line;
      EXPECT_EQ(parsed.types.count(family), 0u)
          << "family announced twice (interleaved): " << family;
      if (!current_family.empty()) closed_families.insert(current_family);
      current_family = family;
      parsed.types[family] = type;
      continue;
    }
    std::smatch match;
    const bool is_sample = std::regex_match(line, match, sample_re);
    EXPECT_TRUE(is_sample) << "line is neither comment nor sample: " << line;
    if (!is_sample) continue;
    const std::string name = match[1];
    EXPECT_FALSE(current_family.empty()) << "sample before any TYPE: " << line;
    // A sample belongs to the family announced immediately above it: the
    // family name itself, or its _bucket/_sum/_count series for histograms.
    const bool in_family =
        name == current_family ||
        (parsed.types[current_family] == "histogram" &&
         (name == current_family + "_bucket" || name == current_family + "_sum" ||
          name == current_family + "_count"));
    EXPECT_TRUE(in_family) << "sample " << name << " outside announced family "
                           << current_family;
    EXPECT_EQ(closed_families.count(current_family), 0u)
        << "family reopened (interleaved): " << current_family;
    parsed.samples[match[1].str() + match[2].str()] = std::strtod(match[3].str().c_str(), nullptr);
  }
  return parsed;
}

TEST(StatsExpositionTest, LiveScrapeGrammarAndMonotoneCounters) {
  const GroupConfig config = daemon_config(3);
  SteadyClock clock(kSimEpoch);
  DaemonGroup group(config, clock, DaemonMode::kWallClock, /*flight_capacity=*/256);
  group.start();

  StatsPoller::Options poll_options;
  poll_options.period = msec(50);
  StatsPoller poller(group, poll_options);  // driven manually: poll_once()
  StatsHttpServer server(StatsHttpHandler(poller), /*port=*/0);
  server.start();
  ASSERT_GT(server.bound_port(), 0);

  LoadGenOptions load;
  load.speedup = 1e6;  // compress the synthetic span: finish fast
  {
    LoadGen gen(group, clock, nullptr, DaemonMode::kWallClock, load);
    const LoadGenReport report = gen.replay(small_trace(4000, 21));
    ASSERT_EQ(report.completed, report.submitted);
  }
  ASSERT_TRUE(poller.poll_once());
  const std::string first_response = http_get(server.bound_port(), "/metrics");
  ASSERT_NE(first_response.find("HTTP/1.0 200"), std::string::npos);
  ASSERT_NE(first_response.find("text/plain; version=0.0.4"), std::string::npos);
  const Exposition first = parse_exposition(body_of(first_response));

  {
    LoadGen gen(group, clock, nullptr, DaemonMode::kWallClock, load);
    const LoadGenReport report = gen.replay(small_trace(4000, 22));
    ASSERT_EQ(report.completed, report.submitted);
  }
  ASSERT_TRUE(poller.poll_once());
  const Exposition second = parse_exposition(body_of(http_get(server.bound_port(), "/metrics")));

  // Both scrapes carry the headline families with correct kinds.
  for (const Exposition* scrape : {&first, &second}) {
    EXPECT_EQ(scrape->types.at("eacache_group_requests_total"), "counter");
    EXPECT_EQ(scrape->types.at("eacache_group_request_bytes"), "histogram");
    EXPECT_EQ(scrape->types.at("eacache_telemetry_requests_per_second"), "gauge");
    EXPECT_EQ(scrape->types.at("eacache_proxy_local_hits_total"), "counter");
    EXPECT_GT(scrape->samples.count("eacache_proxy_local_hits_total{proxy=\"0\"}"), 0u);
    EXPECT_GT(scrape->samples.count("eacache_group_request_bytes_bucket{le=\"+Inf\"}"), 0u);
  }
  // Counters are monotone across scrapes — strictly so for the request
  // count, which grew by a whole second trace between them.
  EXPECT_EQ(first.samples.at("eacache_group_requests_total"), 4000.0);
  EXPECT_EQ(second.samples.at("eacache_group_requests_total"), 8000.0);
  for (const auto& [key, value] : first.samples) {
    if (key.find("_total") == std::string::npos) continue;
    const auto later = second.samples.find(key);
    ASSERT_NE(later, second.samples.end()) << "counter vanished between scrapes: " << key;
    EXPECT_GE(later->second, value) << "counter moved backwards: " << key;
  }

  // JSON twin serves the same registry plus the derived block.
  const std::string json_response = http_get(server.bound_port(), "/stats.json");
  EXPECT_NE(json_response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(json_response.find("\"derived\""), std::string::npos);
  EXPECT_NE(json_response.find("\"group.requests\":8000"), std::string::npos);
  EXPECT_NE(http_get(server.bound_port(), "/nope").find("HTTP/1.0 404"), std::string::npos);

  server.stop();
  group.stop();
}

TEST(TelemetryGoldenTest, JsonSnapshotMatchesGolden) {
  // Hand-built, fully deterministic snapshot: no clocks, no threads.
  MetricRegistry registry(true);
  registry.counter("group.requests").inc(100);
  registry.counter("group.icp.queries").inc(57);
  registry.counter("proxy.0.local.hits").inc(42);
  registry.counter("proxy.1.local.hits").inc(13);
  registry.counter("link.0->1.bytes").inc(2048);
  registry.gauge("proxy.0.resident_bytes").set(4096.0);
  registry.gauge("telemetry.requests_per_second").set(66.5);
  const MetricRegistry::HistogramHandle sizes =
      registry.histogram("group.request_bytes", 0.0, 4096.0, 4);
  sizes.observe(100.0);
  sizes.observe(1024.0);
  sizes.observe(5000.0);  // overflow

  TelemetrySnapshot snapshot;
  snapshot.at_ms = 86'400'000;
  snapshot.tick = 3;
  snapshot.window_seconds = 1.5;
  snapshot.total_requests = 100;
  snapshot.in_flight = 2;
  snapshot.resident_bytes = 4096;
  snapshot.resident_docs = 7;
  snapshot.hit_rate = 0.42;
  snapshot.window_hit_rate = 0.5;
  snapshot.requests_per_second = 66.5;
  snapshot.icp_queries_per_second = 12.25;
  snapshot.origin_fetches_per_second = 3.75;
  snapshot.registry = registry.snapshot();

  const std::string json = telemetry_snapshot_to_json(snapshot);
  const std::string path = std::string(EACACHE_GOLDEN_DIR) + "/telemetry_snapshot.json";
  if (std::getenv("EACACHE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << json;
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (regenerate with tests/tools/refresh_goldens.sh)";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(json, stored.str())
      << "telemetry JSON schema diverged from tests/golden/telemetry_snapshot.json";

  // The Prometheus twin of the same snapshot must expose the histogram as
  // cumulative buckets with matching _count, and render the derived gauge.
  std::ostringstream prom;
  write_telemetry_prometheus(prom, snapshot);
  const Exposition exposition = parse_exposition(prom.str());
  EXPECT_EQ(exposition.samples.at("eacache_group_request_bytes_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_EQ(exposition.samples.at("eacache_group_request_bytes_count"), 3.0);
  EXPECT_EQ(exposition.samples.at("eacache_group_request_bytes_sum"), 6124.0);
  EXPECT_EQ(exposition.samples.at("eacache_telemetry_requests_per_second"), 66.5);
  EXPECT_EQ(exposition.samples.at("eacache_link_bytes_total{from=\"0\",to=\"1\"}"), 2048.0);
}

TEST(SpanPropagationTest, RemoteSpansLinkToRootsAcrossWorkers) {
  const GroupConfig config = daemon_config(3);
  FakeClock fake(kSimEpoch);
  DaemonGroup group(config, fake, DaemonMode::kSmokeReplay, /*flight_capacity=*/65536);
  group.start();
  LoadGen gen(group, fake, &fake, DaemonMode::kSmokeReplay, LoadGenOptions{});
  const Trace trace = small_trace(3000, 33);
  const LoadGenReport report = gen.replay(trace);
  ASSERT_EQ(report.completed, trace.size());

  const auto samples = group.sample_stats(/*want_spans=*/true, std::chrono::seconds(10));
  ASSERT_TRUE(samples.has_value());
  ASSERT_EQ(samples->size(), 3u);

  std::map<std::uint64_t, ProxyId> roots;  // root span id -> minting worker
  for (const auto& sample : *samples) {
    for (const SpanEvent& span : sample.spans) {
      if (span.kind == SpanKind::kArrival) {
        ASSERT_NE(span.span, 0u) << "arrival span without trace identity";
        EXPECT_LT(span.parent_span, 0) << "arrival must be a root";
        EXPECT_EQ(span.hop, 0);
        EXPECT_TRUE(roots.emplace(span.span, sample.proxy).second)
            << "span id minted twice: " << span.span;
      }
    }
  }
  ASSERT_FALSE(roots.empty());

  std::uint64_t cross_hop_spans = 0;
  for (const auto& sample : *samples) {
    for (const SpanEvent& span : sample.spans) {
      if (span.kind != SpanKind::kIcpProbe && span.kind != SpanKind::kSiblingFetch) continue;
      if (span.hop != 1) continue;  // hop-1 events ran on the remote worker
      ++cross_hop_spans;
      ASSERT_GE(span.parent_span, 0);
      const auto root = roots.find(static_cast<std::uint64_t>(span.parent_span));
      ASSERT_NE(root, roots.end())
          << "remote span parents an unknown root: " << span.parent_span;
      EXPECT_NE(root->second, sample.proxy)
          << "hop-1 span recorded on the same worker that minted the root";
    }
  }
  EXPECT_GT(cross_hop_spans, 0u) << "workload produced no cross-hop protocol spans";
  group.stop();
}

TEST(FlightRecorderTest, FaultPlanDumpWritesSpansAndDeltas) {
  const Trace trace = small_trace(2000, 44);
  const GroupConfig config = daemon_config(3);
  const std::string dump_path = testing::TempDir() + "/eacache_flight_dump.jsonl";
  std::remove(dump_path.c_str());

  RunSpec spec;
  spec.group = config;
  spec.faults.flight_dumps = {trace.requests[trace.requests.size() / 2].at};
  DaemonOptions options;  // smoke replay
  options.telemetry.flight_capacity = 4096;
  options.telemetry.flight_out = dump_path;
  const RunResult with_dump = run_daemon(trace, spec, options);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in) << "flight dump not written to " << dump_path;
  std::uint64_t span_lines = 0, delta_lines = 0, summary_lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\"") != std::string::npos) {
      ++span_lines;
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
    } else if (line.find("\"metric\"") != std::string::npos) {
      ++delta_lines;
      EXPECT_NE(line.find("\"delta\""), std::string::npos);
      EXPECT_NE(line.find("\"worker\""), std::string::npos);
    } else if (line.find("\"spans_recorded\"") != std::string::npos) {
      ++summary_lines;
    }
  }
  EXPECT_GT(span_lines, 0u);
  EXPECT_GT(delta_lines, 0u);
  EXPECT_EQ(summary_lines, 3u);  // one per worker

  // Flight recording + mid-run sampling must not perturb the replay: the
  // result JSON stays byte-identical to a run with the plane fully off.
  spec.faults = {};
  const RunResult plain = run_daemon(trace, spec);
  EXPECT_EQ(run_result_to_json(with_dump), run_result_to_json(plain));
}

TEST(SampleStatsTest, SamplesCoverEveryWorkerAndSumToTotals) {
  const Trace trace = small_trace(1500, 55);
  const GroupConfig config = daemon_config(4);
  FakeClock fake(kSimEpoch);
  DaemonGroup group(config, fake, DaemonMode::kSmokeReplay);
  group.start();
  LoadGen gen(group, fake, &fake, DaemonMode::kSmokeReplay, LoadGenOptions{});
  (void)gen.replay(trace);

  const auto samples = group.sample_stats(false, std::chrono::seconds(10));
  ASSERT_TRUE(samples.has_value());
  ASSERT_EQ(samples->size(), 4u);
  std::uint64_t requests = 0, in_flight = 0;
  std::set<ProxyId> seen;
  for (const auto& sample : *samples) {
    seen.insert(sample.proxy);
    requests += sample.registry.counter_value("group.requests");
    in_flight += sample.in_flight;
    EXPECT_TRUE(sample.spans.empty()) << "spans returned without want_spans";
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(requests, trace.size());
  EXPECT_EQ(in_flight, 0u) << "closed-loop replay left requests pending";

  group.stop();
  // A stopped group cannot ack: the sampler reports failure, not a hang.
  EXPECT_FALSE(group.sample_stats(false, std::chrono::milliseconds(50)).has_value());
}

}  // namespace
}  // namespace eacache
