// SCALE — Paper §4.1/§4.2 (2, 4 and 8 cache groups): how group size affects
// the EA scheme's advantage. The paper reports the hit-rate gain growing
// with group size at small aggregate sizes (~6.5% for 8 caches at 100KB).
//
// The full cross product (5 capacities x 3 group sizes x 2 schemes = 30
// runs) is enqueued as ONE sweep, so `--jobs N` parallelises across every
// dimension at once.
//
// `--shard-scaling` switches to the metro-scale arm instead: ONE simulation
// of a 1024-leaf three-level hierarchy on the sharded engine (DESIGN.md
// §14) at 1, 2, 4 and 8 shards, printing one machine-readable
// "SHARD_SCALING shards=K ..." line per point. check_bench_regression.py
// records the rates in BENCH_baseline.json and, on machines with >= 8
// CPUs, gates the 8-shard speedup at 3x over 1 shard.
#include <cstdio>

#include "bench_common.h"

using namespace eacache;

namespace {

/// The metro-scale hierarchy the ROADMAP targets: 1024 client-facing leaves
/// in clusters of 16 under 64 mid caches under one root (1089 caches).
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

int run_shard_scaling() {
  bench::print_banner("SCALE-SHARDS",
                      "Sharded-engine throughput, 1024-leaf hierarchy (1089 caches)");
  // Dense short-span workload: the conservative-window count is span /
  // lookahead, so a compact burst measures engine throughput instead of
  // shards handing windows to each other over empty simulated months.
  SyntheticTraceConfig workload;
  workload.seed = 1024;
  workload.num_requests = 60'000;
  workload.num_documents = 6'000;
  workload.num_users = 4'096;
  workload.span = minutes(2);
  const Trace trace = generate_synthetic_trace(workload);

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    RunSpec spec;
    spec.group = metro_group();
    spec.exec.shards = shards;
    PhaseTimings timings;
    const SimulationResult result = run(trace, spec, &timings);
    const double rps =
        timings.sim_ms > 0 ? 1000.0 * static_cast<double>(trace.size()) / timings.sim_ms : 0.0;
    std::printf("SHARD_SCALING shards=%zu requests=%llu hit_rate=%.4f sim_ms=%.1f rps=%.0f\n",
                shards, static_cast<unsigned long long>(result.metrics.total_requests()),
                result.metrics.hit_rate(), timings.sim_ms, rps);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the arm selector before the shared declarative parser sees it.
  bool shard_scaling = false;
  std::vector<char*> forwarded;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--shard-scaling") {
      shard_scaling = true;
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  const bench::BenchOptions opts =
      bench::parse_args(static_cast<int>(forwarded.size()), forwarded.data());
  if (shard_scaling) return run_shard_scaling();
  bench::print_banner("SCALE", "EA advantage vs group size (2, 4, 8 caches)");
  const std::size_t group_sizes[] = {2, 4, 8};
  const TraceRef trace = bench::paper_trace();

  struct RowMeta {
    Bytes capacity;
    std::size_t caches;
  };
  std::vector<RowMeta> rows;
  SweepRunner runner = bench::make_runner(opts);
  for (const Bytes capacity : paper_capacity_ladder()) {
    for (const std::size_t n : group_sizes) {
      GroupConfig config = bench::paper_group(n);
      config.aggregate_capacity = capacity;
      const std::string point = bench::capacity_label(capacity) + "/" + std::to_string(n);
      config.placement = PlacementKind::kAdHoc;
      runner.add("adhoc@" + point, bench::make_spec(config), trace);
      config.placement = PlacementKind::kEa;
      runner.add("ea@" + point, bench::make_spec(config), trace);
      rows.push_back({capacity, n});
    }
  }
  const auto runs = runner.run();

  TextTable table({"aggregate memory", "caches", "ad-hoc hit rate", "EA hit rate",
                   "EA - ad-hoc", "ad-hoc byte HR", "EA byte HR"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SimulationResult& adhoc = runs[2 * i].result;
    const SimulationResult& ea = runs[2 * i + 1].result;
    table.add_row({bench::capacity_label(rows[i].capacity), std::to_string(rows[i].caches),
                   fmt_percent(adhoc.metrics.hit_rate()), fmt_percent(ea.metrics.hit_rate()),
                   fmt_percent(ea.metrics.hit_rate() - adhoc.metrics.hit_rate()),
                   fmt_percent(adhoc.metrics.byte_hit_rate()),
                   fmt_percent(ea.metrics.byte_hit_rate())});
  }
  bench::print_table_and_csv(table);
  return 0;
}
