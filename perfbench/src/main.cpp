// perfbench: the repository benchmark. Usually started through run.py,
// which builds this binary first:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--paper-seed N] [--metro-seed N] [--spans-out FILE]
//
// Prints one readable line per metric and check, then, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}: the gated
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// Exits 0 when every output check passed, 1 when one failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--paper-seed N] [--metro-seed N] [--spans-out FILE]\n"
               "workloads:",
               problem.c_str());
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage("bad value for " + flag + ": " + text);
  return value;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool paper_seed = false;
  bool metro_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_uint(flag, value));
      if (options.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      const std::uint64_t traced = parse_uint(flag, value);
      if (traced > 1) usage("--trace must be 0 or 1");
      options.traced = traced == 1;
    } else if (flag == "--paper-seed") {
      options.paper_seed = parse_uint(flag, value);
      paper_seed = true;
    } else if (flag == "--metro-seed") {
      options.metro_seed = parse_uint(flag, value);
      metro_seed = true;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) known = known || name == options.workload;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (!paper_seed) options.paper_seed = options.seed;
  if (!metro_seed) options.metro_seed = options.seed;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  std::printf("perfbench workload=%s seed=%llu paper_seed=%llu metro_seed=%llu seconds=%g "
              "trace=%d nproc=%u\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.paper_seed),
              static_cast<unsigned long long>(options.metro_seed), options.seconds,
              options.traced ? 1 : 0, std::thread::hardware_concurrency());
  std::printf("note  two workloads were dropped for spreading across seeds beyond the 0.25 "
              "bound on the reference host, whose load slows single-threaded, memory-heavy "
              "code by up to ~1.5x for minutes at a time: paper-sweep (the paper's {AdHoc, EA} x "
              "capacity ladder on the classic driver; rps spread 0.11-0.25 over three sets of "
              "ten seeds) and paper-pipeline (the same on the event-driven pipeline; 0.11-0.35 "
              "over five sets). Every traced run (--trace 1) still runs both under the invariant "
              "checker and measures their storage, ea, group, event and pipeline layers\n");
  perfbench::Report report;
  const double steal_before = perfbench::host_steal_seconds();
  try {
    perfbench::run_workload(options, report);
  } catch (const std::exception& e) {
    report.error(std::string("workload threw: ") + e.what());
  }
  report.note("host steal during the run: " + std::to_string(perfbench::host_steal_seconds() - steal_before) +
              " CPU-seconds");
  report.print_result(options.traced);
  return report.correct() ? 0 : 1;
}
