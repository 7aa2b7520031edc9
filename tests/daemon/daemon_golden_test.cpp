// Golden pin for the daemon's smoke-replay mode: a fixed workload driven
// through 4 live worker threads must serialize byte-for-byte to
// tests/golden/daemon_smoke.json, session after session. Together with
// DaemonVsSimTest (daemon JSON == simulator JSON on the same run) this
// transitively pins the daemon to the simulator's own golden lineage.
//
// Regenerate (only when a change is MEANT to alter results):
//   EACACHE_UPDATE_GOLDEN=1 ./test_daemon --gtest_filter='DaemonGolden*'
// or tests/tools/refresh_goldens.sh, which shows the diff for review.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/run_result_json.h"
#include "daemon/daemon.h"
#include "trace/synthetic.h"

#ifndef EACACHE_GOLDEN_DIR
#error "EACACHE_GOLDEN_DIR must point at tests/golden"
#endif

namespace eacache {
namespace {

TEST(DaemonGoldenTest, SmokeReplayMatchesGolden) {
  SyntheticTraceConfig workload;
  workload.num_requests = 6000;
  workload.num_documents = 900;
  workload.num_users = 32;
  workload.span = hours(6);
  workload.seed = 424242;  // the pipeline-regression trace
  const Trace trace = generate_synthetic_trace(workload);

  RunSpec spec;
  spec.group.num_proxies = 4;
  spec.group.aggregate_capacity = 1 * kMiB;
  spec.group.placement = PlacementKind::kEa;
  spec.group.obs.series_points = 0;  // no mid-run sampling hook in daemon mode

  const std::string json = run_result_to_json(run_daemon(trace, spec));

  const std::string path = std::string(EACACHE_GOLDEN_DIR) + "/daemon_smoke.json";
  if (std::getenv("EACACHE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << json << '\n';
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (regenerate with tests/tools/refresh_goldens.sh)";
  std::ostringstream stored;
  stored << in.rdbuf();
  std::string expected = stored.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(json, expected)
      << "daemon smoke-replay JSON diverged from tests/golden/daemon_smoke.json";
}

}  // namespace
}  // namespace eacache
