// The open-loop generator must time requests from their due instants: a
// stall in the generator delays every request due during the stall, and
// that wait has to show up in their latencies (coordinated omission would
// hide it by timing from the actual send).
#include <gtest/gtest.h>

#include <thread>

#include "core/clock.h"
#include "open_loop.h"
#include "trace/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace eacache;

Trace small_trace() {
  SyntheticTraceConfig config;
  config.seed = 7;
  config.num_requests = 4'000;
  config.num_documents = 400;
  config.num_users = 16;
  return generate_synthetic_trace(config);
}

TEST(OpenLoopTest, StallShowsUpInTheRequestsQueuedBehindIt) {
  const Trace trace = small_trace();
  SteadyClock clock;
  DaemonGroup group(daemon_group(), clock, DaemonMode::kWallClock);
  group.start();

  constexpr std::uint64_t kStallAt = 1'000;
  constexpr auto kStall = std::chrono::milliseconds(40);
  OpenLoopOptions options;
  options.rate_rps = 20'000.0;  // one request due every 50 us
  options.requests = 3'000;
  options.before_send = [&](std::uint64_t index) {
    if (index == kStallAt) std::this_thread::sleep_for(kStall);
  };
  const OpenLoopReport report = run_open_loop(group, trace.requests, options);
  group.stop();

  ASSERT_EQ(report.sent, options.requests);
  ASSERT_EQ(report.completed, options.requests);
  // The stalled request itself waited the whole stall...
  EXPECT_GE(report.latency_us[kStallAt], 40'000.0);
  // ...and so did the ones due during the stall, less their offset into it:
  // request kStallAt + k was due k * 50 us later.
  for (std::uint64_t k = 1; k < 400; k += 50) {
    EXPECT_GE(report.latency_us[kStallAt + k], 40'000.0 - static_cast<double>(k) * 50.0 - 1.0)
        << "request " << kStallAt + k;
  }
  EXPECT_GE(report.late_ms_max, 40.0);
  // 800 requests fell due during the stall and go out in one catch-up burst;
  // the workers drain part of it while it is being sent.
  EXPECT_GE(report.backlog_max, 100u);
  // Requests well before the stall were served promptly.
  EXPECT_LT(report.latency_us[kStallAt / 2], 20'000.0);
}

TEST(OpenLoopTest, ClosedLoopCompletesTheTrace) {
  const Trace trace = small_trace();
  SteadyClock clock;
  DaemonGroup group(daemon_group(), clock, DaemonMode::kWallClock);
  group.start();
  const ClosedLoopReport report = run_closed_loop(group, trace.requests, 64);
  group.stop();
  EXPECT_EQ(report.sent, trace.size());
  EXPECT_EQ(report.completed, trace.size());
  EXPECT_EQ(group.collect_result().metrics.total_requests(), trace.size());
}

}  // namespace
}  // namespace perfbench
