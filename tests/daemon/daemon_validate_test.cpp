// Daemon-run validation: configurations whose semantics live outside the
// ProxyNode core the daemon executes, and load options that could never
// finish (zero-rate pacing, wall-clock fault plans), are rejected with
// aggregated messages — same contract as GroupConfig::validate().
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "daemon/daemon.h"

namespace eacache {
namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&needle](const std::string& error) {
    return error.find(needle) != std::string::npos;
  });
}

RunSpec runnable_spec() {
  RunSpec spec;
  spec.group.num_proxies = 4;
  spec.group.aggregate_capacity = 1 * kMiB;
  return spec;
}

TEST(DaemonValidateTest, DefaultConfigAndOptionsAreRunnable) {
  EXPECT_TRUE(validate_daemon_run(runnable_spec(), DaemonOptions{}).empty());
  EXPECT_NO_THROW(validate_daemon_run_or_throw(runnable_spec(), DaemonOptions{}));
}

TEST(DaemonValidateTest, SimulatorOnlyFeaturesAreRejected) {
  RunSpec spec = runnable_spec();
  spec.group.topology = TopologyKind::kHierarchical;  // runnable: not among the errors
  spec.group.discovery = DiscoveryMode::kDigest;
  spec.group.coherence.enabled = true;
  spec.group.prefetch.enabled = true;
  spec.group.icp_loss_probability = 0.05;
  spec.group.pipeline.event_driven = true;
  spec.group.obs.trace_capacity = 1024;

  const std::vector<std::string> errors = spec.validate(RunTarget::kDaemon);
  EXPECT_TRUE(mentions(errors, "kIcp discovery"));
  EXPECT_TRUE(mentions(errors, "coherence"));
  EXPECT_TRUE(mentions(errors, "prefetch"));
  EXPECT_TRUE(mentions(errors, "icp_loss_probability"));
  EXPECT_TRUE(mentions(errors, "event_driven"));
  EXPECT_TRUE(mentions(errors, "span"));
  // All aggregated, not first-failure-only.
  EXPECT_EQ(errors.size(), 6u);
}

TEST(DaemonValidateTest, HashPartitionRoutingIsRejected) {
  RunSpec spec = runnable_spec();
  spec.group.routing = RoutingMode::kHashPartition;
  spec.group.placement = PlacementKind::kAdHoc;  // valid for the simulator...
  EXPECT_TRUE(spec.validate(RunTarget::kSimulation).empty());
  // ...but not for the daemon.
  EXPECT_TRUE(mentions(spec.validate(RunTarget::kDaemon), "kCooperative"));
}

TEST(DaemonValidateTest, BaseValidationErrorsAreIncluded) {
  RunSpec spec = runnable_spec();
  spec.group.num_proxies = 0;
  const std::vector<std::string> errors = validate_daemon_run(spec, DaemonOptions{});
  EXPECT_TRUE(mentions(errors, "num_proxies"));
}

TEST(DaemonValidateTest, ZeroRateWallClockLoadIsRejected) {
  const RunSpec spec = runnable_spec();

  DaemonOptions zero_speedup;
  zero_speedup.mode = DaemonMode::kWallClock;
  zero_speedup.load.speedup = 0.0;
  EXPECT_TRUE(mentions(validate_daemon_run(spec, zero_speedup), "speedup"));

  DaemonOptions zero_rate;
  zero_rate.mode = DaemonMode::kWallClock;
  zero_rate.load.pacing = PacingMode::kFixedRate;
  zero_rate.load.requests_per_second = 0.0;
  EXPECT_TRUE(
      mentions(validate_daemon_run(spec, zero_rate), "requests_per_second"));

  DaemonOptions zero_window;
  zero_window.mode = DaemonMode::kWallClock;
  zero_window.load.max_in_flight = 0;
  EXPECT_TRUE(mentions(validate_daemon_run(spec, zero_window), "max_in_flight"));

  // Smoke replay ignores pacing knobs entirely: closed-loop submission is
  // driven by completions, so a zero speedup is not an error there.
  DaemonOptions smoke = zero_speedup;
  smoke.mode = DaemonMode::kSmokeReplay;
  smoke.load.max_in_flight = 0;
  EXPECT_TRUE(validate_daemon_run(spec, smoke).empty());
}

TEST(DaemonValidateTest, WallClockFaultPlanIsRejected) {
  RunSpec spec = runnable_spec();
  spec.faults.flushes.push_back({kSimEpoch + sec(10), 0});
  DaemonOptions options;
  options.mode = DaemonMode::kWallClock;
  EXPECT_TRUE(mentions(validate_daemon_run(spec, options), "FaultPlan"));

  // The same plan is fine in smoke replay, where timestamps ARE trace time.
  options.mode = DaemonMode::kSmokeReplay;
  EXPECT_TRUE(validate_daemon_run(spec, options).empty());
}

TEST(DaemonValidateTest, OutageInjectionIsAlwaysRejected) {
  RunSpec spec = runnable_spec();
  spec.faults.outages.push_back({1, kSimEpoch, kSimEpoch + sec(5)});
  EXPECT_TRUE(mentions(validate_daemon_run(spec, DaemonOptions{}), "outages"));
}

TEST(DaemonValidateTest, NonPositiveDrainTimeoutIsRejected) {
  const RunSpec spec = runnable_spec();
  DaemonOptions options;
  options.load.drain_timeout = Duration::zero();
  EXPECT_TRUE(mentions(validate_daemon_run(spec, options), "drain_timeout"));
}

TEST(DaemonValidateTest, ThrowingWrapperAggregatesEverything) {
  RunSpec spec = runnable_spec();
  spec.group.coherence.enabled = true;
  DaemonOptions options;
  options.load.drain_timeout = Duration::zero();
  try {
    validate_daemon_run_or_throw(spec, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("coherence"), std::string::npos);
    EXPECT_NE(message.find("drain_timeout"), std::string::npos);
  }
}

TEST(DaemonValidateTest, RunDaemonRefusesInvalidRuns) {
  RunSpec spec = runnable_spec();
  spec.group.pipeline.event_driven = true;
  EXPECT_THROW((void)run_daemon(Trace{}, spec), std::invalid_argument);
}

}  // namespace
}  // namespace eacache
