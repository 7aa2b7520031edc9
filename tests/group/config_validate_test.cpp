// GroupConfig::validate(): every rejected combination produces a stable
// diagnostic, ALL violations are aggregated into one report (not
// first-error-wins), and both enforcement points — the CacheGroup
// constructor and run_simulation — throw the aggregated message.
#include "group/cache_group.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace eacache {
namespace {

/// True when some diagnostic in `errors` contains `needle`.
bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
  for (const std::string& error : errors) {
    if (error.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(GroupConfig{}.validate().empty());
  EXPECT_NO_THROW(GroupConfig{}.validate_or_throw());
}

TEST(ConfigValidateTest, RejectsZeroProxies) {
  GroupConfig config;
  config.num_proxies = 0;
  EXPECT_TRUE(mentions(config.validate(), "num_proxies"));
  EXPECT_THROW(CacheGroup{config}, std::invalid_argument);
}

TEST(ConfigValidateTest, RejectsCustomParentsOnDistributedTopology) {
  GroupConfig config;
  config.custom_parents = {std::nullopt, ProxyId{0}, ProxyId{0}};
  config.topology = TopologyKind::kDistributed;
  EXPECT_TRUE(mentions(config.validate(), "custom_parents"));
  EXPECT_THROW(CacheGroup{config}, std::invalid_argument);
}

TEST(ConfigValidateTest, RejectsWeightCountMismatch) {
  GroupConfig config;
  config.num_proxies = 4;
  config.capacity_weights = {1.0, 1.0};  // 4 caches, 2 weights
  EXPECT_TRUE(mentions(config.validate(), "capacity_weights"));
  EXPECT_THROW(CacheGroup{config}, std::invalid_argument);
}

TEST(ConfigValidateTest, HierarchicalWeightCountIncludesTheRoot) {
  GroupConfig config;
  config.num_proxies = 4;
  config.topology = TopologyKind::kHierarchical;
  config.capacity_weights = {1.0, 1.0, 1.0, 1.0};  // missing the root's entry
  EXPECT_TRUE(mentions(config.validate(), "capacity_weights"));
  config.capacity_weights.push_back(1.0);
  EXPECT_TRUE(config.validate().empty());
  EXPECT_EQ(config.total_cache_count(), 5u);
}

TEST(ConfigValidateTest, RejectsNonPositiveWeights) {
  GroupConfig config;
  config.num_proxies = 2;
  config.capacity_weights = {1.0, 0.0};
  EXPECT_TRUE(mentions(config.validate(), "positive"));
  EXPECT_THROW(CacheGroup{config}, std::invalid_argument);
}

TEST(ConfigValidateTest, RejectsBudgetThatRoundsToZero) {
  GroupConfig config;
  config.num_proxies = 8;
  config.aggregate_capacity = 4;  // 4 bytes over 8 caches: zero each
  EXPECT_TRUE(mentions(config.validate(), "aggregate_capacity"));
  EXPECT_THROW(CacheGroup{config}, std::invalid_argument);
}

TEST(ConfigValidateTest, RejectsBadCoherenceParameters) {
  GroupConfig config;
  config.coherence.enabled = true;
  config.coherence.fresh_ttl = Duration::zero();
  EXPECT_TRUE(mentions(config.validate(), "fresh_ttl"));

  GroupConfig lm;
  lm.coherence.enabled = true;
  lm.coherence.rule = FreshnessRule::kLmFactor;
  lm.coherence.min_ttl = minutes(10);
  lm.coherence.max_ttl = minutes(1);  // max < min
  EXPECT_TRUE(mentions(lm.validate(), "LM-factor"));
  EXPECT_THROW(CacheGroup{lm}, std::invalid_argument);
}

TEST(ConfigValidateTest, RejectsHashPartitionCombinations) {
  GroupConfig config;
  config.routing = RoutingMode::kHashPartition;
  config.topology = TopologyKind::kHierarchical;
  config.placement = PlacementKind::kEa;
  config.prefetch.enabled = true;
  const std::vector<std::string> errors = config.validate();
  // All three independent violations are reported at once.
  EXPECT_TRUE(mentions(errors, "flat"));
  EXPECT_TRUE(mentions(errors, "kAdHoc"));
  EXPECT_TRUE(mentions(errors, "prefetch"));
  EXPECT_GE(errors.size(), 3u);
}

TEST(ConfigValidateTest, RejectsOutOfRangeProbabilities) {
  GroupConfig config;
  config.prefetch.enabled = true;
  config.prefetch.min_confidence = 1.5;
  config.icp_loss_probability = -0.1;
  const std::vector<std::string> errors = config.validate();
  EXPECT_TRUE(mentions(errors, "min_confidence"));
  EXPECT_TRUE(mentions(errors, "icp_loss_probability"));
}

TEST(ConfigValidateTest, RejectsBadPipelineKnobs) {
  GroupConfig config;
  config.pipeline.event_driven = true;
  config.pipeline.icp_timeout = msec(10);  // <= icp_rtt (40 ms)
  EXPECT_TRUE(mentions(config.validate(), "icp_timeout"));
  EXPECT_THROW(CacheGroup{config}, std::invalid_argument);

  GroupConfig backoff;
  backoff.pipeline.event_driven = true;
  backoff.pipeline.retry_backoff = 0.5;
  EXPECT_TRUE(mentions(backoff.validate(), "retry_backoff"));
}

TEST(ConfigValidateTest, PipelineKnobsRequireTheEventDrivenDriver) {
  GroupConfig retries;
  retries.pipeline.icp_retries = 2;  // event_driven left off
  EXPECT_TRUE(mentions(retries.validate(), "event_driven"));

  GroupConfig coalesce;
  coalesce.pipeline.coalesce = true;
  EXPECT_TRUE(mentions(coalesce.validate(), "event_driven"));
  EXPECT_THROW(CacheGroup{coalesce}, std::invalid_argument);
}

TEST(ConfigValidateTest, AggregatesAllViolationsIntoOneThrow) {
  GroupConfig config;
  config.num_proxies = 0;
  config.icp_loss_probability = 2.0;
  config.pipeline.coalesce = true;
  ASSERT_GE(config.validate().size(), 3u);
  try {
    config.validate_or_throw();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("invalid GroupConfig"), std::string::npos);
    EXPECT_NE(message.find("num_proxies"), std::string::npos);
    EXPECT_NE(message.find("icp_loss_probability"), std::string::npos);
    EXPECT_NE(message.find("event_driven"), std::string::npos);
    EXPECT_NE(message.find("; "), std::string::npos);  // "; "-joined list
  }
}

TEST(ConfigValidateTest, RunSimulationEnforcesValidation) {
  GroupConfig config;
  config.icp_loss_probability = 7.0;
  EXPECT_THROW((void)run_simulation(Trace{}, config), std::invalid_argument);
}

// --- RunSpec::validate(kDaemon): the live-daemon subset of the config space -
//
// The daemon executes the ProxyNode protocol core, flat or hierarchical;
// every feature that lives outside that core must be called out,
// aggregated with the base validate() findings rather than replacing them.

RunSpec daemon_spec(const GroupConfig& config) {
  RunSpec spec;
  spec.group = config;
  return spec;
}

TEST(ConfigValidateTest, DaemonValidationAcceptsTheDefaultGroup) {
  GroupConfig config;
  config.num_proxies = 4;
  config.aggregate_capacity = 1 * kMiB;
  EXPECT_TRUE(config.validate().empty());
  EXPECT_TRUE(daemon_spec(config).validate(RunTarget::kDaemon).empty());
  config.topology = TopologyKind::kHierarchical;  // a parent is one more node
  EXPECT_TRUE(daemon_spec(config).validate(RunTarget::kDaemon).empty());
}

TEST(ConfigValidateTest, DaemonValidationIsASupersetOfBaseValidation) {
  GroupConfig config;
  config.num_proxies = 0;           // base violation
  config.coherence.enabled = true;  // daemon-only violation
  const std::vector<std::string> base = config.validate();
  const std::vector<std::string> daemon = daemon_spec(config).validate(RunTarget::kDaemon);
  EXPECT_GT(daemon.size(), base.size());
  EXPECT_TRUE(mentions(daemon, "num_proxies"));
  EXPECT_TRUE(mentions(daemon, "coherence"));
}

TEST(ConfigValidateTest, DaemonValidationRejectsSimulatorOnlyFeatures) {
  // Each feature individually: valid for the simulator, rejected for the
  // daemon with a message naming the offending knob.
  const auto daemon_only_error = [](auto&& mutate, const std::string& needle) {
    GroupConfig config;
    config.num_proxies = 4;
    config.aggregate_capacity = 1 * kMiB;
    mutate(config);
    EXPECT_TRUE(config.validate().empty()) << needle;
    EXPECT_TRUE(mentions(daemon_spec(config).validate(RunTarget::kDaemon), needle)) << needle;
  };
  daemon_only_error(
      [](GroupConfig& c) {
        c.routing = RoutingMode::kHashPartition;
        c.placement = PlacementKind::kAdHoc;  // hash routing owns placement
      },
      "kCooperative");
  daemon_only_error([](GroupConfig& c) { c.discovery = DiscoveryMode::kDigest; },
                    "kIcp discovery");
  daemon_only_error([](GroupConfig& c) { c.coherence.enabled = true; }, "coherence");
  daemon_only_error([](GroupConfig& c) { c.prefetch.enabled = true; }, "prefetch");
  daemon_only_error([](GroupConfig& c) { c.icp_loss_probability = 0.25; },
                    "icp_loss_probability");
  daemon_only_error([](GroupConfig& c) { c.pipeline.event_driven = true; },
                    "event_driven");
  daemon_only_error([](GroupConfig& c) { c.obs.trace_capacity = 64; }, "span");
}

}  // namespace
}  // namespace eacache
