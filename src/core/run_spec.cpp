#include "core/run_spec.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace eacache {

HopDelays hop_delays(const LatencyModel& latency) {
  HopDelays delays;
  delays.probe = latency.icp_rtt / 2;
  delays.reply = latency.icp_rtt - delays.probe;
  delays.body = std::max(latency.remote_transfer() - delays.probe, msec(1));
  delays.origin = std::max(latency.origin_transfer() - delays.probe, msec(1));
  return delays;
}

Duration default_lookahead(const LatencyModel& latency) {
  // Every shard-crossing message rides the probe, reply or body hop (the
  // origin timer stays on its shard); the window must not exceed any of them.
  const HopDelays delays = hop_delays(latency);
  return std::max(msec(1), std::min({delays.probe, delays.reply, delays.body}));
}

ShardLags shard_lags(const Topology& topology, const TopologyPartition& partition,
                     const HopDelays& delays, Duration window) {
  ShardLags lags(partition.shards, std::vector<std::optional<std::int64_t>>(partition.shards));
  const auto link = [&](ProxyId from, ProxyId to, Duration delay) {
    const std::uint32_t r = partition.shard_of[from];
    const std::uint32_t s = partition.shard_of[to];
    if (r == s) return;
    const std::int64_t windows = delay / window;
    std::optional<std::int64_t>& lag = lags[r][s];
    if (!lag.has_value() || windows < *lag) lag = windows;
  };
  const Duration answer = std::min(delays.reply, delays.body);
  for (const ProxyId home : topology.client_facing()) {
    topology.for_each_peer(home, [&](ProxyId peer) {
      link(home, peer, delays.probe);
      link(peer, home, answer);
    });
  }
  for (ProxyId child = 0; child < static_cast<ProxyId>(topology.num_proxies()); ++child) {
    if (const auto parent = topology.parent_of(child)) {
      link(child, *parent, delays.probe);
      link(*parent, child, delays.body);
    }
  }
  return lags;
}

std::vector<std::string> RunSpec::validate(RunTarget target) const {
  std::vector<std::string> errors = group.validate();
  const auto fail = [&errors](std::string message) { errors.push_back(std::move(message)); };

  if (target == RunTarget::kDaemon) {
    // Features whose semantics live outside the ProxyNode protocol core the
    // daemon executes.
    if (group.routing == RoutingMode::kHashPartition) {
      fail("daemon mode requires kCooperative routing (hash-partition forwarding "
           "is a simulator baseline)");
    }
    if (group.discovery == DiscoveryMode::kDigest) {
      fail("daemon mode requires kIcp discovery (digest refresh is scheduled by "
           "the simulated clock)");
    }
    if (group.coherence.enabled) {
      fail("daemon mode cannot run coherence: freshness checks consult the "
           "simulated origin's version oracle");
    }
    if (group.prefetch.enabled) {
      fail("daemon mode cannot run prefetching: speculative fetches are "
           "orchestrated group-side in the simulator");
    }
    if (group.icp_loss_probability != 0.0) {
      fail("daemon mode requires icp_loss_probability == 0: the in-memory wire "
           "never drops, so the seeded loss draw has nothing to model");
    }
    if (group.pipeline.event_driven) {
      fail("daemon mode has real concurrency; pipeline.event_driven selects the "
           "simulator's staged driver and must stay off");
    }
    if (group.obs.trace_capacity > 0) {
      fail("daemon mode does not record request spans: the span ring is "
           "single-writer and belongs to the simulator's orchestrator");
    }
    if (snapshot_period > Duration::zero()) {
      fail("snapshot_period is simulator machinery (virtual-clock snapshots); "
           "daemon runs must leave it zero");
    }
    if (check_invariants) {
      fail("check_invariants attaches the simulator's invariant checker; "
           "daemon runs cannot carry it");
    }
    if (exec.sharded()) {
      fail("ExecutionPolicy::shards selects the simulator's sharded engine; "
           "daemon mode has real threads already");
    }
    return errors;
  }

  if (!exec.sharded()) {
    if (exec.lookahead_override.has_value()) {
      fail("ExecutionPolicy::lookahead_override requires shards >= 1 (the "
           "classic driver has no synchronization windows)");
    }
    return errors;
  }

  // ---- Sharded-engine subset --------------------------------------------
  // The sharded engine routes every cross-proxy interaction through
  // deterministic shard-crossing messages; features whose semantics are
  // tied to the single-queue orchestrator are rejected rather than
  // silently approximated.
  if (group.coherence.enabled) {
    fail("sharded runs cannot use coherence: freshness validation consults "
         "the origin oracle synchronously");
  }
  if (group.prefetch.enabled) {
    fail("sharded runs cannot use prefetching: the Markov learner is "
         "group-global state");
  }
  if (group.discovery == DiscoveryMode::kDigest) {
    fail("sharded runs require kIcp discovery (the digest directory is "
         "group-global state)");
  }
  if (group.routing == RoutingMode::kHashPartition) {
    fail("sharded runs require kCooperative routing");
  }
  if (group.icp_loss_probability != 0.0) {
    fail("sharded runs require icp_loss_probability == 0: the seeded loss "
         "draw is consumed in single-queue serve order");
  }
  if (group.pipeline.event_driven) {
    fail("sharded runs are their own event-driven driver; "
         "pipeline.event_driven must stay off");
  }
  if (group.obs.trace_capacity > 0) {
    fail("sharded runs do not record request spans (the span ring is "
         "single-writer)");
  }
  if (snapshot_period > Duration::zero()) {
    fail("sharded runs do not support snapshot_period: group-wide hit-rate "
         "snapshots need a mid-run global merge");
  }
  if (check_invariants) {
    fail("sharded runs do not support check_invariants: the checker attaches "
         "to the single-queue drivers");
  }

  const Duration floor = default_lookahead(group.latency);
  if (group.latency.icp_rtt < msec(2)) {
    fail("sharded runs need latency.icp_rtt >= 2 ms so both ICP hop delays "
         "are at least one tick");
  }
  if (group.latency.remote_transfer() <= group.latency.icp_rtt / 2) {
    fail("sharded runs need latency.remote_transfer() > icp_rtt/2 so the "
         "body-return hop is at least one tick");
  }
  if (exec.lookahead_override.has_value()) {
    const Duration window = *exec.lookahead_override;
    if (window < msec(1) || window > floor) {
      fail("ExecutionPolicy::lookahead_override must lie in [1 ms, " +
           std::to_string(floor.count()) + " ms] (the inter-proxy message floor)");
    }
  }

  return errors;
}

void RunSpec::validate_or_throw(RunTarget target) const {
  const std::vector<std::string> errors = validate(target);
  if (errors.empty()) return;
  std::string message = "invalid RunSpec: ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) message += "; ";
    message += errors[i];
  }
  throw std::invalid_argument(message);
}

}  // namespace eacache
