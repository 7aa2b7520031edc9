// RunSpec: the single description of one run, whichever driver executes it.
//
// Historically a run was configured through three overlapping structs:
//   * GroupConfig          — the cache group itself (kept, nested below);
//   * SimulationOptions    — snapshot period, invariant checker, faults;
//   * SweepOptions         — per-sweep validate/obs overrides leaking into
//                            per-run semantics.
// RunSpec collapses the per-run knobs into one aggregate with ONE
// validation entry point, `RunSpec::validate(target)`, which layers the
// per-driver rules over `GroupConfig::validate()` (kept as the group-level
// helper). The DESIGN.md §14 table maps every old field to its new home.
//
// Execution placement is explicit: ExecutionPolicy selects between the
// classic single-queue discrete-event driver (shards == 0, the default —
// golden-pinned, byte-identical to every previous release) and the sharded
// conservative-lookahead engine (shards >= 1, sim/shard_engine.h). The
// sharded engine is deterministic in the shard count: result JSON for
// shards=1 equals shards=N bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/fault_plan.h"
#include "group/cache_group.h"
#include "group/partition.h"
#include "group/topology.h"
#include "net/latency_model.h"

namespace eacache {

/// How a run is placed onto the machine.
///  * shards == 0 — the classic driver: one thread, one EventQueue
///    (sim/simulator.h; the event-driven pipeline rides this path too).
///  * shards >= 1 — the sharded parallel engine: the proxy topology is
///    partitioned into `shards` shards, each with its own timers and clock,
///    synchronized by per-link conservative lookahead over W-wide windows
///    (sim/shard_engine.h). shards == 1 runs the same message-driven
///    semantics on one thread — the determinism baseline for N > 1.
struct ExecutionPolicy {
  std::size_t shards = 0;

  /// Conservative synchronization window. Defaults to the LatencyModel's
  /// inter-proxy message floor (see `default_lookahead`); an override must
  /// lie in [1 ms, that floor] — larger would let a message land inside the
  /// window that sent it, which breaks conservative synchronization.
  std::optional<Duration> lookahead_override;

  [[nodiscard]] bool sharded() const { return shards >= 1; }
};

/// Which driver family a RunSpec is being validated for.
enum class RunTarget { kSimulation, kDaemon };

/// The sharded engine's simulated delays (DESIGN.md §14), derived from the
/// LatencyModel: the ICP round trip split in two, each transfer net of the
/// request hop that precedes it.
struct HopDelays {
  Duration probe{};   ///< ICP query out; sibling and parent request hops
  Duration reply{};   ///< ICP reply back (probe + reply = icp_rtt)
  Duration body{};    ///< body return: remote_transfer minus a request hop, >= 1 ms
  Duration origin{};  ///< origin fetch: origin_transfer minus a request hop, >= 1 ms
};

[[nodiscard]] HopDelays hop_delays(const LatencyModel& latency);

/// The smallest delay any shard-crossing message can have under `latency`:
/// min of the probe, reply and body-return hops. This is the widest safe
/// lookahead window (20 ms under paper defaults: icp_rtt/2).
[[nodiscard]] Duration default_lookahead(const LatencyModel& latency);

/// lags[r][s]: the fewest whole lookahead windows any message from a node
/// on shard r to a node on shard s takes, or nullopt when none ever does
/// (the diagonal included: a shard never waits for itself). A message sent
/// in window k with delay d lands in window k + floor(d / window) or later.
using ShardLags = std::vector<std::vector<std::optional<std::int64_t>>>;

/// The sharded engine's per-link lookahead (DESIGN.md §14), mirroring
/// ProxyNode's sends: a home (client-facing cache) sends ICP queries and
/// sibling requests to its ICP peers at the probe hop, and they answer at
/// the reply hop (ICP) or the body hop (sibling responses); a child sends
/// parent requests at the probe hop and its parent answers at the body hop.
[[nodiscard]] ShardLags shard_lags(const Topology& topology, const TopologyPartition& partition,
                                   const HopDelays& delays, Duration window);

struct RunSpec {
  /// The cache group: topology, capacities, policies, protocol knobs,
  /// observability. Unchanged from the pre-RunSpec API.
  GroupConfig group;

  /// Period for hit-rate time-series snapshots; zero disables them.
  /// (Was SimulationOptions::snapshot_period.)
  Duration snapshot_period = Duration::zero();

  /// Attach the invariant checker (src/validate/invariants.h) to the run.
  /// (Was SimulationOptions::validate / SweepOptions::validate.)
  bool check_invariants = false;

  /// Declarative fault injection: flushes + peer-outage windows.
  /// (Was SimulationOptions::faults; the flush_events shim is gone.)
  FaultPlan faults;

  /// Sharding + lookahead. (New in the RunSpec API.)
  ExecutionPolicy exec;

  /// Provenance echo: the canonical workload-spec string
  /// (format_workload_spec) of the trace this run replays, when it came
  /// from the workload DSL. Purely descriptive — never read by the drivers
  /// — and surfaced as the "workload" field of result-JSON config rows so
  /// every row names the scenario that produced it. Empty for non-DSL
  /// traces.
  std::string workload;

  /// Every violated rule, in a stable order; empty means the spec is
  /// runnable by the `target` driver family. THE validation entry point:
  /// aggregates the group-level rules (GroupConfig::validate), the
  /// features a live daemon cannot carry and the execution-policy rules in
  /// one pass.
  [[nodiscard]] std::vector<std::string> validate(
      RunTarget target = RunTarget::kSimulation) const;

  /// Throws std::invalid_argument with every violation ("; "-joined).
  void validate_or_throw(RunTarget target = RunTarget::kSimulation) const;

  /// The lookahead window the sharded engine will actually use.
  [[nodiscard]] Duration effective_lookahead() const {
    return exec.lookahead_override.value_or(default_lookahead(group.latency));
  }
};

}  // namespace eacache
