// Sharded parallel simulation engine (ExecutionPolicy::shards >= 1).
//
// The classic drivers (sim/simulator.h) run the whole group on one
// EventQueue. This engine partitions the proxy topology into shards
// (group/partition.h), gives each shard its own clock, timer heap and
// accounting unit, and executes every proxy as a ProxyNode
// (core/proxy_node.h) — the protocol lives there, this file only schedules
// it. Shards are synchronized with conservative lookahead windows:
//
//   * the window width W is RunSpec::effective_lookahead() — by
//     construction no shard-crossing message can have a delay below W, so
//     a message sent inside window [S, S+W) always delivers at or after
//     S+W: shards never need to roll back (classic conservative PDES);
//   * every message a node sends (ICP probe/reply, sibling fetch,
//     parent-chain hop) is a WireMessage stamped with its delivery instant
//     (send time + its HopDelays entry) and exchanged through per-shard
//     mailboxes at window barriers; origin timers stay on the sending
//     shard's timer heap;
//   * the next window start is the last barrier arriver's computation:
//     the global minimum over all shards' earliest pending work, rounded
//     down to a multiple of W — quiet stretches of the trace are skipped
//     in one hop. Waiting shards poll the barrier generation, yielding the
//     CPU between polls, a bounded number of times before they park on a
//     condition variable.
//
// A window is one merge of three sources, with no closures and no
// per-event allocation: the due mailbox batch sorted by (delivery instant,
// request, kind, from, to); the window's admissions in trace order; and a
// plain-data timer heap keyed by (instant, sequence) holding the series
// samples and fault-plan flushes scheduled before the run, plus the origin
// timers nodes set. Events sharing an instant fire in this order: timers
// set before the window (the pre-scheduled ones first), the mailbox batch,
// the admissions, then timers set during the window. A timer set before
// the shard's current instant is a std::logic_error.
//
// Determinism guarantee (pinned by ShardEngineTest): the result JSON is
// BYTE-IDENTICAL for shards=1 and shards=N. Everything order-sensitive is
// normalized — the fire order above never depends on thread timing,
// same-shard messages ride the mailbox exactly like cross-shard ones, and
// every merged aggregate (GroupMetrics, TransportStats, MetricRegistry,
// series samples) is commutative or merged in global proxy-id order. The
// sharded_merge_order_* goldens pin the fire order itself, which shard-count
// invariance alone cannot.
//
// The engine accepts the RunSpec subset RunSpec::validate() admits for
// sharded execution: ICP discovery, cooperative routing, no coherence, no
// prefetch, no digests, no ICP loss, no span tracing. Latencies recorded
// in GroupMetrics are the paper's per-outcome aggregate charges (matching
// the classic synchronous driver), not elapsed window time.
#pragma once

#include "core/run_result.h"
#include "core/run_spec.h"
#include "trace/trace.h"

namespace eacache {

/// Run `trace` through the sharded engine. `spec.exec.shards` must be >= 1
/// and `spec.validate(RunTarget::kSimulation)` empty (throws
/// std::invalid_argument otherwise; shard counts above the client-facing
/// proxy count are clamped, not rejected). shards == 1 executes the same
/// message-driven schedule inline on the calling thread — the determinism
/// baseline; shards >= 2 spawn one worker thread per shard.
[[nodiscard]] SimulationResult run_sharded_simulation(const Trace& trace, const RunSpec& spec,
                                                      PhaseTimings* timings = nullptr);

}  // namespace eacache
