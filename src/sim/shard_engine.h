// Sharded parallel simulation engine (ExecutionPolicy::shards >= 1).
//
// The classic drivers (sim/simulator.h) run the whole group on one
// EventQueue. This engine partitions the proxy topology into shards
// (group/partition.h), gives each shard its own clock, timers and
// accounting unit, and executes every proxy as a ProxyNode
// (core/proxy_node.h) — the protocol lives there, this file only schedules
// it. Shards are synchronized by conservative lookahead, per link:
//
//   * simulated time is cut into W-aligned windows, W being
//     RunSpec::effective_lookahead() — no shard-crossing message has a
//     delay below W, so a message sent inside window k lands in window k+1
//     or later and no shard ever rolls back (classic conservative PDES);
//   * shard_lags() (core/run_spec.h) gives, per ordered shard pair, the
//     fewest windows any message between them takes — on the metro tree a
//     leaf block reaches the root's shard in 1 window and hears back after
//     13, and two leaf blocks never message each other at all;
//   * every message a node sends (ICP probe/reply, sibling fetch,
//     parent-chain hop) is a WireMessage stamped with its delivery instant
//     (send time + its HopDelays entry) and put into the destination
//     shard's mailbox when the sender's window ends; origin timers stay on
//     the sending shard;
//   * each shard publishes the last window it has run and flushed. A shard
//     runs its earliest window with work once every sender's published
//     window is within that link's lag of it (Chandy & Misra's per-channel
//     lookahead); otherwise it publishes its horizon (the last window no
//     sender can still reach) and waits, polling with yields a bounded
//     number of times before it parks on a condition variable;
//   * only when every shard waits does the last one to arrive jump: every
//     shard's progress counts as just below the earliest pending window
//     anywhere, which skips a quiet stretch in one step, and nothing
//     pending ends the run;
//   * an ICP fan-out crosses each destination shard as ONE mailbox entry,
//     which that shard expands into its peers' queries in ascending id; the
//     answers come back as one entry per (request, answering shard), which
//     the home expands into its replies in ascending peer id.
//
// A window is one merge of four ordered sources, with no closures and no
// per-event allocation: the due mailbox batch sorted by (delivery instant,
// request, kind, from, to); the window's admissions in trace order; the
// series samples and fault-plan flushes scheduled before the run, sorted
// once; and a FIFO of the origin timers nodes set (all take the same
// delay, so they are set in order). Events sharing an instant fire in this
// order: timers set before the window (the pre-scheduled ones first), the
// mailbox batch, the admissions, then timers set during the window. It
// depends only on the W-aligned windows, never on which shards ran when.
// A timer set before the shard's current instant, a send landing before
// the sender's window plus its link's lag, and a message for a window its
// shard has passed are each a std::logic_error.
//
// Determinism guarantee (pinned by ShardEngineTest): the result JSON is
// BYTE-IDENTICAL for shards=1 and shards=N. Everything order-sensitive is
// normalized — the fire order above never depends on thread timing,
// same-shard messages ride the mailbox exactly like cross-shard ones, a
// query bundle expands into exactly the run its queries formed in the
// batch order, a request's reply bundles stay one contiguous run (the
// home's reply handling only counts and then sorts by ring distance, a
// total order), and every merged aggregate (GroupMetrics, TransportStats,
// MetricRegistry, series samples) is commutative or merged in global
// proxy-id order. The sharded_merge_order_* goldens pin the fire order
// itself, which shard-count invariance alone cannot.
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
