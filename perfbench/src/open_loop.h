// Load generators for the daemon, built only on DaemonGroup's public wire:
// wire().send to home_proxy(user), then try_receive/receive on
// load_endpoint().
//
// Why not daemon/load_gen.h: LoadGen stamps a request when it is SENT, not
// when it was due, so a stall in the generator or the daemon hides the wait
// it imposes on every request queued behind it (coordinated omission). Its
// admission window also turns overload back into a closed loop, and it
// reports no per-request latency. The open loop here sends on a fixed
// schedule whatever happens and times each request from its due instant.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "daemon/daemon_group.h"
#include "trace/trace.h"

namespace perfbench {

struct OpenLoopOptions {
  /// Offered load, requests per wall-clock second.
  double rate_rps = 100'000.0;
  /// Requests to offer; the trace is reused from the start when it is
  /// shorter.
  std::uint64_t requests = 0;
  /// Called just before request `index` is sent (tests inject stalls here).
  std::function<void(std::uint64_t index)> before_send;
};

struct OpenLoopReport {
  /// Completion instant minus due instant, microseconds, by request index;
  /// negative for requests that never completed.
  std::vector<double> latency_us;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  /// How far behind schedule the generator sent its worst request.
  double late_ms_max = 0.0;
  /// Most requests outstanding (sent, not yet completed) at any send.
  std::uint64_t backlog_max = 0;
  double wall_seconds = 0.0;
};

/// Offer `options.requests` requests at a fixed rate, open loop. Requests
/// unanswered 2 s after the last due instant count as never completed.
[[nodiscard]] OpenLoopReport run_open_loop(eacache::DaemonGroup& group,
                                           std::span<const eacache::Request> trace,
                                           const OpenLoopOptions& options);

struct ClosedLoopReport {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  double wall_seconds = 0.0;
};

/// Replay `trace` once with `in_flight` requests outstanding at all times.
/// Stops early, with the rest uncompleted, if no completion arrives for 5 s.
[[nodiscard]] ClosedLoopReport run_closed_loop(eacache::DaemonGroup& group,
                                               std::span<const eacache::Request> trace,
                                               std::size_t in_flight);

}  // namespace perfbench
