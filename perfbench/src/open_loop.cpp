#include "open_loop.h"

#include <algorithm>

#include "report.h"

namespace perfbench {

using eacache::DaemonGroup;
using eacache::Request;
using eacache::WireMessage;

namespace {

/// How long after the last due instant an open loop still waits for
/// completions before the unanswered requests count as failed.
constexpr auto kOpenLoopDrain = std::chrono::seconds(2);
/// How long a closed loop waits for one completion before it treats the
/// daemon as wedged.
constexpr auto kClosedLoopWedge = std::chrono::seconds(5);

WireMessage client_request(DaemonGroup& group, const Request& request, std::uint64_t id) {
  WireMessage message;
  message.kind = WireMessage::Kind::kClientRequest;
  message.document = request.document;
  message.body_size = request.size;
  message.user = request.user;
  message.request_id = id;
  message.to = group.home_proxy(request.user);
  message.stamp = group.clock().now();
  return message;
}

}  // namespace

OpenLoopReport run_open_loop(DaemonGroup& group, std::span<const Request> trace,
                             const OpenLoopOptions& options) {
  OpenLoopReport report;
  if (trace.empty() || options.requests == 0) return report;
  eacache::InMemoryTransport& wire = group.wire();
  const eacache::ProxyId completions = group.load_endpoint();
  const auto period = std::chrono::duration<double, std::nano>(1e9 / options.rate_rps);
  const WallClock::time_point start = WallClock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::uint64_t index) {
    return start + std::chrono::duration_cast<WallClock::duration>(
                       period * static_cast<double>(index));
  };

  report.latency_us.assign(options.requests, -1.0);
  const auto record = [&](const WireMessage& done, WallClock::time_point at) {
    // Ids are index + 1; anything else is not ours.
    if (done.request_id == 0 || done.request_id > options.requests) return;
    double& slot = report.latency_us[done.request_id - 1];
    if (slot >= 0.0) return;
    slot = static_cast<double>(nanos_between(due(done.request_id - 1), at)) / 1e3;
    ++report.completed;
  };
  const auto drain_ready = [&] {
    while (const auto done = wire.try_receive(completions)) record(*done, WallClock::now());
  };

  for (std::uint64_t i = 0; i < options.requests; ++i) {
    const WallClock::time_point due_at = due(i);
    // Spin until due, collecting completions as they land so each is timed
    // when it arrives rather than when the generator next looks.
    for (;;) {
      drain_ready();
      if (WallClock::now() >= due_at) break;
    }
    if (options.before_send) options.before_send(i);
    const WallClock::time_point sent_at = WallClock::now();
    report.late_ms_max =
        std::max(report.late_ms_max, static_cast<double>(nanos_between(due_at, sent_at)) / 1e6);
    const WireMessage message = client_request(group, trace[i % trace.size()], i + 1);
    wire.send(message.to, message);
    ++report.sent;
    report.backlog_max = std::max(report.backlog_max, report.sent - report.completed);
  }

  const WallClock::time_point deadline = due(options.requests) + kOpenLoopDrain;
  while (report.completed < report.sent) {
    const WallClock::time_point now = WallClock::now();
    if (now >= deadline) break;
    if (const auto done = wire.receive(completions, deadline - now)) {
      record(*done, WallClock::now());
    }
  }
  report.wall_seconds = seconds_between(start, WallClock::now());
  return report;
}

ClosedLoopReport run_closed_loop(DaemonGroup& group, std::span<const Request> trace,
                                 std::size_t in_flight) {
  ClosedLoopReport report;
  eacache::InMemoryTransport& wire = group.wire();
  const eacache::ProxyId completions = group.load_endpoint();
  const WallClock::time_point start = WallClock::now();
  const auto send_next = [&] {
    const WireMessage message = client_request(group, trace[report.sent], report.sent + 1);
    wire.send(message.to, message);
    ++report.sent;
  };
  while (report.sent < trace.size() && report.sent < in_flight) send_next();
  while (report.completed < report.sent) {
    if (!wire.receive(completions, kClosedLoopWedge)) break;  // wedged: the rest count as failed
    ++report.completed;
    if (report.sent < trace.size()) send_next();
  }
  report.wall_seconds = seconds_between(start, WallClock::now());
  return report;
}

}  // namespace perfbench
