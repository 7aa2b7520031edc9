#include "daemon/load_gen.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "core/wall_timer.h"

namespace eacache {

namespace {

std::chrono::nanoseconds to_ns(Duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d);
}

}  // namespace

LoadGen::LoadGen(DaemonGroup& group, Clock& clock, FakeClock* manual, DaemonMode mode,
                 LoadGenOptions options, FaultPlan faults)
    : group_(group),
      clock_(clock),
      manual_(manual),
      mode_(mode),
      options_(options),
      faults_(std::move(faults)) {
  if (mode_ == DaemonMode::kSmokeReplay && manual_ == nullptr) {
    throw std::invalid_argument("LoadGen: smoke replay needs the group's FakeClock");
  }
}

LoadGenReport LoadGen::replay(const Trace& trace) {
  if (!is_time_ordered(trace.requests)) {
    throw std::invalid_argument("LoadGen::replay: trace must be time-ordered");
  }
  VectorTraceSource source(trace);
  return replay(source);
}

LoadGenReport LoadGen::replay(TraceSource& source) {
  LoadGenReport report;
  const WallTimer wall;
  const ProxyId completions = group_.load_endpoint();
  InMemoryTransport& wire = group_.wire();
  std::uint64_t next_id = 1;  // ids correlate completions; flushes use them too

  std::vector<FaultPlan::Flush> flushes = faults_.flushes;
  std::stable_sort(flushes.begin(), flushes.end(),
                   [](const FaultPlan::Flush& a, const FaultPlan::Flush& b) {
                     return a.at < b.at;
                   });
  std::size_t next_flush = 0;

  std::vector<TimePoint> dumps = faults_.flight_dumps;
  std::stable_sort(dumps.begin(), dumps.end());
  std::size_t next_dump = 0;
  bool saturation_reported = false;
  const auto fire_flight_dump = [&] {
    if (options_.on_flight_dump) options_.on_flight_dump();
  };

  const auto submit_flush = [&](const FaultPlan::Flush& flush) {
    WireMessage message;
    message.kind = WireMessage::Kind::kFlush;
    message.to = flush.proxy;
    message.request_id = next_id++;
    message.stamp = flush.at;
    if (manual_ != nullptr && flush.at > manual_->now()) manual_->set(flush.at);
    wire.send(flush.proxy, message);
    ++report.flushes_injected;
    // Closed loop: a flush must land before any request submitted after it
    // (cross-mailbox sends are unordered). Only smoke replay gets here —
    // daemon-run validation rejects wall-clock FaultPlans.
    const auto ack = wire.receive(completions, to_ns(options_.drain_timeout));
    if (!ack || ack->request_id != message.request_id) {
      throw std::runtime_error("LoadGen: flush acknowledgement timed out");
    }
  };

  TimePoint trace_start = kSimEpoch;
  TimePoint last = kSimEpoch;
  Request request;
  for (std::uint64_t i = 0; source.next(request); ++i) {
    if (i == 0) {
      trace_start = request.at;
    } else if (request.at < last) {
      throw std::invalid_argument(
          "LoadGen::replay: source must deliver time-ordered requests");
    }
    last = request.at;
    // Same ordering as EventQueue::run_until(request.at): every fault due
    // at or before this request's stamp fires first.
    while (next_flush < flushes.size() && flushes[next_flush].at <= request.at) {
      submit_flush(flushes[next_flush++]);
    }
    while (next_dump < dumps.size() && dumps[next_dump] <= request.at) {
      if (manual_ != nullptr && dumps[next_dump] > manual_->now()) {
        manual_->set(dumps[next_dump]);
      }
      ++next_dump;
      fire_flight_dump();
    }

    WireMessage message;
    message.kind = WireMessage::Kind::kClientRequest;
    message.document = request.document;
    message.body_size = request.size;
    message.user = request.user;
    message.request_id = next_id++;
    message.to = group_.home_proxy(request.user);

    if (mode_ == DaemonMode::kSmokeReplay) {
      if (request.at > manual_->now()) manual_->set(request.at);
      message.stamp = request.at;
      wire.send(message.to, message);
      ++report.submitted;
      const auto done = wire.receive(completions, to_ns(options_.drain_timeout));
      if (!done || done->request_id != message.request_id) {
        throw std::runtime_error("LoadGen: completion timed out for request " +
                                 std::to_string(message.request_id));
      }
      ++report.completed;
    } else {
      const Duration offset =
          options_.pacing == PacingMode::kTraceSpeedup
              ? Duration{static_cast<SimClock::rep>(
                    static_cast<double>((request.at - trace_start).count()) /
                    options_.speedup)}
              : Duration{static_cast<SimClock::rep>(
                    static_cast<double>(i) * 1000.0 / options_.requests_per_second)};
      clock_.sleep_until(trace_start + offset);
      // Opportunistic drain first, then enforce the admission window: when
      // the offered rate outruns the workers, block for completions rather
      // than piling an unbounded backlog into the mailboxes.
      while (wire.try_receive(completions)) ++report.completed;
      while (report.submitted - report.completed >= options_.max_in_flight) {
        // Overload forensics: the first time the window stays saturated
        // past the grace period, capture a flight-recorder dump, then keep
        // waiting out the full drain timeout before declaring a wedge.
        if (options_.on_flight_dump && !saturation_reported) {
          if (const auto done =
                  wire.receive(completions, to_ns(options_.saturation_grace))) {
            (void)done;
            ++report.completed;
            continue;
          }
          saturation_reported = true;
          fire_flight_dump();
          continue;
        }
        if (!wire.receive(completions, to_ns(options_.drain_timeout))) {
          throw std::runtime_error("LoadGen: admission window wait timed out with " +
                                   std::to_string(report.submitted - report.completed) +
                                   " requests in flight");
        }
        ++report.completed;
      }
      message.stamp = clock_.now();
      wire.send(message.to, message);
      ++report.submitted;
    }
  }
  while (next_flush < flushes.size()) submit_flush(flushes[next_flush++]);
  while (next_dump < dumps.size()) {
    if (manual_ != nullptr && dumps[next_dump] > manual_->now()) {
      manual_->set(dumps[next_dump]);
    }
    ++next_dump;
    fire_flight_dump();
  }

  // Await the in-flight tail (wall-clock mode; smoke replay is already
  // fully drained). A shortfall after the timeout is reported, not thrown —
  // the caller decides whether a straggler is fatal.
  const Deadline drain(to_ns(options_.drain_timeout));
  while (report.completed < report.submitted && !drain.expired()) {
    if (wire.receive(completions, drain.remaining())) ++report.completed;
  }

  report.wall_seconds = wall.elapsed_ms() / 1000.0;
  return report;
}

}  // namespace eacache
