#include "common/execution_context.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"

namespace grouplink {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kDeadlineExpired:
      return "deadline";
    case StopReason::kFaultInjected:
      return "fault-injected";
  }
  return "";
}

ExecutionContext::ExecutionContext(double deadline_ms, CancellationToken cancellation,
                                   int64_t max_candidate_pairs, int64_t max_matcher_cost)
    : max_candidate_pairs_(max_candidate_pairs), max_matcher_cost_(max_matcher_cost) {
  SetDeadline(deadline_ms);
  SetCancellation(std::move(cancellation));
}

void ExecutionContext::SetDeadline(double ms) {
  using Clock = std::chrono::steady_clock;
  has_deadline_ = false;
  if (!(ms > 0.0)) return;  // Also NaN.
  const Clock::time_point now = Clock::now();
  // Clock ticks, still as a double: +inf, and any deadline the clock's
  // time_point cannot represent, is no deadline rather than an overflow.
  const double ticks = std::chrono::duration<double, Clock::period>(
                           std::chrono::duration<double, std::milli>(ms))
                           .count();
  const Clock::rep headroom = (Clock::time_point::max() - now).count();
  if (!(ticks < static_cast<double>(headroom))) return;
  // ticks is now below 2^63, so the cast is defined; the rounded double
  // comparison may still let through a value just past headroom, which
  // the exact integer check catches.
  const auto offset = static_cast<Clock::rep>(ticks);
  if (offset >= headroom) return;
  has_deadline_ = true;
  deadline_ = now + Clock::duration(offset);
}

void ExecutionContext::NoteStop(StopReason reason) const {
  // First cause wins: the stop and its reason are one value, so a thread
  // that sees the stop reads the reason with it.
  int none = static_cast<int>(StopReason::kNone);
  stop_reason_.compare_exchange_strong(none, static_cast<int>(reason),
                                       std::memory_order_relaxed);
}

bool ExecutionContext::StopRequested() const {
  if (stop_reason() != StopReason::kNone) return true;
  if (has_token_ && token_.cancelled()) {
    NoteStop(StopReason::kCancelled);
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    NoteStop(StopReason::kDeadlineExpired);
    return true;
  }
  if (FaultInjector::Default().ShouldFire(faults::kDeadline)) {
    NoteStop(StopReason::kFaultInjected);
    return true;
  }
  return false;
}

size_t ExecutionContext::EffectiveCandidateCap(size_t n) const {
  size_t cap = n;
  if (max_candidate_pairs_ > 0) {
    cap = std::min(cap, static_cast<size_t>(max_candidate_pairs_));
  }
  if (FaultInjector::Default().ShouldFire(faults::kOversizedCandidates)) {
    const int64_t magnitude =
        FaultInjector::Default().magnitude(faults::kOversizedCandidates);
    cap = std::min(cap, magnitude > 0 ? static_cast<size_t>(magnitude) : n / 2);
  }
  return cap;
}

Status ExecutionContext::ToStatus() const {
  switch (stop_reason()) {
    case StopReason::kNone:
      return Status::Ok();
    case StopReason::kCancelled:
      return Status::Cancelled("run cancelled");
    case StopReason::kDeadlineExpired:
    case StopReason::kFaultInjected:
      return Status::DeadlineExceeded("run deadline expired");
  }
  return Status::Ok();
}

}  // namespace grouplink
