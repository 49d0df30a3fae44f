#ifndef GROUPLINK_COMMON_EXECUTION_CONTEXT_H_
#define GROUPLINK_COMMON_EXECUTION_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace grouplink {

/// Cooperative cancellation handle. Copies share one flag; any copy can
/// Cancel() and every copy observes it. Cancellation is sticky.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Why a run stopped early (or kNone when it ran to completion).
enum class StopReason {
  kNone = 0,
  kCancelled,
  kDeadlineExpired,
  kFaultInjected,
};

const char* StopReasonName(StopReason reason);

/// Per-run resilience state threaded through the pipeline: a wall-clock
/// deadline, a cooperative cancellation token, and work budgets. All
/// checks are cooperative — loops poll StopRequested() once per item
/// (candidate, probe, ParallelFor iteration), so "stopping" means
/// finishing the current item and shedding the rest.
///
/// Stop state is sticky: once StopRequested() observes the deadline,
/// the token, or an armed `execution.deadline` fault, every later call
/// returns true and stop_reason() names the first observed cause.
///
/// Degradation semantics (see DESIGN.md §8): a degraded run's links are a
/// subset of the full run's because each degraded path only loses links.
/// Deadline, cancellation and the candidate cap shed whole items, and a
/// shed pair is never linked. The edge join drops every bucket of a group
/// with an unaccumulated record, so each graph it decides is complete.
/// The matcher-budget fallback links only when GreedyLowerBound ≥ Θ, and
/// that bound is ≤ BM. BM is *not* monotone in the edge set (a graph
/// missing an edge can score higher), so no path decides a graph with
/// edges missing. Budget trips (candidate cap, matcher cost) are
/// per-item deterministic — they depend only on the item, never on
/// timing — so budget-degraded runs are bit-identical across thread
/// counts and repeats.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  /// A context armed with all four limits at once, as SetDeadline,
  /// SetCancellation, SetMaxCandidatePairs and SetMaxMatcherCost would arm
  /// them (a deadline <= 0 and budgets of 0 mean no limit). Every pipeline
  /// entry point builds its context this way from its config or options.
  ExecutionContext(double deadline_ms, CancellationToken cancellation,
                   int64_t max_candidate_pairs, int64_t max_matcher_cost);

  /// Arms a deadline `ms` milliseconds from now. Disarms instead when `ms`
  /// is <= 0 or NaN, or lies past the steady clock's range (+inf
  /// included): such a deadline can never expire.
  void SetDeadline(double ms);
  [[nodiscard]] bool has_deadline() const { return has_deadline_; }

  void SetCancellation(CancellationToken token) {
    token_ = std::move(token);
    has_token_ = true;
  }

  /// Caps the candidate pairs a stage may refine (0 = unlimited).
  void SetMaxCandidatePairs(int64_t cap) { max_candidate_pairs_ = cap; }
  int64_t max_candidate_pairs() const { return max_candidate_pairs_; }

  /// Caps the per-pair matcher cost |G1|*|G2| above which the refine
  /// step falls back to bounds-only matching (0 = unlimited).
  void SetMaxMatcherCost(int64_t cost) { max_matcher_cost_ = cost; }
  int64_t max_matcher_cost() const { return max_matcher_cost_; }

  /// Sticky poll: true once the token is cancelled, the deadline has
  /// passed, or the `execution.deadline` fault point fires. Safe to call
  /// concurrently from worker threads.
  [[nodiscard]] bool StopRequested() const;

  StopReason stop_reason() const {
    return static_cast<StopReason>(stop_reason_.load(std::memory_order_relaxed));
  }
  /// "" | "cancelled" | "deadline" | "fault-injected".
  const char* stop_reason_name() const { return StopReasonName(stop_reason()); }

  /// True when the per-pair matcher budget rejects this cost.
  [[nodiscard]] bool ExceedsMatcherBudget(int64_t cost) const {
    return max_matcher_cost_ > 0 && cost > max_matcher_cost_;
  }

  /// The candidate cap to apply to a natural list of `n` items: the
  /// configured budget, further shrunk when the `candidates.oversized`
  /// fault fires (to its magnitude, or n/2 when magnitude is 0).
  /// Returns n when nothing caps it.
  [[nodiscard]] size_t EffectiveCandidateCap(size_t n) const;

  /// Any stage that sheds or downgrades work calls this; degraded() then
  /// feeds RunReport.degraded.
  void NoteDegraded() const { degraded_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// OK while running; Cancelled/DeadlineExceeded once stopped.
  [[nodiscard]] Status ToStatus() const;

 private:
  void NoteStop(StopReason reason) const;

  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_token_ = false;
  CancellationToken token_;
  int64_t max_candidate_pairs_ = 0;
  int64_t max_matcher_cost_ = 0;
  // Mutable: polling from const contexts (measures take const*) must
  // still be able to latch the sticky stop state.
  mutable std::atomic<bool> stopped_{false};
  mutable std::atomic<int> stop_reason_{static_cast<int>(StopReason::kNone)};
  mutable std::atomic<bool> degraded_{false};
};

}  // namespace grouplink

#endif  // GROUPLINK_COMMON_EXECUTION_CONTEXT_H_
