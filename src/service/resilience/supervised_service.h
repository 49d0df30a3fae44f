#ifndef GROUPLINK_SERVICE_RESILIENCE_SUPERVISED_SERVICE_H_
#define GROUPLINK_SERVICE_RESILIENCE_SUPERVISED_SERVICE_H_

// gl-lint: allow(unreached-header) E18 and resilience tests; ROADMAP item 4 may fold it.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/service.h"
#include "service/resilience/admission.h"
#include "service/resilience/circuit_breaker.h"
#include "service/resilience/health.h"
#include "service/resilience/retry_policy.h"

namespace grouplink {
namespace resilience {

struct SupervisedConfig {
  /// The inner LinkageService configuration. persist_on_refresh is forced
  /// off: the supervisor owns durability (watchdog-driven persists behind
  /// the retry policy and storage breaker), so the inner service must not
  /// race its own unsupervised writes against it.
  ServiceConfig service;

  /// Retry schedule for supervised persists. A half-open breaker probe is
  /// always a single attempt regardless of max_attempts.
  RetryConfig persist_retry;
  /// Breaker guarding the storage tier. While open, persists are skipped
  /// entirely — the service keeps serving from RAM and retries after the
  /// cooldown.
  BreakerConfig storage_breaker;
  /// Query-path admission control.
  AdmissionConfig admission;

  /// Watchdog tick period. The watchdog is the only place supervised
  /// persists, stall detection, refresh re-arms, and quarantine happen.
  double watchdog_interval_ms = 10.0;
  /// An in-flight refresh older than this is counted as stalled (health
  /// degrades; the stall is counted once per refresh).
  double stall_timeout_ms = 1000.0;
  /// Consecutive refresh failures with a culprit label before that
  /// arrival batch is quarantined (its groups removed, the refresh
  /// re-armed). Must be >= 1.
  int32_t quarantine_after_failures = 3;
  /// Consecutive refresh failures before the watchdog stops re-arming and
  /// health goes kUnhealthy. Must be >= quarantine_after_failures.
  int32_t give_up_after_failures = 6;
  /// Backoff schedule pacing refresh re-arms (only BackoffMs is used; the
  /// watchdog never sleeps — it checks the pacing deadline each tick).
  RetryConfig refresh_rearm;
  /// False disables the background watchdog; tests drive ticks
  /// deterministically through TickForTesting().
  bool enable_watchdog = true;

  [[nodiscard]] Status Validate() const;
};

/// A self-healing runtime wrapped around LinkageService. The inner
/// service stays exactly what it was — lock-free epoch reads, serialized
/// writer, non-blocking refresh — and the supervisor adds the four duties
/// a production replica needs when its environment misbehaves:
///
///   * Durability with retry + circuit breaker: a watchdog persists every
///     newly published epoch through RetryPolicy (transient kIoError is
///     retried with seeded-jitter backoff); persistent failure trips the
///     storage breaker and the service degrades to in-RAM serving instead
///     of hammering a dead disk, probing it again after the cooldown.
///   * Overload control: LinkQuery passes an admission gate — a bounded
///     concurrency limiter plus deadline-aware early rejection (a query
///     whose deadline is infeasible under the served-latency EWMA is shed
///     with kUnavailable *before* touching the snapshot). Shedding never
///     weakens an admitted answer; the under-link-never-mis-link contract
///     is untouched.
///   * Refresh supervision: stalled refreshes are detected and counted;
///     failed async refreshes are re-armed with backoff pacing; after
///     `quarantine_after_failures` consecutive failures attributed to one
///     arrival batch (the culprit label), that batch is quarantined — its
///     groups removed — and the refresh re-armed, so one poison batch
///     cannot wedge the epoch pipeline forever.
///   * A health surface: Health() snapshots staleness, refresh state,
///     breaker/persist state, and the shed/quarantine counters; the same
///     numbers are exported as service.* gauges through the metrics
///     registry (so --metrics-json in any bench carries them).
///
/// Thread-safe like the inner service; the watchdog runs on its own
/// 1-thread pool and is stopped before the inner service is destroyed.
///
/// Mutations must flow through this wrapper (not the inner service
/// directly) for quarantine to know which group indexes an arrival label
/// produced.
class SupervisedService {
 public:
  using QueryOptions = LinkageService::QueryOptions;
  using QueryResult = LinkageService::QueryResult;
  using AddResult = LinkageService::AddResult;

  [[nodiscard]] static Result<SupervisedService> Create(
      const Dataset& seed, const SupervisedConfig& config);
  /// Warm restart from config.service.persist_path (see
  /// LinkageService::Restore). The persisted epoch counts as already
  /// persisted — the watchdog will not rewrite it.
  [[nodiscard]] static Result<SupervisedService> Restore(
      const SupervisedConfig& config);

  ~SupervisedService();
  SupervisedService(SupervisedService&&) noexcept;
  SupervisedService& operator=(SupervisedService&&) noexcept;
  SupervisedService(const SupervisedService&) = delete;
  SupervisedService& operator=(const SupervisedService&) = delete;

  /// Admission-gated query: shed requests return kUnavailable (and count
  /// into service.shed_queries) without touching the snapshot; admitted
  /// ones run exactly like LinkageService::LinkQuery and feed the
  /// latency EWMA.
  [[nodiscard]] Result<QueryResult> LinkQuery(const GroupArrival& group,
                                              const QueryOptions& options) const;
  [[nodiscard]] Result<QueryResult> LinkQuery(const GroupArrival& group) const {
    return LinkQuery(group, QueryOptions());
  }

  /// Writer mutations, forwarded to the inner service; the supervisor
  /// additionally records which group indexes each arrival label
  /// produced (the quarantine ledger).
  AddResult AddGroup(const std::string& label,
                     const std::vector<std::string>& record_texts);
  std::vector<AddResult> AddGroups(const std::vector<GroupArrival>& batch);
  void RemoveGroup(int32_t group);
  AddResult MergeGroups(int32_t into, int32_t from);

  /// Forwarded refresh controls (Refresh() is the inline stop-the-world
  /// path and always succeeds — it also resets the failure streak).
  void Refresh();
  bool RefreshAsync();
  void WaitForRefresh();

  /// Current health. Computed fresh from the live components; also
  /// refreshes the exported service.* gauges.
  [[nodiscard]] ServiceHealth Health() const;

  /// Runs one watchdog tick synchronously (persist supervision, stall
  /// detection, re-arm, quarantine). Safe alongside the background
  /// watchdog (ticks are serialized); the deterministic driver for tests
  /// built with enable_watchdog = false.
  void TickForTesting();

  /// Labels quarantined so far, in quarantine order.
  [[nodiscard]] std::vector<std::string> quarantined_labels() const;

  /// Storage-breaker introspection for tests and the chaos harness.
  [[nodiscard]] BreakerState breaker_state() const;
  [[nodiscard]] std::vector<std::pair<BreakerState, BreakerState>>
  breaker_transitions() const;

  /// Epoch most recently persisted under supervision (0 = none yet).
  [[nodiscard]] int64_t last_persisted_epoch() const;

  /// The wrapped service (read-only surface for tests: snapshot(),
  /// linked_pairs(), epochs, refresh state).
  [[nodiscard]] const LinkageService& inner() const;
  [[nodiscard]] LinkageService& inner();

  [[nodiscard]] const SupervisedConfig& config() const;

 private:
  struct Impl;
  explicit SupervisedService(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace resilience
}  // namespace grouplink

#endif  // GROUPLINK_SERVICE_RESILIENCE_SUPERVISED_SERVICE_H_
