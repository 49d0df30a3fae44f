#include "core/service.h"

#include <chrono>
#include <cmath>
#include <string_view>

#include "common/epoch_cell.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "storage/snapshot_store.h"

namespace grouplink {
namespace {

struct ServiceMetrics {
  Counter& queries;
  Counter& query_links;
  Counter& query_candidates;
  Counter& query_postings_scanned;
  Counter& query_degraded;
  Counter& epochs_published;
  Counter& refreshes_sync;
  Counter& refreshes_async;
  Counter& refresh_failures;
  Counter& persist_failures;
  Counter& replayed_ops;
  Gauge& published_epoch;
  Histogram& query_seconds;

  static ServiceMetrics& Get() {
    auto& registry = MetricsRegistry::Default();
    static ServiceMetrics metrics{
        registry.CounterRef("service.queries"),
        registry.CounterRef("service.query_links"),
        registry.CounterRef("service.query_candidates"),
        registry.CounterRef("service.query_postings_scanned"),
        registry.CounterRef("service.query_degraded"),
        registry.CounterRef("service.epochs_published"),
        registry.CounterRef("service.refreshes_sync"),
        registry.CounterRef("service.refreshes_async"),
        registry.CounterRef("service.refresh_failures"),
        registry.CounterRef("service.persist_failures"),
        registry.CounterRef("service.replayed_ops"),
        registry.GaugeRef("service.published_epoch"),
        registry.HistogramRef("service.query_seconds")};
    return metrics;
  }
};

}  // namespace

Status ServiceConfig::Validate() const {
  GL_RETURN_IF_ERROR(ValidateStreamingConfigs(engine, streaming));
  if (!std::isfinite(default_query_deadline_ms) ||
      default_query_deadline_ms < 0.0) {
    return Status::InvalidArgument(
        "ServiceConfig: default_query_deadline_ms must be finite and >= 0");
  }
  if (default_query_max_candidates < 0) {
    return Status::InvalidArgument(
        "ServiceConfig: default_query_max_candidates must be >= 0");
  }
  if (default_query_max_matcher_cost < 0) {
    return Status::InvalidArgument(
        "ServiceConfig: default_query_max_matcher_cost must be >= 0");
  }
  if (persist_on_refresh && persist_path.empty()) {
    return Status::InvalidArgument(
        "ServiceConfig: persist_on_refresh requires persist_path");
  }
  if (!persist_path.empty() &&
      (persist_page_bytes < storage::kMinPageBytes ||
       persist_page_bytes > storage::kMaxPageBytes)) {
    return Status::InvalidArgument(
        "ServiceConfig: persist_page_bytes must lie in [" +
        std::to_string(storage::kMinPageBytes) + ", " +
        std::to_string(storage::kMaxPageBytes) + "]");
  }
  return Status::Ok();
}

/// All service state. Lock discipline: `mu` guards the writer linker, the
/// ops log, and the in-flight flag; `cell` is its own synchronization
/// (atomic publication); `refresh_pool` is internally synchronized. The
/// pool is declared *last* so ~Impl destroys it *first* — draining any
/// background refresh (which locks `mu` and touches every other member)
/// before the state it reads dies.
struct LinkageService::Impl {
  /// One logged writer mutation, replayed verbatim onto the refreshed
  /// clone. Replay preserves call order, and group/record ids are a
  /// deterministic function of call order alone, so the clone assigns the
  /// same ids the live writer handed out while the refresh was running.
  struct Op {
    enum class Kind { kAdd, kRemove, kMerge };
    Kind kind;
    std::vector<GroupArrival> batch;  // kAdd
    int32_t a = 0;                    // kRemove: group; kMerge: into.
    int32_t b = 0;                    // kMerge: from.
  };

  using Clock = std::chrono::steady_clock;

  ServiceConfig config;
  mutable Mutex mu;
  std::shared_ptr<IncrementalLinker> linker GL_GUARDED_BY(mu);
  bool in_flight GL_GUARDED_BY(mu) = false;
  std::vector<Op> ops_log GL_GUARDED_BY(mu);
  /// Refresh-supervision surface, all guarded by mu: outcome of the last
  /// async build, the failure streak, the poison culprit of the last
  /// failure, and the timestamps the watchdog samples for epoch age and
  /// stall detection.
  Status last_refresh GL_GUARDED_BY(mu) = Status::Ok();
  int64_t consecutive_refresh_failures GL_GUARDED_BY(mu) = 0;
  std::string last_refresh_culprit GL_GUARDED_BY(mu);
  Clock::time_point last_publish_at GL_GUARDED_BY(mu) = Clock::now();
  Clock::time_point refresh_started_at GL_GUARDED_BY(mu){};
  EpochCell<CorpusSnapshot> cell;
  /// Persistence state. persist_mu is independent of mu (persists run
  /// with mu released — disk never blocks ingest or queries) and
  /// serializes concurrent persists (manual + background) so two writers
  /// never race on one tmp file.
  mutable Mutex persist_mu GL_ACQUIRED_AFTER(mu);
  Status last_persist GL_GUARDED_BY(persist_mu) = Status::Ok();
  std::unique_ptr<ThreadPool> refresh_pool;   // Keep last; see above.

  /// True when the refresh policy wants a new epoch, from the writer's
  /// public accumulation accessors (the writer's own inline trigger is
  /// disabled in async mode — the policy lives here instead).
  bool PolicyWantsRefresh() const GL_REQUIRES(mu) {
    return config.streaming.WantsRefresh(linker->groups_since_refresh(),
                                         linker->EpochOovRatio());
  }

  void PublishLocked(const IncrementalLinker& source) GL_REQUIRES(mu) {
    PublishSnapshotLocked(CorpusSnapshot::Capture(source));
  }

  void PublishSnapshotLocked(std::shared_ptr<const CorpusSnapshot> snapshot)
      GL_REQUIRES(mu) {
    auto& metrics = ServiceMetrics::Get();
    metrics.published_epoch.Set(static_cast<double>(snapshot->epoch()));
    metrics.epochs_published.Increment();
    last_publish_at = Clock::now();
    cell.Store(std::move(snapshot));
  }

  /// A refresh (any mode) completed and its epoch is published: clear the
  /// failure streak the watchdog keys off.
  void NoteRefreshSuccessLocked() GL_REQUIRES(mu) {
    last_refresh = Status::Ok();
    consecutive_refresh_failures = 0;
    last_refresh_culprit.clear();
  }

  /// The background build died before publishing: discard everything it
  /// owned, keep the previous epoch serving, and surface the failure for
  /// the watchdog. The backlog ops were already applied to the live
  /// writer (the log exists only to replay them onto the clone), so
  /// clearing it loses nothing.
  void FailRefreshJob(std::string culprit) GL_EXCLUDES(mu) {
    Status failure = Status::Unavailable(
        culprit.empty()
            ? "async refresh build failed (injected)"
            : "async refresh build died absorbing poison batch '" + culprit + "'");
    GL_LOG(Warning) << "refresh failed: " << failure.message();
    ServiceMetrics::Get().refresh_failures.Increment();
    MutexLock lock(&mu);
    ops_log.clear();
    in_flight = false;
    last_refresh = std::move(failure);
    ++consecutive_refresh_failures;
    last_refresh_culprit = std::move(culprit);
  }

  /// The poison label the injected kPoisonBatch fault would blame for
  /// this corpus, or "" when the corpus is clean (newest group first —
  /// the batch the build was absorbing when it died).
  static std::string FindPoisonLabel(const IncrementalLinker& linker) {
    const std::string_view marker = faults::kPoisonLabelMarker;
    for (int32_t g = linker.num_groups() - 1; g >= 0; --g) {
      if (!linker.IsAlive(g)) continue;
      const std::string& label = linker.group_label(g);
      if (std::string_view(label).substr(0, marker.size()) == marker) {
        return label;
      }
    }
    return std::string();
  }

  /// Writes `snapshot` to the configured store path. Never called with
  /// `mu` held. Records the outcome in last_persist and returns it.
  Status PersistPublished(const std::shared_ptr<const CorpusSnapshot>& snapshot)
      GL_EXCLUDES(mu) {
    storage::StorageOptions options;
    options.page_bytes = config.persist_page_bytes;
    MutexLock lock(&persist_mu);
    // gl-lint: allow(lock-blocking-call) persist_mu exists to serialize disk writers (manual vs background persist); it guards no query or ingest state, so holding it across the store write is the point
    const Status status = storage::SnapshotStore::Persist(
        *snapshot, config.persist_path, options);
    if (!status.ok()) {
      GL_LOG(Warning) << "persist of epoch " << snapshot->epoch()
                      << " failed: " << status.message();
      // A failing store must be observable, not just stored: the counter
      // is what dashboards and the health surface alarm on.
      ServiceMetrics::Get().persist_failures.Increment();
    }
    last_persist = status;
    return status;
  }

  /// Requires no refresh in flight. Clones the writer at the current cut
  /// and hands the clone to the background worker; mutations from here on
  /// are logged for replay.
  void StartRefreshLocked() GL_REQUIRES(mu) {
    GL_CHECK(!in_flight);
    in_flight = true;
    refresh_started_at = Clock::now();
    ops_log.clear();
    // shared_ptr because ThreadPool tasks are copyable std::functions;
    // the clone has exactly one logical owner (the background job).
    std::shared_ptr<IncrementalLinker> clone = linker->Clone();
    refresh_pool->Submit([this, clone] { RunRefreshJob(clone); });
    ServiceMetrics::Get().refreshes_async.Increment();
  }

  /// Background body: refresh the clone unlocked (the expensive part —
  /// readers and writers run unimpeded), publish the pure refresh-point
  /// epoch, then replay the backlog with a catch-up loop and swap the
  /// clone in as the new writer.
  ///
  /// The writer lock is only ever held for O(1)-ish work here: the clone
  /// is private to this job until the swap, so both the O(corpus)
  /// snapshot copy and the per-op re-scoring of the replay run unlocked —
  /// an arrival's worst-case wait on `mu` is one backlog handoff, not a
  /// whole replay (that is the E18 stall number).
  void RunRefreshJob(const std::shared_ptr<IncrementalLinker>& clone)
      GL_EXCLUDES(mu) {
    GL_TRACE_SPAN("service.async_refresh");
    // Injected stall: the build sleeps before doing any work, long enough
    // for a watchdog stall detector (or a test) to observe it in flight.
    (void)FaultInjector::Default().FireWithDelay(faults::kStallRefresh);
    // Injected build death, evaluated before the expensive work the way a
    // crash would pre-empt it: a poisoned corpus (kPoisonBatch names the
    // culprit batch label) or a generic failure (kRefreshFailure). Either
    // way nothing is published and the previous epoch keeps serving.
    {
      auto& injector = FaultInjector::Default();
      std::string culprit;
      if (injector.armed(faults::kPoisonBatch)) {
        culprit = FindPoisonLabel(*clone);
        if (!culprit.empty() && !injector.ShouldFire(faults::kPoisonBatch)) {
          culprit.clear();
        }
      }
      if (!culprit.empty() || injector.ShouldFire(faults::kRefreshFailure)) {
        FailRefreshJob(std::move(culprit));
        return;
      }
    }
    clone->Refresh();

    // Publish *before* replay: the epoch snapshot is exactly the
    // refreshed cut-point corpus, which is what makes
    // snapshot-at-epoch-k == batch-run-at-epoch-k provable.
    {
      std::shared_ptr<const CorpusSnapshot> snapshot =
          CorpusSnapshot::Capture(*clone);
      {
        MutexLock lock(&mu);
        PublishSnapshotLocked(snapshot);
        NoteRefreshSuccessLocked();
      }
      // Durability rides the background thread too, after the publish
      // and with no lock held: a slow disk delays nothing but the next
      // persist.
      if (config.persist_on_refresh) (void)PersistPublished(snapshot);
    }

    // Catch-up replay: repeatedly steal the whole backlog under the lock,
    // apply it to the private clone unlocked, and only swap when a steal
    // finds the log empty — the emptiness check and the swap are atomic,
    // so no mutation can fall between the old writer and the new one.
    for (;;) {
      std::vector<Op> batch;
      {
        MutexLock lock(&mu);
        if (ops_log.empty()) {
          linker = clone;
          in_flight = false;
          // The replayed backlog may already satisfy the policy again
          // (heavy ingest during a slow build); chain the next epoch so
          // the service converges instead of waiting for the next
          // mutation.
          if (PolicyWantsRefresh()) StartRefreshLocked();
          return;
        }
        batch.swap(ops_log);
      }
      ServiceMetrics::Get().replayed_ops.Increment(batch.size());
      for (const Op& op : batch) {
        switch (op.kind) {
          case Op::Kind::kAdd:
            (void)clone->AddGroups(op.batch);  // Results went to the caller already.
            break;
          case Op::Kind::kRemove:
            clone->RemoveGroup(op.a);
            break;
          case Op::Kind::kMerge:
            (void)clone->MergeGroups(op.a, op.b);  // Same: replay for state only.
            break;
        }
      }
    }
  }

  /// Post-mutation bookkeeping, mu held: log the op when a refresh is in
  /// flight, and fire the policy. `inline_refreshed` reports that the
  /// writer already refreshed inside the mutating call (sync mode), which
  /// only needs the new epoch published. Returns the snapshot the caller
  /// must persist *after releasing mu* (null when none) — the disk write
  /// never runs under the writer lock.
  [[nodiscard]] std::shared_ptr<const CorpusSnapshot> AfterMutationLocked(
      Op op, bool inline_refreshed) GL_REQUIRES(mu) {
    if (in_flight) ops_log.push_back(std::move(op));
    if (inline_refreshed) {
      PublishLocked(*linker);
      NoteRefreshSuccessLocked();
      ServiceMetrics::Get().refreshes_sync.Increment();
      return config.persist_on_refresh ? cell.Load() : nullptr;
    }
    if (config.async_refresh && !in_flight && PolicyWantsRefresh()) {
      StartRefreshLocked();
    }
    return nullptr;
  }
};

LinkageService::LinkageService(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
LinkageService::~LinkageService() = default;
LinkageService::LinkageService(LinkageService&&) noexcept = default;
LinkageService& LinkageService::operator=(LinkageService&&) noexcept = default;

Result<LinkageService> LinkageService::Create(const Dataset& seed,
                                              const ServiceConfig& config) {
  GL_RETURN_IF_ERROR(config.Validate());
  auto impl = std::make_unique<Impl>();
  impl->config = config;
  // Async mode owns the refresh policy itself (the writer's inline
  // trigger would stop the world); sync mode delegates to the writer.
  const StreamingConfig writer_streaming =
      config.async_refresh ? StreamingConfig{} : config.streaming;
  GL_ASSIGN_OR_RETURN(
      IncrementalLinker linker,
      IncrementalLinker::Create(seed, config.engine, writer_streaming));
  impl->linker = std::make_shared<IncrementalLinker>(std::move(linker));
  {
    MutexLock lock(&impl->mu);
    impl->PublishLocked(*impl->linker);
  }
  impl->refresh_pool = std::make_unique<ThreadPool>(1);
  // Seed epoch durability, with no lock held (nothing else can touch the
  // service yet anyway).
  if (config.persist_on_refresh) {
    (void)impl->PersistPublished(impl->cell.Load());
  }
  return LinkageService(std::move(impl));
}

Result<LinkageService> LinkageService::Restore(const ServiceConfig& config) {
  GL_RETURN_IF_ERROR(config.Validate());
  if (config.persist_path.empty()) {
    return Status::InvalidArgument("Restore requires persist_path");
  }
  GL_ASSIGN_OR_RETURN(std::shared_ptr<const CorpusSnapshot> snapshot,
                      storage::SnapshotStore::Load(config.persist_path));
  auto impl = std::make_unique<Impl>();
  impl->config = config;
  // The persisted engine config supersedes the caller's: the store knows
  // what the corpus was linked with, and mixing configs would break the
  // bit-identity contract of the warm restart.
  impl->config.engine = snapshot->engine_config();
  const StreamingConfig writer_streaming =
      config.async_refresh ? StreamingConfig{} : config.streaming;
  GL_ASSIGN_OR_RETURN(std::unique_ptr<IncrementalLinker> linker,
                      IncrementalLinker::FromSnapshot(*snapshot, writer_streaming));
  impl->linker = std::move(linker);
  {
    MutexLock lock(&impl->mu);
    // The recovered snapshot is published as-is — same epoch number, same
    // link set — no re-capture round trip.
    impl->PublishSnapshotLocked(std::move(snapshot));
  }
  impl->refresh_pool = std::make_unique<ThreadPool>(1);
  return LinkageService(std::move(impl));
}

std::shared_ptr<const CorpusSnapshot> LinkageService::snapshot() const {
  return impl_->cell.Load();
}

LinkageService::QueryResult LinkageService::LinkQuery(
    const GroupArrival& group, const QueryOptions& options) const {
  auto& metrics = ServiceMetrics::Get();
  WallTimer timer;
  // One acquire-load; the rest of the query runs on the immutable epoch.
  const std::shared_ptr<const CorpusSnapshot> snapshot = impl_->cell.Load();

  QueryOptions effective = options;
  const ServiceConfig& config = impl_->config;
  if (effective.deadline_ms <= 0.0) {
    effective.deadline_ms = config.default_query_deadline_ms;
  }
  if (effective.max_candidate_pairs == 0) {
    effective.max_candidate_pairs = config.default_query_max_candidates;
  }
  if (effective.max_matcher_cost == 0) {
    effective.max_matcher_cost = config.default_query_max_matcher_cost;
  }

  QueryResult result = snapshot->LinkQuery(group, effective);

  metrics.queries.Increment();
  metrics.query_links.Increment(result.linked_to.size());
  metrics.query_candidates.Increment(result.candidates);
  metrics.query_postings_scanned.Increment(result.postings_scanned);
  if (result.degraded) metrics.query_degraded.Increment();
  metrics.query_seconds.Observe(timer.ElapsedSeconds());
  return result;
}

LinkageService::AddResult LinkageService::AddGroup(
    const std::string& label, const std::vector<std::string>& record_texts) {
  std::vector<AddResult> results = AddGroups({{label, record_texts}});
  return std::move(results.front());
}

std::vector<LinkageService::AddResult> LinkageService::AddGroups(
    const std::vector<GroupArrival>& batch) {
  if (batch.empty()) return {};
  std::vector<AddResult> results;
  std::shared_ptr<const CorpusSnapshot> to_persist;
  {
    MutexLock lock(&impl_->mu);
    results = impl_->linker->AddGroups(batch);
    bool inline_refreshed = false;
    for (const AddResult& result : results) {
      inline_refreshed = inline_refreshed || result.triggered_refresh;
    }
    to_persist = impl_->AfterMutationLocked(
        Impl::Op{Impl::Op::Kind::kAdd, batch, 0, 0}, inline_refreshed);
  }
  if (to_persist != nullptr) (void)impl_->PersistPublished(to_persist);
  return results;
}

void LinkageService::RemoveGroup(int32_t group) {
  MutexLock lock(&impl_->mu);
  impl_->linker->RemoveGroup(group);
  // Removals never inline-refresh, so there is never a persist to run.
  (void)impl_->AfterMutationLocked(Impl::Op{Impl::Op::Kind::kRemove, {}, group, 0},
                                   /*inline_refreshed=*/false);
}

LinkageService::AddResult LinkageService::MergeGroups(int32_t into,
                                                      int32_t from) {
  MutexLock lock(&impl_->mu);
  AddResult result = impl_->linker->MergeGroups(into, from);
  (void)impl_->AfterMutationLocked(Impl::Op{Impl::Op::Kind::kMerge, {}, into, from},
                                   /*inline_refreshed=*/false);
  return result;
}

void LinkageService::Refresh() {
  // Drain the background build first; a concurrent mutation may start
  // another one between the wait and the lock, so loop until the lock is
  // held with nothing in flight (an inline refresh during a swap would
  // be silently overwritten by it otherwise).
  std::shared_ptr<const CorpusSnapshot> to_persist;
  for (;;) {
    WaitForRefresh();
    MutexLock lock(&impl_->mu);
    if (impl_->in_flight) continue;
    impl_->linker->Refresh();
    impl_->PublishLocked(*impl_->linker);
    impl_->NoteRefreshSuccessLocked();
    ServiceMetrics::Get().refreshes_sync.Increment();
    if (impl_->config.persist_on_refresh) to_persist = impl_->cell.Load();
    break;
  }
  if (to_persist != nullptr) (void)impl_->PersistPublished(to_persist);
}

bool LinkageService::RefreshAsync() {
  MutexLock lock(&impl_->mu);
  if (impl_->in_flight) return false;
  impl_->StartRefreshLocked();
  return true;
}

void LinkageService::WaitForRefresh() { impl_->refresh_pool->Wait(); }

bool LinkageService::refresh_in_flight() const {
  MutexLock lock(&impl_->mu);
  return impl_->in_flight;
}

Status LinkageService::last_refresh_status() const {
  MutexLock lock(&impl_->mu);
  return impl_->last_refresh;
}

int64_t LinkageService::consecutive_refresh_failures() const {
  MutexLock lock(&impl_->mu);
  return impl_->consecutive_refresh_failures;
}

std::string LinkageService::last_refresh_culprit() const {
  MutexLock lock(&impl_->mu);
  return impl_->last_refresh_culprit;
}

double LinkageService::published_age_ms() const {
  MutexLock lock(&impl_->mu);
  return std::chrono::duration<double, std::milli>(Impl::Clock::now() -
                                                   impl_->last_publish_at)
      .count();
}

double LinkageService::refresh_inflight_ms() const {
  MutexLock lock(&impl_->mu);
  if (!impl_->in_flight) return 0.0;
  return std::chrono::duration<double, std::milli>(Impl::Clock::now() -
                                                   impl_->refresh_started_at)
      .count();
}

int32_t LinkageService::groups_since_refresh() const {
  MutexLock lock(&impl_->mu);
  return impl_->linker->groups_since_refresh();
}

Status LinkageService::PersistNow() {
  if (impl_->config.persist_path.empty()) {
    return Status::InvalidArgument(
        "PersistNow requires ServiceConfig::persist_path");
  }
  return impl_->PersistPublished(impl_->cell.Load());
}

Status LinkageService::last_persist_status() const {
  MutexLock lock(&impl_->persist_mu);
  return impl_->last_persist;
}

int64_t LinkageService::published_epoch() const {
  return impl_->cell.Load()->epoch();
}

int64_t LinkageService::writer_epoch() const {
  MutexLock lock(&impl_->mu);
  return impl_->linker->epoch();
}

int32_t LinkageService::num_groups() const {
  MutexLock lock(&impl_->mu);
  return impl_->linker->num_groups();
}

std::vector<std::pair<int32_t, int32_t>> LinkageService::linked_pairs() const {
  MutexLock lock(&impl_->mu);
  return impl_->linker->linked_pairs();
}

const ServiceConfig& LinkageService::config() const { return impl_->config; }

}  // namespace grouplink
