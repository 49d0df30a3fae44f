#ifndef GROUPLINK_CORE_INCREMENTAL_H_
#define GROUPLINK_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/union_find.h"
#include "core/group.h"
#include "core/group_measures.h"
#include "core/linkage_engine.h"
#include "index/weighted_postings.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"

namespace grouplink {

class CorpusSnapshot;

/// Epoch refresh policy of the streaming linker. Between refreshes the
/// TF-IDF statistics (IDF table and document count) stay frozen at the
/// last epoch; a refresh recomputes them over the live corpus,
/// re-vectorizes every record, rebuilds the postings, and rescores every
/// group pair with a θ-edge — after which the link set is *exactly* the
/// batch engine's on the accumulated corpus (see IncrementalLinker).
struct StreamingConfig {
  /// Refresh after this many groups have been added since the last
  /// refresh (checked after every arrival batch). 0 disables the trigger.
  int32_t refresh_every_n_groups = 0;
  /// Refresh when the fraction of out-of-vocabulary token occurrences
  /// among all token occurrences ingested since the last refresh exceeds
  /// this ratio (checked after every arrival batch). 0 disables; must be
  /// a finite number in [0, 1].
  double refresh_on_oov_ratio = 0.0;

  Status Validate() const;
  /// True when either enabled trigger fires for a writer that has added
  /// `groups_since_refresh` groups at `oov_ratio` since its last refresh.
  bool WantsRefresh(int32_t groups_since_refresh, double oov_ratio) const;
};

/// One group arriving on the stream: its display label and record texts.
struct GroupArrival {
  std::string label;
  std::vector<std::string> record_texts;
};

/// The one validation entry point for a streaming/serving configuration:
/// checks the engine config and the refresh policy together, prefixing
/// each message with the struct it came from ("LinkageConfig: ...",
/// "StreamingConfig: ..."), so IncrementalLinker::Create and
/// LinkageService::Create reject bad configs through a single error path.
[[nodiscard]] Status ValidateStreamingConfigs(const LinkageConfig& config,
                                              const StreamingConfig& streaming);

/// Streaming group linkage: after seeding with an initial corpus, groups
/// arrive in batches and are linked against everything seen so far — and
/// against each other — without rescoring any existing pair. The arrival
/// path is the filter-and-refine pipeline in miniature: score
/// accumulation over the maintained weighted postings finds exactly the
/// groups with a θ-edge (AccumulateAndDecide, core/accumulate.h), the
/// UB/LB bounds decide most of them, the Hungarian matching refines the
/// rest. Groups can also be removed and merged, which opens the
/// entity-resolution repair workload.
///
/// Semantics and the convergence guarantee:
///   * An arrival is decided against every live group with at least one
///     record pair at cosine ≥ θ; a group without one has an empty graph
///     and could never link. Refresh() runs the batch edge join
///     (EdgeJoinLink, core/edge_join.h) over the rebuilt postings, so it
///     too decides exactly the group pairs with a θ-edge.
///   * TF-IDF statistics are frozen at the last epoch refresh. New
///     records are vectorized against the epoch vocabulary; tokens unseen
///     at the last refresh are dropped from the *vector* (not from the
///     record's token ids) until the next refresh.
///   * Refresh() recomputes the statistics over the live corpus and
///     rescores every group pair with a θ-edge through the edge join's
///     accumulation self-join and filter-and-refine ladder. After a
///     refresh, linked_pairs() is bit-identical to LinkageEngine::Run on
///     a dataset holding the live records in arrival order with
///     engine_config() (per-pair token blocking over word tokens, an
///     independent code path; property-tested in
///     tests/core_streaming_equivalence_test.cc). Without refresh the
///     link set is approximate: frozen IDF drifts from the true
///     statistics and dropped new tokens weaken similarities, so
///     streaming typically under-links relative to batch (tested as a
///     subset relation on the covered workloads).
///   * AddGroups output is bit-identical at any thread count: token ids,
///     record ids, and the weighted postings are fixed by arrival order
///     in serial phases, each arrival accumulates only records before
///     its own first record, and scoring writes into per-arrival slots.
///
/// Observability: per-arrival/refresh trace spans, incremental.* counters
/// (groups_added, candidates_scored, postings_scanned, links, refreshes,
/// refresh_rescored_pairs — the group pairs with a θ-edge a refresh
/// decided — degraded arrivals and refreshes, removals, merges, OOV
/// tokens), an arrival-latency histogram, and an OOV-ratio gauge, all in
/// the process MetricsRegistry. A refresh also counts its join into
/// edge_join.*.
///
/// Example:
///   GL_ASSIGN_OR_RETURN(IncrementalLinker linker,
///                       IncrementalLinker::Create(
///                           seed_dataset, config,
///                           {.refresh_every_n_groups = 64}));
///   auto added = linker.AddGroup("j ullman", citation_texts);
///   for (int32_t g : added.linked_to) { ... }
class IncrementalLinker {
 public:
  /// Single-phase construction: validates the configs (through
  /// ValidateStreamingConfigs) and the seed dataset, ingests every seed
  /// record, and runs one refresh — so the seed link set equals a full
  /// batch run with engine_config(). The returned linker is ready to use;
  /// there is no separate initialization step to forget.
  [[nodiscard]] static Result<IncrementalLinker> Create(
      const Dataset& seed, const LinkageConfig& config,
      const StreamingConfig& streaming = {});

  /// Deep-copies the linker's entire state (corpus, token ids, epoch
  /// statistics, links) into an independent linker. The clone shares
  /// nothing mutable with the original — it lazily builds its own thread
  /// pool — so one side can refresh or ingest while the other serves.
  /// This is the cut-point primitive behind LinkageService's non-blocking
  /// refresh: clone, refresh the clone off to the side, swap.
  [[nodiscard]] std::unique_ptr<IncrementalLinker> Clone() const;

  /// Warm restart: rebuilds a ready-to-mutate linker from a sealed
  /// snapshot (typically one SnapshotStore::Load recovered from disk).
  /// The rebuilt linker reproduces the captured linker's frozen state —
  /// corpus, token ids, epoch statistics, link set — so subsequent
  /// arrivals link bit-identically to a linker that had never stopped. The
  /// since-refresh counters (groups/OOV) restart at zero: a restarted
  /// process behaves as if the last persist had just refreshed, which
  /// only affects *when* the next automatic refresh triggers, never any
  /// link decision.
  [[nodiscard]] static Result<std::unique_ptr<IncrementalLinker>> FromSnapshot(
      const CorpusSnapshot& snapshot, const StreamingConfig& streaming = {});

  /// Outcome of one arrival (or merge).
  struct AddResult {
    /// Index assigned to the new group (or the surviving merged group).
    int32_t group_index = 0;
    /// Groups the new group linked to (ascending; may include groups from
    /// the same arrival batch).
    std::vector<int32_t> linked_to;
    /// Groups with at least one θ-edge that were decided (diagnostics).
    size_t candidates = 0;
    /// Weighted posting entries read by score accumulation (exact work
    /// counter, diagnostics).
    size_t postings_scanned = 0;
    /// Token occurrences unseen in the epoch vocabulary (diagnostics).
    size_t oov_tokens = 0;
    /// True when this arrival's batch triggered an epoch refresh.
    bool triggered_refresh = false;
    /// True when resilience limits shed work for this arrival (candidate
    /// truncation, or a scoring pass skipped by deadline / cancellation /
    /// injected fault): linked_to may be missing links. The linker's
    /// state stays consistent — a later Refresh() rescores everything and
    /// recovers the missing links.
    bool degraded = false;
  };

  /// Adds one group and links it against every live group. Empty
  /// `record_texts` is invalid (GL_CHECK). Equivalent to a one-element
  /// AddGroups batch.
  AddResult AddGroup(const std::string& label,
                     const std::vector<std::string>& record_texts);

  /// Adds a batch of groups and links them against the corpus *and each
  /// other*. Scoring runs on the configured thread pool; output is
  /// bit-identical at any thread count and to adding the groups one at a
  /// time (when no refresh intervenes mid-batch — the refresh policy is
  /// checked once per batch, after all its groups are linked).
  std::vector<AddResult> AddGroups(const std::vector<GroupArrival>& batch);

  /// Removes a live group: its links disappear, its records' token ids,
  /// vectors and postings are freed, and its index stays permanently dead.
  /// Requires a live group index.
  void RemoveGroup(int32_t group);

  /// Merges live group `from` into live group `into` (entity-resolution
  /// repair): `from`'s records move to `into`, `from` is tombstoned, and
  /// the combined group is rescored against every candidate under the
  /// current epoch statistics. Returns the rescoring outcome for `into`.
  AddResult MergeGroups(int32_t into, int32_t from);

  /// Recomputes epoch TF-IDF statistics over the live corpus from its
  /// token ids, re-vectorizes every record, rebuilds the weighted
  /// postings, and rescores every group pair with a θ-edge through
  /// EdgeJoinLink. Afterwards linked_pairs() equals the batch engine's
  /// output on the live corpus (see class comment). Also runs
  /// automatically per StreamingConfig.
  void Refresh();

  /// All links over live groups, (i < j) pairs sorted lexicographically.
  const std::vector<std::pair<int32_t, int32_t>>& linked_pairs() const {
    return linked_pairs_;
  }

  /// Entity label per group slot (including tombstoned slots, which are
  /// singletons) — the transitive closure of linked_pairs(), maintained
  /// incrementally as links accumulate.
  std::vector<size_t> ClusterLabels() const;

  /// Display label of group slot `group` (tombstoned slots keep theirs).
  /// Requires a valid slot index.
  const std::string& group_label(int32_t group) const {
    return group_labels_[static_cast<size_t>(group)];
  }

  /// Total group slots ever created (tombstones included).
  int32_t num_groups() const { return static_cast<int32_t>(group_records_.size()); }
  /// Live (non-tombstoned) groups.
  int32_t num_alive_groups() const { return num_alive_groups_; }
  bool IsAlive(int32_t group) const;

  /// Completed epoch refreshes (Create counts as the first).
  int64_t epoch() const { return epoch_; }
  int32_t groups_since_refresh() const { return groups_since_refresh_; }
  /// OOV token occurrences / all token occurrences since the last
  /// refresh; 0 when nothing arrived yet.
  double EpochOovRatio() const;

  /// The normalized engine configuration whose batch output a refreshed
  /// linker reproduces (token-blocking candidates, BM measure, per-pair
  /// strategy: a code path independent of Refresh's edge join). Use it to
  /// build the batch comparator.
  const LinkageConfig& engine_config() const { return config_; }

 private:
  /// CorpusSnapshot::Capture freezes the linker's state (vectors, token
  /// ids, labels, links) into an immutable serving epoch; it reads the
  /// private members directly so the snapshot layout can mirror the
  /// linker's.
  friend class CorpusSnapshot;

  /// Normalizes `config` (see engine_config()); Create and FromSnapshot
  /// fill in the state.
  IncrementalLinker(const LinkageConfig& config, const StreamingConfig& streaming);
  /// Create's second half: ingests the seed dataset and runs the first
  /// refresh.
  Status Initialize(const Dataset& dataset);
  /// The ids of a record's tokens sorted by string (repeats adjacent):
  /// one GetOrInsertId per distinct token. Extends epoch_id_ over new ids.
  std::vector<int32_t> ToIndexIds(const std::vector<std::string>& sorted_tokens);
  void EraseLinksInvolving(int32_t group);
  void RebuildClusters();
  ThreadPool* pool();

  LinkageConfig config_;  // Normalized; see engine_config().
  StreamingConfig streaming_;
  std::unique_ptr<ThreadPool> pool_;

  // Per-record state; record ids are stable and never reused. A record's
  // tokens are held once, as index_vocab_ ids sorted by token string with
  // repeats adjacent: each run is one distinct token and its length that
  // token's tf. Removal frees them.
  std::vector<std::vector<int32_t>> record_token_ids_;
  std::vector<SparseVector> record_vectors_;  // Under epoch statistics.
  std::vector<int32_t> record_group_;

  // Per-group state; tombstoned slots keep their index forever. A group's
  // record ids keep the seed dataset's order; arrivals and merged groups
  // ascend.
  std::vector<std::vector<int32_t>> group_records_;
  std::vector<std::string> group_labels_;
  std::vector<char> group_alive_;
  int32_t num_alive_groups_ = 0;

  // Grow-only token dictionary: ids are stable across refreshes, and new
  // tokens are absorbed on arrival.
  Vocabulary index_vocab_;

  // Epoch TF-IDF statistics, rebuilt by Refresh, and the index_vocab_ id ->
  // epoch id table every vector is built through (kUnknownToken for a
  // token the epoch lacks; it covers every index_vocab_ id).
  Vocabulary epoch_vocab_;
  std::vector<int32_t> epoch_id_;
  // Transpose of record_vectors_, keyed by epoch token: rebuilt by
  // Refresh, appended to on arrival, erased from on removal.
  WeightedPostings postings_;

  std::vector<std::pair<int32_t, int32_t>> linked_pairs_;
  // Maintained incrementally (AddElement per group, Union per link);
  // rebuilt wholesale on remove/merge/refresh. Mutable because
  // ComponentLabels path-compresses.
  mutable UnionFind clusters_{0};

  int64_t epoch_ = 0;
  int32_t groups_since_refresh_ = 0;
  int64_t oov_since_refresh_ = 0;
  int64_t tokens_since_refresh_ = 0;
};

}  // namespace grouplink

#endif  // GROUPLINK_CORE_INCREMENTAL_H_
