#ifndef GROUPLINK_CORE_SNAPSHOT_H_
#define GROUPLINK_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "core/accumulate.h"
#include "core/incremental.h"
#include "index/inverted_index.h"
#include "index/weighted_postings.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"

namespace grouplink {

/// The read surface of one frozen epoch that the link-query pipeline
/// (RunLinkQuery) reads: the engine config, the epoch vocabulary, and the
/// accumulation reads of PostingsCorpus — weighted postings per epoch
/// token, the record -> group map and group membership. CorpusSnapshot
/// serves it from RAM; the storage tier's StoredCorpus serves it through
/// a buffer pool, so the page format stays behind this interface.
/// Implementations are immutable: every method is safe to call from any
/// number of threads.
class QueryCorpus : public PostingsCorpus {
 public:
  [[nodiscard]] virtual const LinkageConfig& engine_config() const = 0;
  [[nodiscard]] virtual int64_t epoch() const = 0;
  /// The epoch TF-IDF statistics probes are vectorized against; its ids
  /// key the weighted postings.
  [[nodiscard]] virtual const Vocabulary& epoch_vocab() const = 0;
  /// epoch_vocab().IdfTable(), computed once per epoch: every probe is
  /// vectorized with it.
  [[nodiscard]] virtual std::span<const double> idf_table() const = 0;

 protected:
  // Implementations are owned and destroyed as themselves.
  ~QueryCorpus() = default;
};

/// An immutable, self-contained freeze of one serving epoch: the corpus
/// TF-IDF vectors and their weighted postings, the token inverted index,
/// group membership and labels, the link set, and the entity cluster
/// labels — everything LinkQuery needs, copied out of an IncrementalLinker
/// at a refresh point and never mutated again.
///
/// Concurrency contract: every method is const and touches only state
/// frozen at Capture() time, so any number of threads may query one
/// snapshot concurrently with no synchronization. Snapshots are published
/// through EpochCell<CorpusSnapshot> (common/epoch_cell.h); a retired
/// epoch stays alive until its last reader drops the shared_ptr, which is
/// the entire memory-reclamation story (DESIGN.md §11).
///
/// Query semantics: LinkQuery(G) answers "which corpus groups would G
/// link to" with the *exact* decision procedure of the streaming arrival
/// path under this epoch's frozen statistics — tokenize, vectorize
/// against the epoch vocabulary (unseen tokens drop out of the vector),
/// score accumulation over the weighted postings, then the shared
/// filter-and-refine ladder (DecideGraphLinked) per group with an edge;
/// the pipeline is RunLinkQuery over this snapshot's QueryCorpus. So a
/// query against the epoch-k snapshot returns bit-identically the links that
/// linker.Clone()->AddGroup(G) would have produced at the capture point —
/// and at a refresh point that equals a batch LinkageEngine run over the
/// epoch corpus plus G (tested in tests/core_snapshot_test.cc).
class CorpusSnapshot final : public QueryCorpus {
 public:
  /// Per-query admission control, mapped onto ExecutionContext: a
  /// deadline, a cooperative cancellation token, and work budgets. Zero
  /// means "no limit" for every knob (LinkageService overlays its
  /// configured defaults on zeros). A budget-tripped or deadline-tripped
  /// query returns a valid partial answer — linked_to is a subset of the
  /// unconstrained answer — with degraded == true.
  struct QueryOptions {
    double deadline_ms = 0.0;
    int64_t max_candidate_pairs = 0;
    int64_t max_matcher_cost = 0;
    CancellationToken cancellation;
  };

  /// Answer of one LinkQuery.
  struct QueryResult {
    /// Corpus groups the probe group links to (ascending group indexes).
    std::vector<int32_t> linked_to;
    /// Epoch this query was answered at (== snapshot epoch; lets callers
    /// assert monotone epochs across a service's refreshes).
    int64_t epoch = 0;
    /// Groups with at least one θ-edge that were decided (diagnostics).
    size_t candidates = 0;
    /// Weighted posting entries read by score accumulation (exact work
    /// counter, diagnostics).
    size_t postings_scanned = 0;
    /// Probe token occurrences unknown to the epoch vocabulary; they
    /// carry no TF-IDF weight until the next refresh absorbs them.
    size_t oov_tokens = 0;
    /// True when admission control shed work: linked_to may be missing
    /// links relative to the unconstrained query (never has extras).
    bool degraded = false;
  };

  /// Freezes `linker`'s current state into an immutable snapshot. The
  /// caller must guarantee the linker is quiescent for the duration of
  /// the call (LinkageService captures under its writer lock, or from the
  /// refresh clone that no other thread can reach). The returned pointer
  /// is independent of the linker — mutating or destroying the linker
  /// afterwards does not touch the snapshot.
  [[nodiscard]] static std::shared_ptr<const CorpusSnapshot> Capture(
      const IncrementalLinker& linker);

  CorpusSnapshot(const CorpusSnapshot&) = delete;
  CorpusSnapshot& operator=(const CorpusSnapshot&) = delete;

  /// Links `group` against the frozen corpus. Thread-safe (pure read).
  /// Empty record_texts is invalid (GL_CHECK). The options-free overload
  /// runs unconstrained (all admission-control knobs at "no limit").
  [[nodiscard]] QueryResult LinkQuery(const GroupArrival& group,
                                      const QueryOptions& options) const;
  [[nodiscard]] QueryResult LinkQuery(const GroupArrival& group) const {
    return LinkQuery(group, QueryOptions());
  }

  /// Epoch number this snapshot froze (== linker.epoch() at capture).
  int64_t epoch() const override { return epoch_; }
  /// All links over live groups, (i < j) pairs sorted lexicographically —
  /// at a refresh point, bit-identical to the batch engine's link set on
  /// the epoch corpus.
  const std::vector<std::pair<int32_t, int32_t>>& linked_pairs() const {
    return linked_pairs_;
  }
  /// Entity label per group slot (transitive closure of linked_pairs).
  const std::vector<size_t>& cluster_labels() const { return cluster_labels_; }
  const std::string& label(int32_t group) const {
    return group_labels_[static_cast<size_t>(group)];
  }
  bool IsAlive(int32_t group) const {
    return group >= 0 && group < num_groups() &&
           group_alive_[static_cast<size_t>(group)] != 0;
  }
  int32_t num_groups() const {
    return static_cast<int32_t>(group_records_.size());
  }
  int32_t num_alive_groups() const { return num_alive_groups_; }
  int32_t num_records() const {
    return static_cast<int32_t>(record_vectors_.size());
  }
  /// The normalized engine configuration this snapshot scores with (same
  /// contract as IncrementalLinker::engine_config).
  const LinkageConfig& engine_config() const override { return config_; }

  /// Structural self-check of the frozen state: the seal sentinel written
  /// as Capture's last step, cross-array size agreement, group and record
  /// ids in range, group membership agreeing with the record -> group map
  /// (every record with a vector listed once, by a live group), sorted
  /// (i < j) link pairs over live groups. Soak readers call this to prove
  /// no query ever observes a half-built epoch; any violation would mean
  /// the publication barrier broke. Cheap enough to run per query batch.
  [[nodiscard]] bool CheckConsistency() const;

  // --- Storage-tier surface (src/storage/). A snapshot is the unit of
  // --- persistence: SnapshotStore serializes these parts into the paged
  // --- store, and FromParts rebuilds a sealed snapshot on recovery.

  /// The deserialized pieces of one epoch. Field-for-field the snapshot's
  /// own frozen state, less the weighted postings, which FromParts
  /// rebuilds from record_vectors; SnapshotStore::Load fills one of these
  /// from disk.
  struct Parts {
    LinkageConfig config;
    int64_t epoch = 0;
    Vocabulary index_vocab;
    InvertedIndex token_index;
    Vocabulary epoch_vocab;
    std::vector<SparseVector> record_vectors;
    std::vector<int32_t> record_group;
    std::vector<std::vector<int32_t>> record_token_ids;
    std::vector<std::vector<int32_t>> group_records;
    std::vector<std::string> group_labels;
    std::vector<char> group_alive;
    int32_t num_alive_groups = 0;
    std::vector<std::pair<int32_t, int32_t>> linked_pairs;
    std::vector<size_t> cluster_labels;
  };

  /// Rebuilds a snapshot from recovered parts (the weighted postings by
  /// transposing the vectors, whose ids must lie in the epoch vocabulary),
  /// seals it, and runs CheckConsistency — a recovered epoch is either
  /// exactly as trustworthy as a captured one or rejected with
  /// Status::DataLoss. No half-built epoch can escape this factory
  /// (recovery-protocol invariant; see tests/storage_recovery_test.cc).
  [[nodiscard]] static Result<std::shared_ptr<const CorpusSnapshot>> FromParts(
      Parts parts);

  /// Read access to the frozen parts, for serialization and for the
  /// warm-restart writer rebuild (IncrementalLinker::FromSnapshot). The
  /// referenced state is immutable for the snapshot's lifetime.
  const Vocabulary& index_vocab() const { return index_vocab_; }
  const Vocabulary& epoch_vocab() const override { return epoch_vocab_; }
  std::span<const double> idf_table() const override { return idf_table_; }
  const InvertedIndex& token_index() const { return token_index_; }
  const std::vector<SparseVector>& record_vectors() const {
    return record_vectors_;
  }
  /// Weighted postings keyed by epoch token: the transpose of
  /// record_vectors().
  const WeightedPostings& postings() const { return postings_; }
  const std::vector<int32_t>& record_group() const override { return record_group_; }
  /// Per-record raw token occurrences (index-vocabulary ids, original
  /// order, repeats preserved) — what makes a snapshot self-contained
  /// enough to rebuild the writer without the original texts. Empty for
  /// tombstoned records, like the linker's cleared raw tokens.
  const std::vector<std::vector<int32_t>>& record_token_ids() const {
    return record_token_ids_;
  }
  const std::vector<std::vector<int32_t>>& group_records() const {
    return group_records_;
  }
  const std::vector<std::string>& group_labels() const { return group_labels_; }
  const std::vector<char>& group_alive() const { return group_alive_; }

  // QueryCorpus, served from the frozen postings in RAM (never fails).
  Status FetchPostings(std::span<const int32_t> tokens,
                       FetchedPostings* out) const override {
    postings_.Fetch(tokens, out);
    return Status::Ok();
  }
  const std::vector<int32_t>& GroupRecords(int32_t g) const override {
    return group_records_[static_cast<size_t>(g)];
  }

 private:
  CorpusSnapshot() = default;

  // All fields are written once inside Capture and frozen thereafter.
  LinkageConfig config_;
  int64_t epoch_ = 0;

  // Token index and the vocabulary of its id space: carried for
  // persistence and the warm-restart writer, not consulted by LinkQuery.
  Vocabulary index_vocab_;
  InvertedIndex token_index_;

  // Epoch TF-IDF statistics and their IDF column, the per-record vectors
  // under them, and their transpose that queries accumulate over.
  Vocabulary epoch_vocab_;
  std::vector<double> idf_table_;
  std::vector<SparseVector> record_vectors_;
  WeightedPostings postings_;
  std::vector<int32_t> record_group_;
  // Raw token occurrences per record in index-vocab id space (see the
  // record_token_ids() accessor); carried for persistence/warm restart,
  // not consulted by LinkQuery.
  std::vector<std::vector<int32_t>> record_token_ids_;

  // Group membership, identity, and liveness.
  std::vector<std::vector<int32_t>> group_records_;
  std::vector<std::string> group_labels_;
  std::vector<char> group_alive_;
  int32_t num_alive_groups_ = 0;

  std::vector<std::pair<int32_t, int32_t>> linked_pairs_;
  std::vector<size_t> cluster_labels_;

  // Written as the very last step of Capture; every query GL_CHECKs it.
  // A reader that could ever observe a partially built snapshot would
  // see the zero-initialized value here, not the magic.
  uint64_t seal_ = 0;
  static constexpr uint64_t kSealed = 0x5ea1ed5ea1ed5eaULL;
};

/// The one link-query pipeline, over either QueryCorpus implementation:
/// tokenize the probe, vectorize it against the epoch vocabulary, then
/// AccumulateAndDecide over the corpus's weighted postings (corpus group
/// left, probe right) under an admission context built from `options`.
/// Fails only when `corpus` fails to read. Empty record_texts is invalid
/// (GL_CHECK).
[[nodiscard]] Result<CorpusSnapshot::QueryResult> RunLinkQuery(
    const QueryCorpus& corpus, const GroupArrival& group,
    const CorpusSnapshot::QueryOptions& options);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_SNAPSHOT_H_
