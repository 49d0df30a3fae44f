#ifndef GROUPLINK_CORE_LINKAGE_ENGINE_H_
#define GROUPLINK_CORE_LINKAGE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/filter_refine.h"
#include "core/group.h"
#include "core/group_measures.h"
#include "core/run_report.h"
#include "core/scored_pair.h"
#include "index/blocking.h"
#include "index/candidates.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"

namespace grouplink {

/// How candidate group pairs are generated before scoring.
enum class CandidateMethod {
  kAllPairs,       // Every group pair (quadratic; baseline).
  kRecordJoin,     // Prefix-filter Jaccard join over record token sets.
  kBlocking,       // Blocker over record texts (see LinkageConfig::blocking).
  kLabelBlocking,  // Blocker over group labels (names / addresses).
  kSortedNeighborhood,  // Sliding window over sort-ordered group labels.
  kMinHash,        // MinHash/LSH join over record token sets.
};

const char* CandidateMethodName(CandidateMethod method);

/// How record texts are turned into the token/vector representation that
/// the default similarity, the joins, and the TF-IDF weighting all use.
enum class RecordRepresentation {
  kWordTokens,      // Word tokens — the default; fast, readable.
  kCharacterQGrams, // Padded character 3-grams — heavier but robust to
                    // typos that mangle whole words (ablation E16).
};

const char* RecordRepresentationName(RecordRepresentation representation);

/// End-to-end configuration of a group linkage run.
struct LinkageConfig {
  /// Record-level edge threshold θ. Calibrated for the default TF-IDF
  /// cosine record similarity: dirty copies of one record usually score
  /// 0.5-0.9, unrelated records below 0.3.
  double theta = 0.4;
  /// Group-level link threshold Θ.
  double group_threshold = 0.25;
  /// Group measure used for link decisions.
  GroupMeasureKind measure = GroupMeasureKind::kBm;
  /// Text representation behind the default record similarity and joins.
  RecordRepresentation representation = RecordRepresentation::kWordTokens;
  /// Edge threshold used *only* by the kBinaryJaccard baseline: records
  /// count as "the same element" when sim >= binary_cutoff. The classical
  /// Jaccard baseline demands near-identical records, which is exactly why
  /// it collapses under noise while BM degrades gracefully.
  double binary_cutoff = 0.9;
  /// Candidate generation strategy.
  CandidateMethod candidates = CandidateMethod::kRecordJoin;
  /// Record-token Jaccard threshold of the kRecordJoin prefix filter.
  /// Keep well below θ: the TF-IDF cosine used for edges is usually
  /// higher than plain token Jaccard, so a loose join keeps recall.
  double candidate_jaccard = 0.2;
  /// Blocking scheme of kBlocking.
  BlockingScheme blocking = BlockingScheme::kToken;
  /// Window size of kSortedNeighborhood.
  int32_t neighborhood_window = 10;
  /// LSH shape of kMinHash: bands x rows signature banding. Defaults give
  /// the S-curve midpoint near Jaccard 0.25 (1/16)^(1/2).
  int32_t minhash_bands = 16;
  int32_t minhash_rows = 2;
  /// Use the filter-and-refine pipeline when measure == kBm. Off, every
  /// strategy decides BM >= Θ exactly (both bound switches read as off).
  bool use_filter_refine = true;
  /// Individual bound switches (ablations; both on by default).
  bool use_upper_bound_filter = true;
  bool use_lower_bound_accept = true;
  /// Use the global edge-join strategy instead of per-group-pair graph
  /// construction (kBm with the default similarity; Run(sim) always
  /// scores per pair). Scales far better: an exact self-join over the
  /// weighted postings sums each record pair sharing a token once, so
  /// only group pairs with a θ-edge are ever built and decided, and
  /// `candidates` is not used. The links equal the per-pair pipeline's
  /// over any candidate method that covers every group pair with an
  /// edge (see core/edge_join.h).
  bool use_edge_join = false;
  /// Worker threads (1 = serial). Honored by *both* strategies and by
  /// Create: the per-pair pipeline scores candidate group pairs in
  /// parallel, the edge-join strategy shards its accumulation join and
  /// scores buckets in parallel, and Create tokenizes + TF-IDF-vectorizes
  /// records in parallel. Results are bit-identical to the serial run in
  /// every case.
  int32_t num_threads = 1;

  /// Resilience controls (all off by default; see DESIGN.md §8).
  /// Wall-clock deadline of one Run() call, in milliseconds (<= 0 = no
  /// deadline). The clock starts when Run is entered — Create is not
  /// covered. On expiry the run stops within one task quantum and returns
  /// a valid partial result whose links are a subset of the unconstrained
  /// run's, with report().degraded == true.
  double deadline_ms = 0.0;
  /// Cap on candidate group pairs (per-pair strategy) or edge buckets
  /// (edge join) scored exactly. Excess pairs are shed deterministically
  /// — by upper-bound score for BM, by list prefix for baseline measures.
  /// 0 = unlimited.
  int64_t max_candidate_pairs = 0;
  /// Per-pair matcher budget: pairs whose cost |g1|*|g2| exceeds this are
  /// decided from the sound bounds instead of running the Hungarian
  /// matcher. 0 = unlimited.
  int64_t max_matcher_cost = 0;
  /// Cooperative cancellation: Cancel() from any thread makes Run stop
  /// within one task quantum and return a valid partial result.
  CancellationToken cancellation;

  /// Checks every field for consistency: thresholds finite and in range,
  /// positive window/band/row/thread counts, non-negative deadline and
  /// budgets. Create() calls this; call it directly to fail fast when
  /// configs come from user input.
  Status Validate() const;

  /// The filter-and-refine ladder every strategy decides pairs with: θ, Θ
  /// and each bound switch ANDed with use_filter_refine.
  FilterRefineConfig Ladder() const {
    return {theta, group_threshold, use_filter_refine && use_upper_bound_filter,
            use_filter_refine && use_lower_bound_accept};
  }
};

/// Output of LinkageEngine::Run.
class LinkageResult {
 public:
  /// Linked group pairs (i < j), the paper's primary output.
  std::vector<std::pair<int32_t, int32_t>> linked_pairs;
  /// Transitive closure of linked_pairs: one entity label per group.
  std::vector<size_t> group_cluster;
  /// Number of entity clusters.
  size_t num_clusters = 0;

  /// All run statistics — per-stage wall times and counters — behind one
  /// struct with one ToJson(). See core/run_report.h. (The pre-report
  /// accessor sprawl — candidate_stats / score_stats / edge_join_stats /
  /// seconds_* — is gone; read report().StageCounter(stage, name) and
  /// report().StageSeconds(stage) directly.)
  const RunReport& report() const { return report_; }
  RunReport& mutable_report() { return report_; }

 private:
  RunReport report_;
};

/// Runs group linkage end to end:
///   1. Prepare: tokenize record texts, build the corpus Vocabulary,
///      vectorize every record with TF-IDF.
///   2. Candidates: generate candidate group pairs (blocking / join).
///   3. Score: decide each candidate with the configured measure — for BM
///      through the filter-and-refine pipeline.
///   4. Cluster: union-find over linked pairs -> entity labels.
///
/// With LinkageConfig::num_threads > 1 the engine owns a ThreadPool that
/// Create and Run share; both evaluation strategies (per-pair
/// filter-refine and the edge join) honor it and produce output identical
/// to the serial run.
///
/// The default record similarity is TF-IDF cosine over word tokens of
/// Record::text. Pass a custom RecordSimFn to Run to override (e.g. the
/// field-weighted RecordSimilarity from text/record_similarity.h).
///
/// Example:
///   GL_ASSIGN_OR_RETURN(LinkageEngine engine,
///                       LinkageEngine::Create(&dataset, config));
///   LinkageResult result = engine.Run();
class LinkageEngine {
 public:
  /// Single-phase init: validates `config` and the dataset, precomputes
  /// token sets and TF-IDF vectors, and returns an engine that is ready
  /// to Run. `dataset` must outlive the engine and is not modified. This
  /// is the only way to obtain an engine.
  [[nodiscard]] static Result<LinkageEngine> Create(const Dataset* dataset,
                                                    const LinkageConfig& config);

  /// Runs candidate generation, scoring, and clustering. Scoring goes
  /// through the batched scatter-dot kernel over the records' TF-IDF
  /// vectors, which is bitwise-equal to DefaultRecordSimilarity per pair —
  /// same links as the per-call path, at every dispatch tier and thread
  /// count. With
  /// use_edge_join the run transposes the vectors into weighted postings
  /// and runs the accumulation join over them instead.
  LinkageResult Run();

  /// As Run, with a caller-supplied record similarity, scored per pair
  /// over the configured candidates: the batched kernels and the edge
  /// join's postings only compute the default similarity, so this
  /// overload never takes the edge join.
  LinkageResult Run(const RecordSimFn& sim);

  /// Default record similarity: TF-IDF cosine of the two records' texts
  /// (the vectors are unit-length, so this is their dot product).
  double DefaultRecordSimilarity(int32_t a, int32_t b) const;

  /// Scores every candidate group pair with `measure` *without*
  /// thresholding at the group level (θ still gates edges; pairs whose
  /// similarity graph is empty are omitted — their score is 0). Feed the
  /// result to eval/sweep.h to evaluate many Θ settings from one scoring
  /// pass. Uses the configured candidate method and the default record
  /// similarity.
  std::vector<ScoredPair> ScoreCandidates(GroupMeasureKind measure);

  const LinkageConfig& config() const { return config_; }

 private:
  LinkageEngine(const Dataset* dataset, const LinkageConfig& config);
  /// Validates the dataset and config, then precomputes token sets and
  /// TF-IDF vectors (Create's second half).
  Status Prepare();
  /// Shared implementation of both Run overloads. `vectors` is
  /// record_vectors_ for the default similarity (batched scoring), null
  /// for a caller-supplied sim (per-pair scoring through `sim`).
  LinkageResult RunInternal(const RecordSimFn& sim,
                            const std::vector<SparseVector>* vectors);
  /// Candidate group pairs of the configured method; `record_pairs`
  /// (nullable) receives the record-level pairs a record join inspected.
  std::vector<std::pair<int32_t, int32_t>> GenerateCandidates(size_t* record_pairs);
  void FinishClustering(LinkageResult& result) const;
  void FillRunFacts(bool edge_join, RunReport& report) const;
  /// The engine's worker pool (null when num_threads <= 1); created once,
  /// shared by Prepare and Run.
  ThreadPool* pool();

  const Dataset* dataset_;
  LinkageConfig config_;
  double prepare_seconds_ = 0.0;
  std::unique_ptr<ThreadPool> pool_;

  Vocabulary vocabulary_;
  std::vector<std::vector<int32_t>> record_token_ids_;  // Sorted-unique per record.
  std::vector<SparseVector> record_vectors_;
  std::vector<int32_t> record_group_;
};

/// Convenience wrapper: prepare + run with defaults.
[[nodiscard]] Result<LinkageResult> RunGroupLinkage(const Dataset& dataset,
                                      const LinkageConfig& config);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_LINKAGE_ENGINE_H_
