#ifndef GROUPLINK_CORE_ACCUMULATE_H_
#define GROUPLINK_CORE_ACCUMULATE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/filter_refine.h"
#include "core/run_report.h"
#include "index/weighted_postings.h"
#include "matching/bipartite_graph.h"
#include "text/tfidf.h"

namespace grouplink {

/// The reads score accumulation makes of a corpus: the weighted postings
/// of a token set, the record -> group map that buckets them, and group
/// membership. CorpusSnapshot serves them from RAM, storage::StoredCorpus
/// through its buffer pool, and InMemoryPostings from the postings the
/// streaming linker maintains or the batch engine builds for a run.
/// Implementations are safe to read from any number of threads while
/// nothing mutates them.
class PostingsCorpus {
 public:
  /// Fetches the weighted postings of `tokens` — epoch token ids,
  /// ascending and distinct — into out->lists, one per token in order:
  /// each ascending by record id, every id below record_group().size().
  /// A corpus in RAM points the lists at its own memory; a paged corpus
  /// reads them in store order and decodes them into out->decoded. Valid
  /// until the next fetch into `out`.
  [[nodiscard]] virtual Status FetchPostings(std::span<const int32_t> tokens,
                                             FetchedPostings* out) const = 0;
  /// Group of every record id.
  [[nodiscard]] virtual const std::vector<int32_t>& record_group() const = 0;
  /// Record ids of group `g`.
  [[nodiscard]] virtual const std::vector<int32_t>& GroupRecords(int32_t g) const = 0;

 protected:
  // Implementations are owned and destroyed as themselves.
  ~PostingsCorpus() = default;
};

/// A PostingsCorpus over postings and membership held in RAM by the
/// caller, which must outlive it and not mutate them while it is read.
class InMemoryPostings final : public PostingsCorpus {
 public:
  InMemoryPostings(const WeightedPostings& postings, const std::vector<int32_t>& record_group,
                   const std::vector<std::vector<int32_t>>& group_records)
      : postings_(postings), record_group_(record_group), group_records_(group_records) {}

  Status FetchPostings(std::span<const int32_t> tokens,
                       FetchedPostings* out) const override {
    postings_.Fetch(tokens, out);
    return Status::Ok();
  }
  const std::vector<int32_t>& record_group() const override { return record_group_; }
  const std::vector<int32_t>& GroupRecords(int32_t g) const override {
    return group_records_[static_cast<size_t>(g)];
  }

 private:
  const WeightedPostings& postings_;
  const std::vector<int32_t>& record_group_;
  const std::vector<std::vector<int32_t>>& group_records_;
};

/// Where a probe sits relative to the corpus it is accumulated against.
struct ProbePlacement {
  static constexpr int32_t kNone = std::numeric_limits<int32_t>::max();

  /// The probe's own group index. A corpus group below it is the left side
  /// of its θ-graph and the probe the right (the arrival orientation); a
  /// group above it — only a merge target has later groups — is the right
  /// side; the group itself is skipped. kNone: the probe is not part of
  /// the corpus (a link query).
  int32_t group = kNone;
  /// Only records with a smaller id are accumulated: an arrival's first
  /// record, so an arrival scores the corpus and earlier arrivals only.
  /// kNone: every record.
  int32_t record_cutoff = kNone;
};

/// One corpus group's θ-graph against the probe.
struct GroupGraph {
  int32_t group = 0;
  BipartiteGraph graph;
};

/// Score accumulation over weighted postings. The postings of the probe's
/// distinct tokens are fetched once, in ascending token id (a paged corpus
/// reads each list once per call, in store order). For each probe record
/// it then walks the record's vector in ascending token id and adds
/// w_r · w_p over that token's postings, so every touched record r ends
/// with exactly PrenormalizedCosineSimilarity(vector_r, probe record): the
/// same ascending-id sum from 0.0, with no fused multiply-add (this
/// translation unit carries no ISA target). The records with a sum ≥
/// `theta` are the edges. The self-join below runs the same kernel.
///
/// Returns the θ-graph of every group with at least one edge, ascending by
/// group. Each graph is edge for edge the one the full |g| × |probe|
/// cosine matrix builds: the orientation of `placement`, edges in
/// (left position, right position) order, the same weight bits. A group
/// with no edge gets no graph; it could never link, because Θ > 0. Adds
/// the posting entries read to `*postings_scanned`. Fails when a corpus
/// read fails, and with DataLoss when a posting names a record its group
/// does not list.
///
/// With a non-null `ctx` it polls for a stop before each probe record (the
/// first poll comes before the fetch). A stop sets `*stopped` to true and
/// returns no graph: the records left out could add edges to any of them.
/// The entries read by the records accumulated before the stop stay in
/// *postings_scanned. `stopped` may be null when `ctx` is.
[[nodiscard]] Result<std::vector<GroupGraph>> AccumulateGraphs(
    const PostingsCorpus& corpus, std::span<const SparseVector> probe,
    ProbePlacement placement, double theta, const ExecutionContext* ctx,
    size_t* postings_scanned, bool* stopped);

/// Outcome of one AccumulateAndDecide.
struct AccumulateOutcome {
  /// Groups the probe links to, ascending.
  std::vector<int32_t> linked;
  /// Groups with an edge that were kept for deciding (after the cap).
  size_t candidates = 0;
  /// Posting entries read (exact, independent of thread count).
  size_t postings_scanned = 0;
  /// True when `ctx` shed work: the candidate cap truncated the groups,
  /// or a stop request came before a probe record or before a decision.
  bool degraded = false;
};

/// The one accumulate-and-decide of the link query, the arrival and the
/// merge paths. Runs AccumulateGraphs under `ctx`, keeps the first
/// ctx->EffectiveCandidateCap groups with an edge, and decides each graph
/// through DecideGraphLinked under `ladder`, polling ctx before each one.
/// A stop during accumulation decides no graph, because each may lack a
/// probe record's edges and BM is not monotone in the edge set: the
/// outcome is degraded, with no links. A null `ctx` runs unconstrained. A
/// degraded outcome only ever misses links; it never has extras.
[[nodiscard]] Result<AccumulateOutcome> AccumulateAndDecide(
    const PostingsCorpus& corpus, std::span<const SparseVector> probe,
    ProbePlacement placement, const FilterRefineConfig& ladder,
    const ExecutionContext* ctx);

/// One θ-edge of a self-join, tagged with its bucket: the group pair
/// (g1 < g2) packed as g1 << 32 | g2, g1's record position on the left
/// and g2's on the right.
struct JoinEdge {
  uint64_t groups = 0;
  int32_t left = 0;
  int32_t right = 0;
  double weight = 0.0;
};

/// The θ-edges of a self-join, bucketed by group pair.
struct JoinBuckets {
  struct Bucket {
    int32_t g1 = 0;
    int32_t g2 = 0;
    int32_t size1 = 0;  // |g1|
    int32_t size2 = 0;  // |g2|
    size_t begin = 0;   // The bucket's edges are edges[begin, end).
    size_t end = 0;
  };
  /// Group pairs with at least one edge, ascending by (g1, g2).
  std::vector<Bucket> buckets;
  /// Each bucket's edges in (left position, right position) order.
  std::vector<JoinEdge> edges;

  /// Bucket `i`'s θ-graph: edge for edge, in order and bit for bit, the
  /// graph the |g1| × |g2| cosine matrix builds (BuildSimilarityGraph).
  [[nodiscard]] BipartiteGraph Graph(size_t i) const;
};

/// The exact θ-edge self-join of a corpus over its weighted postings:
/// every cross-group record pair with cosine ≥ `theta`, found once. Record
/// r accumulates `vectors[r]` against the postings of the records below r
/// (AccumulateGraphs' loop under the record cutoff r), so each pair is
/// summed by its higher record, with PrenormalizedCosineSimilarity's bits.
/// `vectors` holds every record's vector, indexed like record_group().
///
/// Records are split into contiguous shards, a few per pool worker to
/// absorb skew (later records scan longer lists); each shard collects its
/// edges in its own buffer, and the buffers are concatenated in shard
/// order and sorted by (bucket, left, right) — a total order, so the
/// output is bit-identical at any thread count.
///
/// With a non-null `ctx` the join polls for a stop before every record
/// and honours the thread_pool fault points per shard. A record it skips
/// may have an edge in any bucket of its group, so every bucket of a
/// group with a skipped record is dropped: each bucket returned holds its
/// complete graph, and a degraded join only ever loses buckets.
///
/// Writes the `join` stage (record_candidates: record pairs sharing a
/// weighted token; edges; postings_scanned; threads_used; probes_skipped
/// when records were skipped; the `verify` timing: accumulation time
/// summed over shards, CPU-seconds) and the `bucket` stage (group_pairs)
/// into `*report`, and mirrors the thread-invariant join counters into the
/// registry's edge_join.*. Fails when a corpus read fails, and with
/// DataLoss when a posting names a record its group does not list.
///
/// Replaces the contents of `*joined` but keeps its buffers' capacity, so
/// a caller that joins again with the same JoinBuckets (EdgeJoinLink keeps
/// one per thread) allocates neither buffer once it is warm.
[[nodiscard]] Status AccumulateSelfJoin(const PostingsCorpus& corpus,
                                        std::span<const SparseVector> vectors, double theta,
                                        ThreadPool* pool, ExecutionContext* ctx,
                                        RunReport* report, JoinBuckets* joined);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_ACCUMULATE_H_
