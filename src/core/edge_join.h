#ifndef GROUPLINK_CORE_EDGE_JOIN_H_
#define GROUPLINK_CORE_EDGE_JOIN_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/accumulate.h"
#include "core/filter_refine.h"
#include "core/run_report.h"
#include "text/tfidf.h"

namespace grouplink {

/// The scalable evaluation strategy of the paper, built on a global
/// record self-join instead of per-group-pair similarity matrices:
///
///   1. Join: AccumulateSelfJoin (core/accumulate.h) finds every
///      cross-group record pair with cosine >= θ exactly once, by score
///      accumulation over the corpus's weighted postings.
///   2. Bucket: the edges are grouped by their (group, group) pair. Group
///      pairs with no edge have BM = 0 and are never touched — the whole
///      quadratic group-pair space is skipped.
///   3. Score: per bucket, the bipartite graph is assembled from the edge
///      list, the UB/LB bounds decide most pairs, and the Hungarian
///      algorithm refines the residue (DecideGraphRung).
///
/// The join is exact: each bucket's graph is the |g1| × |g2| cosine
/// matrix's θ-graph edge for edge and bit for bit, so the links equal the
/// per-pair pipeline's over any candidate set that covers every group
/// pair with an edge. `ladder` decides each bucket (θ is the edge
/// threshold, Θ the link threshold). `corpus` is the batch engine's
/// postings, transposed for the run, or the streaming linker's live ones
/// in Refresh; `vectors` holds every record's TF-IDF vector, indexed like
/// corpus.record_group().
///
/// The run appends its stages to `report` (null keeps them local): the
/// join and bucket stages of AccumulateSelfJoin, then
///   score:  group_pairs, then the rung counters of AddRungCounters.
/// Every call also mirrors the thread-invariant counters into the
/// registry's edge_join.* (threads_used stays in the report).
///
/// Parallel execution: with a non-null `pool`, the join shards records
/// across the workers into per-shard edge buffers merged in shard order,
/// and the score stage decides buckets with ParallelFor into
/// preallocated rung slots. Every output (linked pairs, edges, buckets,
/// counters) is bit-identical across thread counts and scheduling orders.
///
/// With a non-null `ctx`, the stages poll for deadline or cancellation and
/// degrade instead of running unbounded: the join drops the buckets of
/// groups it could not finish, a candidate cap keeps the buckets with the
/// highest upper bounds, and the matcher budget falls back to the bounds.
/// Every degraded decision only removes links, so the output is a subset
/// of the unconstrained run's (see DESIGN.md §8). Fails only when a
/// corpus read fails (never for in-RAM postings).
[[nodiscard]] Result<std::vector<std::pair<int32_t, int32_t>>> EdgeJoinLink(
    const PostingsCorpus& corpus, std::span<const SparseVector> vectors,
    const FilterRefineConfig& ladder, RunReport* report = nullptr,
    ThreadPool* pool = nullptr, ExecutionContext* ctx = nullptr);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_EDGE_JOIN_H_
