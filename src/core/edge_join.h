#ifndef GROUPLINK_CORE_EDGE_JOIN_H_
#define GROUPLINK_CORE_EDGE_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/thread_pool.h"
#include "core/filter_refine.h"
#include "core/group_measures.h"
#include "core/run_report.h"

namespace grouplink {

class VectorStore;

/// The scalable evaluation strategy of the paper, built on a global
/// set-similarity join instead of per-group-pair similarity matrices:
///
///   1. Join: a prefix-filter self-join over record token sets yields
///      candidate record pairs; each is verified once with `sim`, keeping
///      pairs with sim >= θ as weighted edges.
///   2. Bucket: edges are grouped by their (group, group) pair. Group
///      pairs with no edge have BM = 0 and are never touched — the whole
///      quadratic group-pair space is skipped.
///   3. Score: per bucket, the bipartite graph is assembled from the edge
///      list, the UB/LB bounds decide most pairs, and the Hungarian
///      algorithm refines the residue.
///
/// Total record-similarity evaluations: O(join candidates), instead of
/// O(Σ |g1|·|g2|) over candidate group pairs for the per-pair pipeline.
///
/// `ladder` decides each bucket (θ is the edge threshold, Θ the link
/// threshold). `join_jaccard` is the token-Jaccard threshold of the
/// record-pair prefix-filter join that generates edge *candidates*: lower
/// means more candidates verified and more recall of true edges; 0.1-0.2
/// is near-lossless in practice.
///
/// The run appends its stages to `report` (null keeps them local):
///   join:   record_candidates (record pairs the prefix filter produced),
///           edges (verified cross-group edges, sim >= θ), threads_used,
///           probes_skipped (only when a stop shed probes),
///           verify_batches (batched-verify flushes; 0 for a custom sim),
///           and the `verify` timing;
///   bucket: group_pairs (group pairs with at least one edge; all others
///           score 0);
///   score:  group_pairs, then the rung counters of AddRungCounters.
/// The join stage's wall time covers the whole join+verify stage. With a
/// VectorStore the `verify` timing is the time the shard workers spent
/// inside batched scoring, summed across workers — CPU-seconds, so it can
/// exceed the stage wall time on multi-thread runs; with a custom sim
/// verification is folded into the join and `verify` stays 0. Every call
/// also mirrors the thread-invariant counters into the registry's
/// edge_join.* (threads_used and verify_batches stay in the report).
///
/// Parallel execution: with a non-null `pool`, stage 1+2 shard probe
/// documents into contiguous ranges, each worker verifying candidates
/// inline against the (thread-safe) `sim` into a per-shard edge buffer;
/// buffers are merged in shard order — which reproduces the serial
/// emission order exactly — before bucketing, and stage 3 scores buckets
/// with ParallelFor into preallocated decision slots. Every output
/// (linked pairs, edges, buckets, counters) is therefore bit-identical
/// across thread counts and scheduling orders; the invariant is covered
/// by unit tests and benchmark E5.
///
/// Caveat (documented approximation): an edge whose token Jaccard falls
/// below `join_jaccard` is invisible to the join even if sim >= θ, so the
/// result can differ from exhaustive evaluation when the join threshold
/// is set aggressively. Benchmark E5 verifies the agreement empirically.
///
/// `record_tokens` holds each record's sorted-unique token ids over a
/// dense id space of size `num_tokens`; `record_group` maps records to
/// group indexes.
/// With a non-null `ctx`, the join/score stages poll for deadline or
/// cancellation and degrade instead of running unbounded: shed probes,
/// a UB-ordered bucket cap, and a bounds-only matcher fallback — every
/// degraded decision only removes links, so the output is a subset of
/// the unconstrained run's (see DESIGN.md §8).
///
/// With a non-null `store` (the engine passes its VectorStore when `sim`
/// is the default TF-IDF similarity), candidate verification runs in
/// batches through VectorStore::Scores instead of one `sim` call per
/// pair: each shard accumulates the candidates of the current probe into
/// a flat SoA buffer and flushes it through the dispatched scatter-dot
/// kernel. Scores is bitwise-equal to the default sim for every pair at
/// every SIMD tier, and edges are appended in candidate order, so links,
/// edges, and counters are identical to the per-pair path — only faster.
/// Callers overriding `sim` must pass store = nullptr.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> EdgeJoinLink(
    const Dataset& dataset, const std::vector<std::vector<int32_t>>& record_tokens,
    int32_t num_tokens, const std::vector<int32_t>& record_group,
    const RecordSimFn& sim, const FilterRefineConfig& ladder, double join_jaccard,
    RunReport* report = nullptr, ThreadPool* pool = nullptr,
    ExecutionContext* ctx = nullptr, const VectorStore* store = nullptr);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_EDGE_JOIN_H_
