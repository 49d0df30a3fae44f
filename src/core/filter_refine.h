#ifndef GROUPLINK_CORE_FILTER_REFINE_H_
#define GROUPLINK_CORE_FILTER_REFINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/thread_pool.h"
#include "core/group_measures.h"
#include "core/run_report.h"

namespace grouplink {

/// Configuration of the two-phase BM evaluation.
struct FilterRefineConfig {
  /// Record-level edge threshold θ (must be > 0).
  double theta = 0.7;
  /// Group-level link threshold Θ.
  double group_threshold = 0.4;
  /// Prune candidates with UB < Θ before computing exact BM.
  bool use_upper_bound_filter = true;
  /// Accept candidates with LB >= Θ without computing exact BM.
  bool use_lower_bound_accept = true;
};

/// Decides, for each candidate group pair, whether BM_θ >= Θ, using the
/// filter-and-refine strategy. With sound bounds (the default) the output
/// is *identical* to evaluating exact BM on every candidate — that
/// equivalence is covered by an integration test — while the Hungarian
/// algorithm only runs on the small fraction of pairs where the bounds
/// disagree.
///
/// Returns the linked pairs (subset of `candidates`, same order).
///
/// The run writes its counters into `stage` (the engine passes its score
/// stage; null keeps them local): `candidates`, `empty_graphs`, then the
/// rung counters of AddRungCounters, plus the `graphs` / `bounds` /
/// `refine` timings. Every call also mirrors the counters into the
/// registry's filter_refine.*.
///
/// With a non-null `pool`, candidates are scored in parallel (`sim` must
/// then be thread-safe — the engine's default TF-IDF cosine is, being a
/// pure read of precomputed vectors). The output and counters are
/// identical to the serial run; the timings are only populated serially
/// and stay 0 otherwise.
///
/// With a non-null `ctx`, the run degrades instead of running unbounded:
/// a candidate budget keeps only the top pairs by upper-bound score
/// (deterministic — depends on the pairs alone, not timing), the matcher
/// budget swaps Hungarian for the sound bounds-only fallback on oversized
/// pairs, and a deadline/cancellation trip sheds the remaining pairs.
/// Every degraded decision can only *remove* links relative to the
/// unconstrained run, so the output is always a subset of it.
///
/// With non-null `vectors` (the engine passes its records' TF-IDF vectors
/// when `sim` is the default similarity), similarity graphs are built by
/// BuildSimilarityGraphBatched (one scatter per left record, one
/// scatter-dot gather per right record) and a sorted-set-intersection
/// precheck on the groups' token unions classifies zero-overlap pairs as
/// empty graphs without scoring a single record pair. Both are exact for
/// the default sim — decisions, counters, and links are identical to the
/// `sim`-driven path bit for bit. Callers overriding `sim` must pass
/// vectors = nullptr.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> FilterRefineLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, StageStats* stage = nullptr,
    ThreadPool* pool = nullptr, ExecutionContext* ctx = nullptr,
    const std::vector<SparseVector>* vectors = nullptr);

/// The rung of the filter-and-refine ladder that decided one candidate
/// pair. kSkipped is the default of a preallocated slot, so a pair a stop
/// request kept from being scored stays well defined; kShedByCap marks a
/// pair the candidate cap dropped before scoring. DecideGraphRung returns
/// every other rung.
enum class LinkRung : uint8_t {
  kSkipped = 0,
  kShedByCap,
  kEmptyGraph,
  kPrunedByUpperBound,
  kAcceptedByLowerBound,
  kRefinedLink,
  kRefinedNoLink,
  kDegradedLink,
  kDegradedNoLink,
};

/// Whether a pair decided at `rung` links.
constexpr bool RungLinks(LinkRung rung) {
  return rung == LinkRung::kAcceptedByLowerBound ||
         rung == LinkRung::kRefinedLink || rung == LinkRung::kDegradedLink;
}

/// Writes the rung counters of one batch run's decided pairs into
/// `stage`: `ub_pruned`, `lb_accepted`, `refined` and `linked`, then
/// `shed_candidates`, `degraded_refines` and `skipped` only when non-zero
/// (a clean run's stage keeps the classic key set). Empty graphs are left
/// to the caller: the edge join never builds one.
void AddRungCounters(const std::vector<LinkRung>& rungs, StageStats* stage);

/// The candidate cap of the batch strategies: keeps the `cap` pairs with
/// the highest upper-bound score `ub` (ties to the lower index) and
/// returns per-pair keep flags. Deterministic: it depends on the scores
/// alone, never on timing or thread count.
[[nodiscard]] std::vector<char> KeepHighestUpperBounds(const std::vector<double>& ub,
                                                       size_t cap);

/// The one link decision of the system, on a prebuilt θ-thresholded
/// similarity graph: empty graph -> no link, UB < Θ -> prune, LB >= Θ ->
/// accept, matcher budget trip -> decide from the sound LB (a degraded
/// rung), otherwise exact BM >= Θ. Every entry point decides through it:
/// the batch per-pair pipeline (FilterRefineLink), the edge join's bucket
/// scoring, the streaming arrival path and the link-query pipeline.
///
/// `size_left` / `size_right` are the group sizes |g1| / |g2| (the graph
/// only has cross edges, so isolated records are invisible to it). With
/// a non-null `stage`, the time spent in the bounds and in the refine
/// step is added to its `bounds` / `refine` timings; with a null one no
/// clock is read. The caller records a degraded rung on its context.
[[nodiscard]] LinkRung DecideGraphRung(const BipartiteGraph& graph,
                                       int32_t size_left, int32_t size_right,
                                       const FilterRefineConfig& config,
                                       const ExecutionContext* ctx = nullptr,
                                       StageStats* stage = nullptr);

/// RungLinks(DecideGraphRung(...)), marking `ctx` degraded when the
/// matcher budget decided the pair.
[[nodiscard]] bool DecideGraphLinked(const BipartiteGraph& graph,
                                     int32_t size_left, int32_t size_right,
                                     const FilterRefineConfig& config,
                                     const ExecutionContext* ctx = nullptr);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_FILTER_REFINE_H_
