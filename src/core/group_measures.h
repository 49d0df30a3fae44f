#ifndef GROUPLINK_CORE_GROUP_MEASURES_H_
#define GROUPLINK_CORE_GROUP_MEASURES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/group.h"
#include "matching/bipartite_graph.h"
#include "text/tfidf.h"

namespace grouplink {

class ExecutionContext;

/// Record-level similarity callback over record indexes of a Dataset.
/// Must be symmetric and return values in [0, 1].
using RecordSimFn = std::function<double(int32_t, int32_t)>;

/// Builds the θ-thresholded similarity bipartite graph between the records
/// of groups `g1` (left side) and `g2` (right side): an edge of weight
/// sim(r, s) for every cross pair with sim(r, s) >= theta. Requires
/// theta > 0 so that all edge weights are strictly positive.
BipartiteGraph BuildSimilarityGraph(const Dataset& dataset, int32_t g1, int32_t g2,
                                    const RecordSimFn& sim, double theta);

/// Batched counterpart of BuildSimilarityGraph for the default TF-IDF
/// similarity over `vectors`, the records' unit vectors indexed by record
/// id: each left record is scattered once into the dense `scratch`, every
/// right record is one ScatterDot gather against it (the dispatched
/// kernel), and the scattered slots are zeroed again. ScatterDot is
/// bitwise-equal to PrenormalizedCosineSimilarity and edges are added in
/// the same (i, j) order, so the graph — and every measure computed from
/// it — is identical to BuildSimilarityGraph over the default sim at every
/// SIMD tier. `scratch` must be all +0.0 on entry and is again on return;
/// it grows to the largest token id it meets, so one per worker serves
/// every call.
BipartiteGraph BuildSimilarityGraphBatched(const Dataset& dataset, int32_t g1,
                                           int32_t g2,
                                           const std::vector<SparseVector>& vectors,
                                           std::vector<double>& scratch,
                                           double theta);

/// A group-level similarity score together with the matching statistics
/// that produced it.
struct GroupScore {
  /// Normalized score in [0, 1].
  double value = 0.0;
  /// Total weight of the underlying matching.
  double matching_weight = 0.0;
  /// Cardinality of the underlying matching.
  int32_t matching_size = 0;
};

/// Normalizes a matching (weight W, size k) between groups of sizes L and
/// R: W / (L + R − k). This is the common shape of every BM-family
/// measure; with binary weights it is exactly Jaccard.
[[nodiscard]] double NormalizeMatchingScore(double weight, int32_t size, int32_t size_left,
                              int32_t size_right);

/// The paper's group linkage measure BM: normalized maximum-weight
/// matching of `graph` (Hungarian algorithm). `size_left` / `size_right`
/// are |g1| / |g2| (the graph only has cross edges, so they cannot be
/// derived from it when records are isolated). With a non-null `ctx` a
/// stop request makes the matcher return early with a partial (valid,
/// weight <= optimal) matching, so the score can only under-report.
GroupScore BmMeasure(const BipartiteGraph& graph, int32_t size_left, int32_t size_right,
                     const ExecutionContext* ctx = nullptr);

/// Normalized greedy-matching score — the cheap heuristic companion of BM
/// (1/2-approximate matching weight; the score is *not* guaranteed to
/// lower-bound BM under ties, see GreedyLowerBound for the sound bound).
GroupScore GreedyMeasure(const BipartiteGraph& graph, int32_t size_left,
                         int32_t size_right);

/// Provable upper bound on BM, computable in O(E):
///
///   UB = S / (L + R − min(L', R'))
///
/// where S = (Σ_l best(l) + Σ_r best(r)) / 2 over best incident edge
/// weights, and L', R' are the counts of non-isolated nodes per side.
///
/// Soundness: every matched edge (l, r) of the max-weight matching M* has
/// weight ≤ (best(l) + best(r)) / 2, and matching edges are node-disjoint,
/// so W* ≤ S. Also |M*| ≤ min(L', R'), so BM's denominator is ≥ UB's.
/// Hence BM = W*/(L+R−|M*|) ≤ S/(L+R−min(L',R')) = UB. Moreover UB ≤ 1
/// because S ≤ (L'+R')/2 and L+R−min(L',R') ≥ (L'+R')/2 for weights ≤ 1.
/// Property-tested against exact BM in tests/core_measures_test.cc.
[[nodiscard]] double UpperBoundMeasure(const BipartiteGraph& graph, int32_t size_left,
                         int32_t size_right);

/// Provable lower bound on BM from the greedy matching (weight W_g,
/// size k_g):
///
///   LB = W_g / (L + R − ceil(k_g / 2))
///
/// Soundness: W* ≥ W_g. Every maximum-weight matching under strictly
/// positive weights is maximal, any maximal matching has at least ν/2
/// edges (ν = maximum cardinality), and k_g ≤ ν, so |M*| ≥ ceil(k_g / 2)
/// and BM's denominator is ≤ LB's. Hence BM ≥ LB.
[[nodiscard]] double GreedyLowerBound(const BipartiteGraph& graph, int32_t size_left,
                        int32_t size_right);

/// Binary-similarity Jaccard generalization: edges count 1 each, the
/// score is the normalized *maximum-cardinality* matching (Hopcroft-Karp).
/// With exact-duplicate edges this is the classical Jaccard coefficient.
GroupScore BinaryJaccardMeasure(const BipartiteGraph& graph, int32_t size_left,
                                int32_t size_right);

/// Baseline: the single best record-pair similarity between the groups
/// (max edge weight; 0 when the thresholded graph has no edge).
[[nodiscard]] double SingleBestMeasure(const BipartiteGraph& graph);

/// Asymmetric containment: maximum-weight matching normalized by the
/// *smaller* group, W* / min(L, R) ∈ [0, 1]. Scores 1 when one group's
/// records all match into the other — detects subgroup relationships
/// (e.g. an early-career author group inside a later, larger one) that
/// BM's union-style denominator deliberately penalizes. An extension
/// beyond the paper's symmetric setting.
[[nodiscard]] double ContainmentMeasure(const BipartiteGraph& graph, int32_t size_left,
                          int32_t size_right);

/// The exact maximizer of the normalized score over all matchings
/// (BM* variant; tie-proof, >= BM). Computed by the cardinality-profile
/// algorithm in matching/ssp_matching.h.
[[nodiscard]] double BmStarMeasure(const BipartiteGraph& graph, int32_t size_left,
                     int32_t size_right);

/// The measures selectable end-to-end (benchmarks compare them head on).
enum class GroupMeasureKind {
  kBm,             // Paper's measure: normalized max-weight matching.
  kBmStar,         // Exact max normalized score over all matchings.
  kGreedy,         // Normalized greedy matching score.
  kUpperBound,     // UB used *as* a measure (cheap, over-links).
  kBinaryJaccard,  // Normalized max-cardinality matching.
  kSingleBest,     // Best record pair baseline.
  kContainment,    // Matching normalized by the smaller group.
};

const char* GroupMeasureKindName(GroupMeasureKind kind);

/// Evaluates `kind` on a prebuilt similarity graph.
[[nodiscard]] double EvaluateGroupMeasure(GroupMeasureKind kind, const BipartiteGraph& graph,
                            int32_t size_left, int32_t size_right);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_GROUP_MEASURES_H_
