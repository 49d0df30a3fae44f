#ifndef GROUPLINK_TESTS_SUPPORT_BRUTE_FORCE_H_
#define GROUPLINK_TESTS_SUPPORT_BRUTE_FORCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "matching/bipartite_graph.h"

namespace grouplink {

/// Exhaustive maximum-weight matching by recursive enumeration.
/// Exponential time — reference oracle for testing the Hungarian and
/// greedy implementations on small graphs (≲ 9 nodes per side).
[[nodiscard]] Matching BruteForceMaxWeightMatching(const BipartiteGraph& graph);

/// Exhaustively maximizes the *normalized* matching score
/// W(M) / (num_left + num_right − |M|) over all matchings M (the BM*
/// variant). Used to validate the soundness of the greedy lower bound.
/// Returns 1.0 when both sides are empty and 0.0 when exactly one is.
[[nodiscard]] double BruteForceMaxNormalizedScore(const BipartiteGraph& graph);

/// All pairs (i < j), ascending, of sorted-unique token-id documents with
/// exact Jaccard >= `threshold`. O(n²) — reference oracle for the prefix
/// filter and MinHash candidate generators.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> BruteForceJaccardSelfJoin(
    const std::vector<std::vector<int32_t>>& documents, double threshold);

}  // namespace grouplink

#endif  // GROUPLINK_TESTS_SUPPORT_BRUTE_FORCE_H_
