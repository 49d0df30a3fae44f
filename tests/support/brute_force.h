#ifndef GROUPLINK_TESTS_SUPPORT_BRUTE_FORCE_H_
#define GROUPLINK_TESTS_SUPPORT_BRUTE_FORCE_H_

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

}  // namespace grouplink

#endif  // GROUPLINK_TESTS_SUPPORT_BRUTE_FORCE_H_
