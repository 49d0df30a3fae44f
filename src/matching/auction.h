#ifndef GROUPLINK_MATCHING_AUCTION_H_
#define GROUPLINK_MATCHING_AUCTION_H_

// gl-lint: allow(unreached-header) E7 compares it with Hungarian, the engine's matcher.

#include "matching/bipartite_graph.h"

namespace grouplink {

/// Maximum-weight bipartite matching via Bertsekas' auction algorithm
/// with ε-scaling: unassigned "bidders" (the smaller side) repeatedly bid
/// their marginal value for their best "object", prices rise, and the
/// assignment converges to within `n · epsilon` of optimal weight.
///
/// `epsilon` is the final scaling step; the default is tight enough that
/// the result matches the Hungarian algorithm to ~1e-6 on [0, 1] weights
/// (cross-checked in the test suite). Zero-weight pairs are dropped from
/// the result exactly as in HungarianMaxWeightMatching.
///
/// Included as an independent implementation to cross-validate the
/// Hungarian matcher and as the classic alternative engine for the refine
/// step — often faster in practice on dense graphs despite the same
/// worst-case bound (benchmarked in bench_micro_matching).
[[nodiscard]] Matching AuctionMaxWeightMatching(const BipartiteGraph& graph,
                                  double epsilon = 1e-7);

}  // namespace grouplink

#endif  // GROUPLINK_MATCHING_AUCTION_H_
