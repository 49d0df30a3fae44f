// Differential test over random bipartite graphs: every matching engine is
// cross-checked against an independent oracle — the exact algorithms
// (Hungarian, SSP profile, auction) must agree with brute force and with
// each other, and the approximate ones (greedy, semi-matching) must
// respect their documented bounds. Graphs are generated from fixed seeds,
// so failures reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/execution_context.h"
#include "common/random.h"
#include "core/group_measures.h"
#include "matching/auction.h"
#include "matching/bipartite_graph.h"
#include "matching/greedy.h"
#include "matching/hopcroft_karp.h"
#include "matching/hungarian.h"
#include "matching/semi_matching.h"
#include "matching/ssp_matching.h"
#include "support/brute_force.h"

namespace grouplink {
namespace {

BipartiteGraph RandomGraph(Rng& rng, int32_t num_left, int32_t num_right,
                           double density) {
  BipartiteGraph graph(num_left, num_right);
  for (int32_t l = 0; l < num_left; ++l) {
    for (int32_t r = 0; r < num_right; ++r) {
      if (rng.Bernoulli(density)) {
        // Weights in (0, 1], matching the θ-thresholded similarity graphs.
        graph.AddEdge(l, r, 0.05 + 0.95 * rng.UniformDouble());
      }
    }
  }
  return graph;
}

double ProfileMax(const std::vector<double>& profile) {
  return *std::max_element(profile.begin(), profile.end());
}

// Checks every cross-engine invariant that holds on graphs of any size.
void CheckEngineAgreement(const BipartiteGraph& graph) {
  const Matching hungarian = HungarianMaxWeightMatching(graph);
  const std::vector<double> profile = MaxWeightByCardinality(graph);
  const Matching auction = AuctionMaxWeightMatching(graph);
  const Matching greedy = GreedyMaxWeightMatching(graph);
  const Matching hopcroft = HopcroftKarpMatching(graph);
  const SemiMatching semi = ComputeSemiMatching(graph);

  // The SSP profile's maximum is the unrestricted max matching weight.
  EXPECT_NEAR(hungarian.total_weight, ProfileMax(profile), 1e-9);

  // The profile is concave: augmenting-path gains never increase.
  for (size_t k = 2; k < profile.size(); ++k) {
    EXPECT_LE(profile[k] - profile[k - 1], profile[k - 1] - profile[k - 2] + 1e-9);
  }

  // The profile ends at the maximum cardinality ν, which Hopcroft-Karp
  // computes independently.
  EXPECT_EQ(static_cast<size_t>(hopcroft.size) + 1, profile.size());

  // Auction with the default final ε lands within num_bidders · ε of the
  // optimum (and never above it).
  const double auction_slack =
      static_cast<double>(std::min(graph.num_left(), graph.num_right())) * 1e-7 + 1e-9;
  EXPECT_LE(auction.total_weight, hungarian.total_weight + 1e-9);
  EXPECT_GE(auction.total_weight, hungarian.total_weight - auction_slack);

  // Greedy is a 1/2-approximation of the max weight...
  EXPECT_GE(greedy.total_weight, 0.5 * hungarian.total_weight - 1e-9);
  EXPECT_LE(greedy.total_weight, hungarian.total_weight + 1e-9);
  // ...and maximal under strictly positive weights: no edge can have both
  // endpoints unmatched.
  for (const BipartiteEdge& edge : graph.edges()) {
    const bool left_free =
        greedy.left_to_right[static_cast<size_t>(edge.left)] == Matching::kUnmatched;
    const bool right_free =
        greedy.right_to_left[static_cast<size_t>(edge.right)] == Matching::kUnmatched;
    EXPECT_FALSE(left_free && right_free)
        << "greedy left edge (" << edge.left << ", " << edge.right << ") unmatched";
  }
  // Maximal matchings have at least ν/2 edges.
  EXPECT_GE(2 * greedy.size, hopcroft.size);

  // The semi-matching relaxation upper-bounds the matching weight: every
  // matched edge weighs at most (best(l) + best(r)) / 2 and matched edges
  // are node-disjoint.
  EXPECT_GE((semi.SumBestLeft() + semi.SumBestRight()) / 2.0,
            hungarian.total_weight - 1e-9);

  // Matching structural sanity: partner maps are consistent involutions.
  for (const Matching* m : {&hungarian, &auction, &greedy, &hopcroft}) {
    int32_t counted = 0;
    for (size_t l = 0; l < m->left_to_right.size(); ++l) {
      const int32_t r = m->left_to_right[l];
      if (r == Matching::kUnmatched) continue;
      ++counted;
      EXPECT_EQ(m->right_to_left[static_cast<size_t>(r)], static_cast<int32_t>(l));
    }
    EXPECT_EQ(counted, m->size);
  }
}

TEST(MatchingDifferentialTest, SmallGraphsAgainstBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int32_t num_left = static_cast<int32_t>(rng.UniformInt(1, 5));
    const int32_t num_right = static_cast<int32_t>(rng.UniformInt(1, 5));
    const double density = rng.UniformDouble(0.2, 0.9);
    const BipartiteGraph graph = RandomGraph(rng, num_left, num_right, density);

    const Matching brute = BruteForceMaxWeightMatching(graph);
    const Matching hungarian = HungarianMaxWeightMatching(graph);
    EXPECT_NEAR(hungarian.total_weight, brute.total_weight, 1e-9)
        << "trial " << trial << " " << num_left << "x" << num_right;

    // The exact normalized optimizer agrees with its brute-force oracle.
    EXPECT_NEAR(MaxNormalizedMatchingScore(graph, num_left, num_right),
                BruteForceMaxNormalizedScore(graph), 1e-9)
        << "trial " << trial;

    CheckEngineAgreement(graph);
  }
}

TEST(MatchingDifferentialTest, LargerGraphsCrossValidate) {
  // Beyond brute-force reach the exact engines validate each other:
  // Hungarian vs the SSP profile vs auction, plus every bound.
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const int32_t num_left = static_cast<int32_t>(rng.UniformInt(6, 14));
    const int32_t num_right = static_cast<int32_t>(rng.UniformInt(6, 14));
    const double density = rng.UniformDouble(0.1, 0.7);
    const BipartiteGraph graph = RandomGraph(rng, num_left, num_right, density);
    CheckEngineAgreement(graph);
  }
}

TEST(MatchingDifferentialTest, BoundsSandwichBmAndDegradedFallbacksAreSound) {
  // The resilient fallbacks lean entirely on these relations: the matcher
  // budget decides oversized pairs from GreedyLowerBound / the UB filter,
  // and a stop request makes BmMeasure return a partial matching. Each
  // must only ever err toward *under*-linking.
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const int32_t num_left = static_cast<int32_t>(rng.UniformInt(1, 10));
    const int32_t num_right = static_cast<int32_t>(rng.UniformInt(1, 10));
    const double density = rng.UniformDouble(0.1, 0.9);
    const BipartiteGraph graph = RandomGraph(rng, num_left, num_right, density);

    const GroupScore bm = BmMeasure(graph, num_left, num_right);
    const double ub = UpperBoundMeasure(graph, num_left, num_right);
    const double lb = GreedyLowerBound(graph, num_left, num_right);

    // The sandwich LB <= BM <= UB, and the documented LB >= BM/4 quality
    // bound (greedy weight >= W*/2, denominator ratio <= 2).
    EXPECT_LE(lb, bm.value + 1e-9) << "trial " << trial;
    EXPECT_LE(bm.value, ub + 1e-9) << "trial " << trial;
    EXPECT_GE(lb, bm.value / 4.0 - 1e-9) << "trial " << trial;

    // Bounds-only decisions at any threshold: an LB accept is always a
    // true link, a UB prune is always a true non-link — degradation can
    // only drop the pairs in between.
    for (const double threshold : {0.1, 0.25, 0.5, 0.75}) {
      if (lb >= threshold) {
        EXPECT_GE(bm.value, threshold - 1e-9)
            << "degraded accept over-linked, trial " << trial;
      }
      if (ub < threshold) {
        EXPECT_LT(bm.value, threshold)
            << "UB prune dropped a true link, trial " << trial;
      }
    }

    // A stop request mid-matcher yields a valid partial matching whose
    // weight and normalized score never exceed the exact ones.
    CancellationToken token;
    token.Cancel();
    ExecutionContext ctx;
    ctx.SetCancellation(token);
    const GroupScore partial = BmMeasure(graph, num_left, num_right, &ctx);
    EXPECT_GE(partial.matching_weight, -1e-12);
    EXPECT_LE(partial.matching_weight, bm.matching_weight + 1e-9);
    EXPECT_LE(partial.matching_size, bm.matching_size);
    EXPECT_LE(partial.value, bm.value + 1e-9) << "partial BM over-reported";
  }
}

TEST(MatchingDifferentialTest, DegenerateGraphs) {
  // Empty graph: everything agrees on the trivial answers.
  const BipartiteGraph empty(3, 4);
  EXPECT_EQ(HungarianMaxWeightMatching(empty).size, 0);
  EXPECT_EQ(HopcroftKarpMatching(empty).size, 0);
  EXPECT_EQ(MaxWeightByCardinality(empty).size(), 1u);  // Only k = 0.
  CheckEngineAgreement(empty);

  // Single edge.
  BipartiteGraph single(1, 1);
  single.AddEdge(0, 0, 0.6);
  const Matching m = HungarianMaxWeightMatching(single);
  EXPECT_EQ(m.size, 1);
  EXPECT_NEAR(m.total_weight, 0.6, 1e-12);
  CheckEngineAgreement(single);

  // Perfectly tied weights: size and weight must still agree with brute
  // force even though the argmax matching is ambiguous.
  BipartiteGraph tied(3, 3);
  for (int32_t l = 0; l < 3; ++l) {
    for (int32_t r = 0; r < 3; ++r) tied.AddEdge(l, r, 0.5);
  }
  EXPECT_NEAR(HungarianMaxWeightMatching(tied).total_weight,
              BruteForceMaxWeightMatching(tied).total_weight, 1e-9);
  CheckEngineAgreement(tied);
}

}  // namespace
}  // namespace grouplink
