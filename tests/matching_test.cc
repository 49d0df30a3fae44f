#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "matching/bipartite_graph.h"
#include "matching/greedy.h"
#include "matching/hopcroft_karp.h"
#include "matching/hungarian.h"
#include "matching/semi_matching.h"
#include "support/brute_force.h"

namespace grouplink {
namespace {

BipartiteGraph RandomGraph(Rng& rng, int32_t max_side, double edge_prob) {
  const int32_t num_left = 1 + static_cast<int32_t>(rng.Uniform(max_side));
  const int32_t num_right = 1 + static_cast<int32_t>(rng.Uniform(max_side));
  BipartiteGraph graph(num_left, num_right);
  for (int32_t l = 0; l < num_left; ++l) {
    for (int32_t r = 0; r < num_right; ++r) {
      if (rng.Bernoulli(edge_prob)) {
        graph.AddEdge(l, r, 0.05 + 0.95 * rng.UniformDouble());
      }
    }
  }
  return graph;
}

// ------------------------------------------------------------------ Graph.

TEST(BipartiteGraphTest, StoresEdgesAndAdjacency) {
  BipartiteGraph graph(2, 3);
  graph.AddEdge(0, 1, 0.5);
  graph.AddEdge(0, 2, 0.7);
  graph.AddEdge(1, 0, 0.9);
  EXPECT_EQ(graph.edges().size(), 3u);
  EXPECT_EQ(graph.LeftAdjacency(0).size(), 2u);
  EXPECT_EQ(graph.LeftAdjacency(1).size(), 1u);
}

TEST(BipartiteGraphTest, DenseWeightsTakeMaxOfDuplicates) {
  BipartiteGraph graph(1, 1);
  graph.AddEdge(0, 0, 0.3);
  graph.AddEdge(0, 0, 0.8);
  graph.AddEdge(0, 0, 0.5);
  EXPECT_DOUBLE_EQ(graph.ToDenseWeights()[0][0], 0.8);
}

TEST(MatchingTest, EmptyFactoryAndConsistency) {
  Matching m = Matching::Empty(3, 2);
  EXPECT_TRUE(m.IsConsistent());
  m.left_to_right[0] = 1;
  EXPECT_FALSE(m.IsConsistent());  // Right side not updated.
  m.right_to_left[1] = 0;
  EXPECT_TRUE(m.IsConsistent());
}

// -------------------------------------------------------------- Hungarian.

TEST(HungarianTest, SimpleAssignment) {
  // Optimal: (0,1) + (1,0) = 0.9 + 0.8 = 1.7 beats (0,0) + (1,1) = 1.0.
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.6);
  graph.AddEdge(0, 1, 0.9);
  graph.AddEdge(1, 0, 0.8);
  graph.AddEdge(1, 1, 0.4);
  const Matching m = HungarianMaxWeightMatching(graph);
  EXPECT_NEAR(m.total_weight, 1.7, 1e-12);
  EXPECT_EQ(m.size, 2);
  EXPECT_EQ(m.left_to_right[0], 1);
  EXPECT_EQ(m.left_to_right[1], 0);
}

TEST(HungarianTest, PrefersOneHeavyEdgeOverTwoLight) {
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 1.0);
  graph.AddEdge(0, 1, 0.4);
  graph.AddEdge(1, 0, 0.4);
  const Matching m = HungarianMaxWeightMatching(graph);
  EXPECT_NEAR(m.total_weight, 1.0, 1e-12);
  EXPECT_EQ(m.size, 1);
}

TEST(HungarianTest, EmptyGraph) {
  BipartiteGraph graph(3, 2);
  const Matching m = HungarianMaxWeightMatching(graph);
  EXPECT_EQ(m.size, 0);
  EXPECT_DOUBLE_EQ(m.total_weight, 0.0);
}

TEST(HungarianTest, ZeroSidedGraph) {
  BipartiteGraph graph(0, 4);
  const Matching m = HungarianMaxWeightMatching(graph);
  EXPECT_EQ(m.size, 0);
}

TEST(HungarianTest, RectangularTransposedSides) {
  BipartiteGraph graph(4, 1);  // More left than right triggers transpose.
  graph.AddEdge(0, 0, 0.2);
  graph.AddEdge(3, 0, 0.9);
  const Matching m = HungarianMaxWeightMatching(graph);
  EXPECT_EQ(m.size, 1);
  EXPECT_EQ(m.right_to_left[0], 3);
}

TEST(HungarianTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.5);
    const Matching hungarian = HungarianMaxWeightMatching(graph);
    const Matching brute = BruteForceMaxWeightMatching(graph);
    EXPECT_NEAR(hungarian.total_weight, brute.total_weight, 1e-9)
        << "trial " << trial;
    EXPECT_TRUE(hungarian.IsConsistent());
  }
}

TEST(HungarianTest, MatchingIsMaximalUnderPositiveWeights) {
  Rng rng(202);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.4);
    const Matching m = HungarianMaxWeightMatching(graph);
    for (const BipartiteEdge& e : graph.edges()) {
      const bool left_free =
          m.left_to_right[static_cast<size_t>(e.left)] == Matching::kUnmatched;
      const bool right_free =
          m.right_to_left[static_cast<size_t>(e.right)] == Matching::kUnmatched;
      EXPECT_FALSE(left_free && right_free)
          << "addable edge left in trial " << trial;
    }
  }
}

TEST(HungarianTest, TransposeInvariantWeight) {
  // Swapping left/right must not change the optimal weight.
  Rng rng(203);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.4);
    BipartiteGraph transposed(graph.num_right(), graph.num_left());
    for (const BipartiteEdge& e : graph.edges()) {
      transposed.AddEdge(e.right, e.left, e.weight);
    }
    EXPECT_NEAR(HungarianMaxWeightMatching(graph).total_weight,
                HungarianMaxWeightMatching(transposed).total_weight, 1e-9)
        << trial;
  }
}

TEST(HungarianTest, AddingAnEdgeNeverDecreasesWeight) {
  Rng rng(204);
  for (int trial = 0; trial < 100; ++trial) {
    BipartiteGraph graph = RandomGraph(rng, 6, 0.3);
    const double before = HungarianMaxWeightMatching(graph).total_weight;
    graph.AddEdge(static_cast<int32_t>(rng.Uniform(graph.num_left())),
                  static_cast<int32_t>(rng.Uniform(graph.num_right())),
                  0.05 + 0.95 * rng.UniformDouble());
    const double after = HungarianMaxWeightMatching(graph).total_weight;
    EXPECT_GE(after + 1e-9, before) << trial;
  }
}

TEST(HungarianTest, ScalingWeightsScalesOptimum) {
  Rng rng(205);
  for (int trial = 0; trial < 50; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.5);
    BipartiteGraph scaled(graph.num_left(), graph.num_right());
    for (const BipartiteEdge& e : graph.edges()) {
      scaled.AddEdge(e.left, e.right, e.weight * 0.5);
    }
    EXPECT_NEAR(HungarianMaxWeightMatching(scaled).total_weight,
                0.5 * HungarianMaxWeightMatching(graph).total_weight, 1e-9)
        << trial;
  }
}

// ----------------------------------------------------------------- Greedy.

TEST(GreedyTest, PicksHeaviestFirst) {
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.5);
  graph.AddEdge(0, 1, 0.9);
  graph.AddEdge(1, 1, 0.8);
  const Matching m = GreedyMaxWeightMatching(graph);
  EXPECT_EQ(m.left_to_right[0], 1);  // 0.9 first; (1,1) then blocked.
  EXPECT_EQ(m.size, 1);
}

TEST(GreedyTest, IsHalfApproximation) {
  Rng rng(303);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.5);
    const double optimal = BruteForceMaxWeightMatching(graph).total_weight;
    const double greedy = GreedyMaxWeightMatching(graph).total_weight;
    EXPECT_GE(greedy + 1e-9, optimal / 2.0) << "trial " << trial;
    EXPECT_LE(greedy, optimal + 1e-9) << "trial " << trial;
  }
}

TEST(GreedyTest, ResultIsMaximal) {
  Rng rng(404);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.4);
    const Matching m = GreedyMaxWeightMatching(graph);
    EXPECT_TRUE(m.IsConsistent());
    for (const BipartiteEdge& e : graph.edges()) {
      const bool left_free =
          m.left_to_right[static_cast<size_t>(e.left)] == Matching::kUnmatched;
      const bool right_free =
          m.right_to_left[static_cast<size_t>(e.right)] == Matching::kUnmatched;
      EXPECT_FALSE(left_free && right_free);
    }
  }
}

TEST(GreedyTest, DeterministicUnderTies) {
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.5);
  graph.AddEdge(0, 1, 0.5);
  graph.AddEdge(1, 0, 0.5);
  graph.AddEdge(1, 1, 0.5);
  const Matching a = GreedyMaxWeightMatching(graph);
  const Matching b = GreedyMaxWeightMatching(graph);
  EXPECT_EQ(a.left_to_right, b.left_to_right);
  EXPECT_EQ(a.size, 2);  // Ties broken by index: (0,0) then (1,1).
  EXPECT_EQ(a.left_to_right[0], 0);
}

// ----------------------------------------------------------- Hopcroft-Karp.

TEST(HopcroftKarpTest, MaximumCardinalitySimple) {
  // Perfect matching exists: (0,1), (1,0).
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 1.0);
  graph.AddEdge(0, 1, 1.0);
  graph.AddEdge(1, 0, 1.0);
  const Matching m = HopcroftKarpMatching(graph);
  EXPECT_EQ(m.size, 2);
  EXPECT_TRUE(m.IsConsistent());
}

TEST(HopcroftKarpTest, AugmentingPathNeeded) {
  // Greedy-by-order would match (0,0) and strand left 1; HK augments.
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 1.0);
  graph.AddEdge(1, 0, 1.0);
  graph.AddEdge(0, 1, 1.0);
  EXPECT_EQ(HopcroftKarpMatching(graph).size, 2);
}

TEST(HopcroftKarpTest, CardinalityAtLeastWeightOptimal) {
  // Max cardinality >= cardinality needed by any matching, in particular
  // it is the max over matchings, so >= brute-force max-weight one's size.
  Rng rng(505);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.4);
    const Matching hk = HopcroftKarpMatching(graph);
    const Matching brute = BruteForceMaxWeightMatching(graph);
    EXPECT_GE(hk.size, brute.size) << trial;
  }
}

TEST(HopcroftKarpTest, EmptyGraph) {
  BipartiteGraph graph(5, 5);
  EXPECT_EQ(HopcroftKarpMatching(graph).size, 0);
}

// ------------------------------------------------------------ Semi-match.

TEST(SemiMatchingTest, BestIncidentWeights) {
  BipartiteGraph graph(2, 3);
  graph.AddEdge(0, 0, 0.4);
  graph.AddEdge(0, 1, 0.9);
  graph.AddEdge(1, 1, 0.6);
  const SemiMatching semi = ComputeSemiMatching(graph);
  EXPECT_DOUBLE_EQ(semi.best_left[0], 0.9);
  EXPECT_DOUBLE_EQ(semi.best_left[1], 0.6);
  EXPECT_DOUBLE_EQ(semi.best_right[0], 0.4);
  EXPECT_DOUBLE_EQ(semi.best_right[1], 0.9);
  EXPECT_DOUBLE_EQ(semi.best_right[2], 0.0);
  EXPECT_EQ(semi.covered_left, 2);
  EXPECT_EQ(semi.covered_right, 2);
  EXPECT_NEAR(semi.SumBestLeft(), 1.5, 1e-12);
  EXPECT_NEAR(semi.SumBestRight(), 1.3, 1e-12);
}

TEST(SemiMatchingTest, UpperBoundsMatchingWeight) {
  // S = (sum best_left + sum best_right) / 2 >= max matching weight.
  Rng rng(606);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.5);
    const SemiMatching semi = ComputeSemiMatching(graph);
    const double s = 0.5 * (semi.SumBestLeft() + semi.SumBestRight());
    const double optimal = BruteForceMaxWeightMatching(graph).total_weight;
    EXPECT_GE(s + 1e-9, optimal) << trial;
  }
}

// ------------------------------------------------------------ Brute force.

TEST(BruteForceTest, NormalizedScoreSimple) {
  // One edge of weight 1 between singletons: best score 1/(2-1) = 1.
  BipartiteGraph graph(1, 1);
  graph.AddEdge(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(BruteForceMaxNormalizedScore(graph), 1.0);
}

TEST(BruteForceTest, NormalizedScoreMayPreferLargerMatching) {
  // Weight path: single heavy edge 0.6 vs two 0.5 edges.
  // Single: 0.6 / (4-1) = 0.2; double: 1.0 / (4-2) = 0.5.
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.6);
  graph.AddEdge(0, 1, 0.5);
  graph.AddEdge(1, 0, 0.5);
  EXPECT_DOUBLE_EQ(BruteForceMaxNormalizedScore(graph), 0.5);
}

TEST(BruteForceTest, EmptySidesConventions) {
  BipartiteGraph both_empty(0, 0);
  EXPECT_DOUBLE_EQ(BruteForceMaxNormalizedScore(both_empty), 1.0);
  BipartiteGraph one_empty(0, 3);
  EXPECT_DOUBLE_EQ(BruteForceMaxNormalizedScore(one_empty), 0.0);
}

}  // namespace
}  // namespace grouplink
