#include "matching/auction.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "matching/hungarian.h"
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

TEST(AuctionTest, SimpleAssignment) {
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.6);
  graph.AddEdge(0, 1, 0.9);
  graph.AddEdge(1, 0, 0.8);
  graph.AddEdge(1, 1, 0.4);
  const Matching m = AuctionMaxWeightMatching(graph);
  EXPECT_NEAR(m.total_weight, 1.7, 1e-5);
  EXPECT_EQ(m.size, 2);
  EXPECT_TRUE(m.IsConsistent());
}

TEST(AuctionTest, EmptyGraphAndSides) {
  BipartiteGraph empty(3, 2);
  EXPECT_EQ(AuctionMaxWeightMatching(empty).size, 0);
  BipartiteGraph zero_side(0, 4);
  EXPECT_EQ(AuctionMaxWeightMatching(zero_side).size, 0);
}

TEST(AuctionTest, SingleObjectCase) {
  BipartiteGraph graph(3, 1);
  graph.AddEdge(0, 0, 0.2);
  graph.AddEdge(2, 0, 0.9);
  const Matching m = AuctionMaxWeightMatching(graph);
  EXPECT_EQ(m.size, 1);
  EXPECT_EQ(m.right_to_left[0], 2);
  EXPECT_NEAR(m.total_weight, 0.9, 1e-5);
}

TEST(AuctionTest, MatchesHungarianWeightOnRandomGraphs) {
  Rng rng(777);
  for (int trial = 0; trial < 150; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.5);
    const double hungarian = HungarianMaxWeightMatching(graph).total_weight;
    const Matching auction = AuctionMaxWeightMatching(graph);
    EXPECT_TRUE(auction.IsConsistent());
    EXPECT_NEAR(auction.total_weight, hungarian, 1e-4) << "trial " << trial;
  }
}

TEST(AuctionTest, MatchesBruteForceOnRectangularGraphs) {
  Rng rng(778);
  for (int trial = 0; trial < 100; ++trial) {
    // Deliberately skewed shapes to exercise the transpose path.
    const int32_t num_left = 1 + static_cast<int32_t>(rng.Uniform(8));
    const int32_t num_right = 1 + static_cast<int32_t>(rng.Uniform(3));
    BipartiteGraph graph(num_left, num_right);
    for (int32_t l = 0; l < num_left; ++l) {
      for (int32_t r = 0; r < num_right; ++r) {
        if (rng.Bernoulli(0.6)) graph.AddEdge(l, r, 0.05 + 0.95 * rng.UniformDouble());
      }
    }
    const double optimal = BruteForceMaxWeightMatching(graph).total_weight;
    EXPECT_NEAR(AuctionMaxWeightMatching(graph).total_weight, optimal, 1e-4)
        << "trial " << trial;
  }
}

TEST(AuctionTest, CoarseEpsilonStillNearOptimal) {
  Rng rng(779);
  for (int trial = 0; trial < 50; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.6);
    const double optimal = HungarianMaxWeightMatching(graph).total_weight;
    const double coarse = AuctionMaxWeightMatching(graph, 0.01).total_weight;
    // n * epsilon bound with n <= 6.
    EXPECT_GE(coarse + 6 * 0.01 + 1e-9, optimal) << trial;
  }
}

TEST(AuctionTest, LargerDenseGraphAgreesWithHungarian) {
  Rng rng(780);
  BipartiteGraph graph(40, 40);
  for (int32_t l = 0; l < 40; ++l) {
    for (int32_t r = 0; r < 40; ++r) {
      if (rng.Bernoulli(0.4)) graph.AddEdge(l, r, 0.05 + 0.95 * rng.UniformDouble());
    }
  }
  const double hungarian = HungarianMaxWeightMatching(graph).total_weight;
  EXPECT_NEAR(AuctionMaxWeightMatching(graph).total_weight, hungarian, 1e-3);
}

}  // namespace
}  // namespace grouplink
