#include "matching/ssp_matching.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "matching/hopcroft_karp.h"
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

TEST(MaxWeightByCardinalityTest, SimpleProfile) {
  // Edges: (0,0)=0.9, (0,1)=0.5, (1,0)=0.6.
  // k=1: best single edge 0.9. k=2: (0,1)+(1,0) = 1.1.
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.9);
  graph.AddEdge(0, 1, 0.5);
  graph.AddEdge(1, 0, 0.6);
  const auto profile = MaxWeightByCardinality(graph);
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_DOUBLE_EQ(profile[0], 0.0);
  EXPECT_NEAR(profile[1], 0.9, 1e-9);
  EXPECT_NEAR(profile[2], 1.1, 1e-9);
}

TEST(MaxWeightByCardinalityTest, EmptyGraph) {
  BipartiteGraph graph(3, 4);
  const auto profile = MaxWeightByCardinality(graph);
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_DOUBLE_EQ(profile[0], 0.0);
}

TEST(MaxWeightByCardinalityTest, ProfileLengthIsMaxCardinality) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.4);
    const auto profile = MaxWeightByCardinality(graph);
    const Matching hk = HopcroftKarpMatching(graph);
    EXPECT_EQ(profile.size(), static_cast<size_t>(hk.size) + 1) << trial;
  }
}

TEST(MaxWeightByCardinalityTest, PeakEqualsHungarianWeight) {
  Rng rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.4);
    const auto profile = MaxWeightByCardinality(graph);
    double peak = 0.0;
    for (const double w : profile) peak = std::max(peak, w);
    const double hungarian = HungarianMaxWeightMatching(graph).total_weight;
    EXPECT_NEAR(peak, hungarian, 1e-9) << trial;
  }
}

TEST(MaxWeightByCardinalityTest, GainsAreNonIncreasing) {
  Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 7, 0.5);
    const auto profile = MaxWeightByCardinality(graph);
    for (size_t k = 2; k < profile.size(); ++k) {
      const double gain_prev = profile[k - 1] - profile[k - 2];
      const double gain = profile[k] - profile[k - 1];
      EXPECT_LE(gain, gain_prev + 1e-9) << "trial " << trial << " k " << k;
    }
  }
}

TEST(MaxWeightByCardinalityTest, EachEntryOptimalByBruteForce) {
  // Exhaustively verify profile[k] for tiny graphs: max weight over all
  // matchings of size exactly k.
  Rng rng(44);
  for (int trial = 0; trial < 60; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 4, 0.6);
    const auto profile = MaxWeightByCardinality(graph);
    // Enumerate all matchings via the brute-force normalized enumerator:
    // reuse dense weights and recursion here directly.
    const auto weights = graph.ToDenseWeights();
    std::vector<double> best_by_size(profile.size(), 0.0);
    // Depth-first enumeration.
    std::vector<bool> right_used(static_cast<size_t>(graph.num_right()), false);
    const auto recurse = [&](auto&& self, int32_t l, double weight,
                             size_t size) -> void {
      if (size < best_by_size.size()) {
        best_by_size[size] = std::max(best_by_size[size], weight);
      }
      if (l == graph.num_left()) return;
      self(self, l + 1, weight, size);
      for (int32_t r = 0; r < graph.num_right(); ++r) {
        const double w = weights[static_cast<size_t>(l)][static_cast<size_t>(r)];
        if (w <= 0.0 || right_used[static_cast<size_t>(r)]) continue;
        right_used[static_cast<size_t>(r)] = true;
        self(self, l + 1, weight + w, size + 1);
        right_used[static_cast<size_t>(r)] = false;
      }
    };
    recurse(recurse, 0, 0.0, 0);
    for (size_t k = 0; k < profile.size(); ++k) {
      EXPECT_NEAR(profile[k], best_by_size[k], 1e-9) << "trial " << trial << " k " << k;
    }
  }
}

TEST(MaxNormalizedScoreTest, MatchesBruteForceOracle) {
  Rng rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomGraph(rng, 6, 0.4);
    const double fast =
        MaxNormalizedMatchingScore(graph, graph.num_left(), graph.num_right());
    const double oracle = BruteForceMaxNormalizedScore(graph);
    EXPECT_NEAR(fast, oracle, 1e-9) << trial;
  }
}

TEST(MaxNormalizedScoreTest, EmptySideConventions) {
  BipartiteGraph both(0, 0);
  EXPECT_DOUBLE_EQ(MaxNormalizedMatchingScore(both, 0, 0), 1.0);
  BipartiteGraph one(0, 3);
  EXPECT_DOUBLE_EQ(MaxNormalizedMatchingScore(one, 0, 3), 0.0);
}

TEST(MaxNormalizedScoreTest, AccountsForIsolatedRecords) {
  // One unit edge, but the groups are larger than the graph coverage.
  BipartiteGraph graph(1, 1);
  graph.AddEdge(0, 0, 1.0);
  EXPECT_DOUBLE_EQ(MaxNormalizedMatchingScore(graph, 1, 1), 1.0);
  EXPECT_NEAR(MaxNormalizedMatchingScore(graph, 3, 4), 1.0 / 6.0, 1e-12);
}

}  // namespace
}  // namespace grouplink
