#include "core/group_measures.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "matching/brute_force.h"

namespace grouplink {
namespace {

// Builds a dataset with two groups of the given sizes; record texts are
// unused (tests pass explicit similarity callbacks over record indexes).
Dataset TwoGroups(int32_t size_left, int32_t size_right) {
  Dataset dataset;
  for (int32_t i = 0; i < size_left + size_right; ++i) {
    Record record;
    record.id = std::to_string(i);
    record.text = "r" + std::to_string(i);
    dataset.records.push_back(std::move(record));
  }
  Group left;
  left.id = "left";
  for (int32_t i = 0; i < size_left; ++i) left.record_ids.push_back(i);
  Group right;
  right.id = "right";
  for (int32_t i = 0; i < size_right; ++i) right.record_ids.push_back(size_left + i);
  dataset.groups = {left, right};
  return dataset;
}

BipartiteGraph RandomThresholdGraph(Rng& rng, int32_t max_side, double theta) {
  const int32_t num_left = 1 + static_cast<int32_t>(rng.Uniform(max_side));
  const int32_t num_right = 1 + static_cast<int32_t>(rng.Uniform(max_side));
  BipartiteGraph graph(num_left, num_right);
  for (int32_t l = 0; l < num_left; ++l) {
    for (int32_t r = 0; r < num_right; ++r) {
      const double s = rng.UniformDouble();
      if (s >= theta) graph.AddEdge(l, r, s);
    }
  }
  return graph;
}

// ----------------------------------------------------- Graph construction.

TEST(BuildSimilarityGraphTest, ThresholdsEdges) {
  const Dataset dataset = TwoGroups(2, 2);
  const auto sim = [](int32_t a, int32_t b) {
    return (a + b) % 2 == 0 ? 0.9 : 0.3;  // Half the pairs pass θ=0.5.
  };
  const BipartiteGraph graph = BuildSimilarityGraph(dataset, 0, 1, sim, 0.5);
  EXPECT_EQ(graph.num_left(), 2);
  EXPECT_EQ(graph.num_right(), 2);
  EXPECT_EQ(graph.edges().size(), 2u);
  for (const BipartiteEdge& e : graph.edges()) EXPECT_DOUBLE_EQ(e.weight, 0.9);
}

TEST(BuildSimilarityGraphTest, EdgeExactlyAtThetaIncluded) {
  const Dataset dataset = TwoGroups(1, 1);
  const auto sim = [](int32_t, int32_t) { return 0.5; };
  EXPECT_EQ(BuildSimilarityGraph(dataset, 0, 1, sim, 0.5).edges().size(), 1u);
}

// ----------------------------------------------------------- BM measure.

TEST(BmMeasureTest, ReducesToJaccardUnderBinarySimilarity) {
  // Groups share exactly 2 "identical" records out of sizes 3 and 4:
  // Jaccard = 2 / (3 + 4 - 2) = 0.4.
  const Dataset dataset = TwoGroups(3, 4);
  // Records 0,1 (left) are identical to 3,4 (right) respectively.
  const auto sim = [](int32_t a, int32_t b) {
    const int32_t left = std::min(a, b);
    const int32_t right = std::max(a, b);
    return (left == 0 && right == 3) || (left == 1 && right == 4) ? 1.0 : 0.0;
  };
  const BipartiteGraph graph = BuildSimilarityGraph(dataset, 0, 1, sim, 0.5);
  const GroupScore bm = BmMeasure(graph, 3, 4);
  EXPECT_DOUBLE_EQ(bm.value, 0.4);
  EXPECT_EQ(bm.matching_size, 2);
  // The binary-Jaccard measure agrees exactly.
  EXPECT_DOUBLE_EQ(BinaryJaccardMeasure(graph, 3, 4).value, 0.4);
}

TEST(BmMeasureTest, IdenticalGroupsScoreOne) {
  const Dataset dataset = TwoGroups(3, 3);
  const auto sim = [](int32_t a, int32_t b) { return (b - a) == 3 ? 1.0 : 0.0; };
  const BipartiteGraph graph = BuildSimilarityGraph(dataset, 0, 1, sim, 0.5);
  EXPECT_DOUBLE_EQ(BmMeasure(graph, 3, 3).value, 1.0);
}

TEST(BmMeasureTest, DisjointGroupsScoreZero) {
  BipartiteGraph graph(3, 3);  // No edges.
  EXPECT_DOUBLE_EQ(BmMeasure(graph, 3, 3).value, 0.0);
}

TEST(BmMeasureTest, IsNotMonotoneInTheEdgeSet) {
  // Removing an edge can raise BM: the full graph's maximum-weight
  // matching is a1-b1 alone (1.0 > 0.49 + 0.49), normalized by
  // 2 + 2 - 1; without a1-b1 the two 0.49 edges match, normalized by
  // 2 + 2 - 2. So a degraded path may not decide a graph with edges
  // missing and call the answer a subset of the full one.
  BipartiteGraph full(2, 2);
  full.AddEdge(0, 0, 1.0);
  full.AddEdge(0, 1, 0.49);
  full.AddEdge(1, 0, 0.49);
  BipartiteGraph missing(2, 2);
  missing.AddEdge(0, 1, 0.49);
  missing.AddEdge(1, 0, 0.49);
  EXPECT_NEAR(BmMeasure(full, 2, 2).value, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(BmMeasure(missing, 2, 2).value, 0.49, 1e-12);
  EXPECT_GT(BmMeasure(missing, 2, 2).value, BmMeasure(full, 2, 2).value);
}

TEST(BmMeasureTest, ValueAlwaysInUnitInterval) {
  Rng rng(808);
  for (int trial = 0; trial < 300; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 7, 0.3);
    const double bm = BmMeasure(graph, graph.num_left(), graph.num_right()).value;
    EXPECT_GE(bm, 0.0);
    EXPECT_LE(bm, 1.0 + 1e-9);
  }
}

TEST(NormalizeMatchingScoreTest, Conventions) {
  EXPECT_DOUBLE_EQ(NormalizeMatchingScore(0.0, 0, 0, 0), 1.0);  // Both empty.
  EXPECT_DOUBLE_EQ(NormalizeMatchingScore(0.0, 0, 2, 3), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeMatchingScore(1.5, 2, 3, 3), 1.5 / 4.0);
}

// ------------------------------------------------------------ UB and LB.

TEST(UpperBoundTest, DominatesBmOnRandomGraphs) {
  Rng rng(909);
  for (int trial = 0; trial < 400; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 7, 0.2);
    const int32_t left = graph.num_left();
    const int32_t right = graph.num_right();
    const double bm = BmMeasure(graph, left, right).value;
    const double ub = UpperBoundMeasure(graph, left, right);
    EXPECT_GE(ub + 1e-9, bm) << "trial " << trial;
    EXPECT_LE(ub, 1.0 + 1e-9) << "trial " << trial;
  }
}

TEST(UpperBoundTest, DominatesBmWithIsolatedRecords) {
  // Groups larger than the graph coverage: isolated records punish both.
  Rng rng(910);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 5, 0.6);
    const int32_t left = graph.num_left() + static_cast<int32_t>(rng.Uniform(4));
    const int32_t right = graph.num_right() + static_cast<int32_t>(rng.Uniform(4));
    // Build a padded graph with extra isolated records on both sides.
    BipartiteGraph padded(left, right);
    for (const BipartiteEdge& e : graph.edges()) {
      padded.AddEdge(e.left, e.right, e.weight);
    }
    const double bm = BmMeasure(padded, left, right).value;
    const double ub = UpperBoundMeasure(padded, left, right);
    EXPECT_GE(ub + 1e-9, bm) << "trial " << trial;
  }
}

TEST(LowerBoundTest, NeverExceedsBmOnRandomGraphs) {
  Rng rng(911);
  for (int trial = 0; trial < 400; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 7, 0.2);
    const int32_t left = graph.num_left();
    const int32_t right = graph.num_right();
    const double bm = BmMeasure(graph, left, right).value;
    const double lb = GreedyLowerBound(graph, left, right);
    EXPECT_LE(lb, bm + 1e-9) << "trial " << trial;
    EXPECT_GE(lb, 0.0);
  }
}

TEST(BoundsTest, EmptyGraphConventions) {
  BipartiteGraph graph(0, 0);
  EXPECT_DOUBLE_EQ(UpperBoundMeasure(graph, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(GreedyLowerBound(graph, 0, 0), 1.0);
  BipartiteGraph empty(3, 2);
  EXPECT_DOUBLE_EQ(UpperBoundMeasure(empty, 3, 2), 0.0);
  EXPECT_DOUBLE_EQ(GreedyLowerBound(empty, 3, 2), 0.0);
}

TEST(BoundsTest, TightOnPerfectMatch) {
  // Complete bipartite graph with unit weights: BM = UB = 1, LB close.
  BipartiteGraph graph(3, 3);
  for (int32_t l = 0; l < 3; ++l) graph.AddEdge(l, l, 1.0);
  EXPECT_DOUBLE_EQ(BmMeasure(graph, 3, 3).value, 1.0);
  EXPECT_DOUBLE_EQ(UpperBoundMeasure(graph, 3, 3), 1.0);
  // Greedy finds the same matching; the sound denominator uses ceil(3/2)=2.
  EXPECT_NEAR(GreedyLowerBound(graph, 3, 3), 3.0 / (6.0 - 2.0), 1e-12);
}

// --------------------------------------------------------- Other measures.

TEST(GreedyMeasureTest, AtMostBruteForceNormalizedOptimum) {
  Rng rng(912);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 6, 0.3);
    const double greedy =
        GreedyMeasure(graph, graph.num_left(), graph.num_right()).value;
    const double best_normalized = BruteForceMaxNormalizedScore(graph);
    EXPECT_LE(greedy, best_normalized + 1e-9) << trial;
  }
}

TEST(BmStarTest, SandwichedBetweenBmAndUpperBound) {
  Rng rng(913);
  for (int trial = 0; trial < 300; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 7, 0.25);
    const int32_t left = graph.num_left();
    const int32_t right = graph.num_right();
    const double bm = BmMeasure(graph, left, right).value;
    const double bm_star = BmStarMeasure(graph, left, right);
    const double ub = UpperBoundMeasure(graph, left, right);
    EXPECT_GE(bm_star + 1e-9, bm) << trial;
    EXPECT_LE(bm_star, ub + 1e-9) << trial;
    EXPECT_LE(bm_star, 1.0 + 1e-9) << trial;
  }
}

TEST(BmStarTest, GreedyNeverExceedsBmStar) {
  // BM* is the exact maximum of the normalized score, so every concrete
  // matching's score — greedy's included — is below it.
  Rng rng(914);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 7, 0.3);
    const double greedy =
        GreedyMeasure(graph, graph.num_left(), graph.num_right()).value;
    const double bm_star =
        BmStarMeasure(graph, graph.num_left(), graph.num_right());
    EXPECT_LE(greedy, bm_star + 1e-9) << trial;
  }
}

TEST(ContainmentTest, SubgroupScoresOne) {
  // Left group (2 records) fully matches into the right group (5 records):
  // containment = 1 while BM is penalized by the 3 unmatched records.
  BipartiteGraph graph(2, 5);
  graph.AddEdge(0, 0, 1.0);
  graph.AddEdge(1, 1, 1.0);
  EXPECT_DOUBLE_EQ(ContainmentMeasure(graph, 2, 5), 1.0);
  EXPECT_NEAR(BmMeasure(graph, 2, 5).value, 2.0 / 5.0, 1e-12);
}

TEST(ContainmentTest, DominatesBm) {
  // min(L, R) <= L + R - |M| always, so containment >= BM.
  Rng rng(915);
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 7, 0.3);
    const double bm = BmMeasure(graph, graph.num_left(), graph.num_right()).value;
    const double containment =
        ContainmentMeasure(graph, graph.num_left(), graph.num_right());
    EXPECT_GE(containment + 1e-9, bm) << trial;
    EXPECT_LE(containment, 1.0 + 1e-9) << trial;
  }
}

TEST(ContainmentTest, EmptyConventions) {
  BipartiteGraph both(0, 0);
  EXPECT_DOUBLE_EQ(ContainmentMeasure(both, 0, 0), 1.0);
  BipartiteGraph one(0, 2);
  EXPECT_DOUBLE_EQ(ContainmentMeasure(one, 0, 2), 0.0);
  BipartiteGraph empty(2, 3);
  EXPECT_DOUBLE_EQ(ContainmentMeasure(empty, 2, 3), 0.0);
}

TEST(SingleBestTest, MaxEdgeWeight) {
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0, 0.4);
  graph.AddEdge(1, 1, 0.75);
  EXPECT_DOUBLE_EQ(SingleBestMeasure(graph), 0.75);
  BipartiteGraph empty(2, 2);
  EXPECT_DOUBLE_EQ(SingleBestMeasure(empty), 0.0);
}

TEST(MeasureKindTest, NamesAndDispatch) {
  BipartiteGraph graph(1, 1);
  graph.AddEdge(0, 0, 0.8);
  EXPECT_STREQ(GroupMeasureKindName(GroupMeasureKind::kBm), "BM");
  EXPECT_STREQ(GroupMeasureKindName(GroupMeasureKind::kBmStar), "BM*");
  EXPECT_STREQ(GroupMeasureKindName(GroupMeasureKind::kSingleBest), "SingleBest");
  EXPECT_DOUBLE_EQ(EvaluateGroupMeasure(GroupMeasureKind::kBm, graph, 1, 1), 0.8);
  EXPECT_DOUBLE_EQ(EvaluateGroupMeasure(GroupMeasureKind::kBmStar, graph, 1, 1), 0.8);
  EXPECT_DOUBLE_EQ(EvaluateGroupMeasure(GroupMeasureKind::kSingleBest, graph, 1, 1),
                   0.8);
  EXPECT_DOUBLE_EQ(EvaluateGroupMeasure(GroupMeasureKind::kBinaryJaccard, graph, 1, 1),
                   1.0);
  EXPECT_GT(EvaluateGroupMeasure(GroupMeasureKind::kUpperBound, graph, 1, 1), 0.0);
  EXPECT_GT(EvaluateGroupMeasure(GroupMeasureKind::kGreedy, graph, 1, 1), 0.0);
}

TEST(MeasureSymmetryTest, AllMeasuresOrientationInvariant) {
  // BM(g1, g2) == BM(g2, g1) etc.: swapping the groups transposes the
  // graph and swaps the sizes, which must not change any measure.
  Rng rng(916);
  for (int trial = 0; trial < 100; ++trial) {
    const BipartiteGraph graph = RandomThresholdGraph(rng, 6, 0.3);
    BipartiteGraph transposed(graph.num_right(), graph.num_left());
    for (const BipartiteEdge& e : graph.edges()) {
      transposed.AddEdge(e.right, e.left, e.weight);
    }
    for (const GroupMeasureKind kind :
         {GroupMeasureKind::kBm, GroupMeasureKind::kBmStar, GroupMeasureKind::kGreedy,
          GroupMeasureKind::kUpperBound, GroupMeasureKind::kBinaryJaccard,
          GroupMeasureKind::kSingleBest, GroupMeasureKind::kContainment}) {
      const double forward =
          EvaluateGroupMeasure(kind, graph, graph.num_left(), graph.num_right());
      const double backward = EvaluateGroupMeasure(kind, transposed,
                                                   transposed.num_left(),
                                                   transposed.num_right());
      EXPECT_NEAR(forward, backward, 1e-9)
          << GroupMeasureKindName(kind) << " trial " << trial;
    }
  }
}

// Parameterized sweep: BM monotonicity in θ — raising θ can only drop
// edges, and BM computed on the θ-graph never increases.
class BmThetaSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BmThetaSweepTest, BmNonIncreasingInTheta) {
  Rng rng(GetParam());
  const Dataset dataset = TwoGroups(5, 6);
  std::vector<std::vector<double>> sims(30, std::vector<double>(30, 0.0));
  for (int a = 0; a < 11; ++a) {
    for (int b = 0; b < 11; ++b) {
      const double s = rng.UniformDouble();
      sims[a][b] = s;
      sims[b][a] = s;
    }
  }
  const auto sim = [&](int32_t a, int32_t b) { return sims[a][b]; };
  double previous = 2.0;
  for (const double theta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const BipartiteGraph graph = BuildSimilarityGraph(dataset, 0, 1, sim, theta);
    const double bm = BmMeasure(graph, 5, 6).value;
    EXPECT_LE(bm, previous + 1e-9);
    previous = bm;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmThetaSweepTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace grouplink
