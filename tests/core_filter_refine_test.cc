#include "core/filter_refine.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "index/candidates.h"

namespace grouplink {
namespace {

// A random dataset of `num_groups` groups with sizes in [1, max_size] and
// a symmetric random similarity lookup table.
struct RandomInstance {
  Dataset dataset;
  std::vector<std::vector<double>> sims;

  RecordSimFn SimFn() const {
    return [this](int32_t a, int32_t b) { return sims[a][b]; };
  }
};

RandomInstance MakeInstance(Rng& rng, int32_t num_groups, int32_t max_size) {
  RandomInstance instance;
  std::vector<int32_t> record_group;
  for (int32_t g = 0; g < num_groups; ++g) {
    const int64_t size = rng.UniformInt(1, max_size);
    for (int64_t i = 0; i < size; ++i) record_group.push_back(g);
  }
  std::vector<Record> records(record_group.size());
  for (size_t r = 0; r < records.size(); ++r) {
    records[r].id = std::to_string(r);
    records[r].text = "record " + std::to_string(r);
  }
  auto dataset = MakeDataset(std::move(records), record_group, num_groups);
  instance.dataset = std::move(dataset.value());

  const size_t n = instance.dataset.records.size();
  instance.sims.assign(n, std::vector<double>(n, 0.0));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a; b < n; ++b) {
      // Mix of strong and weak similarities.
      const double s = rng.Bernoulli(0.3) ? 0.5 + 0.5 * rng.UniformDouble()
                                          : 0.5 * rng.UniformDouble();
      instance.sims[a][b] = s;
      instance.sims[b][a] = s;
    }
  }
  for (size_t a = 0; a < n; ++a) instance.sims[a][a] = 1.0;
  return instance;
}

// The reference path: exact BM on every candidate, both bounds off.
FilterRefineConfig NoBounds(FilterRefineConfig config) {
  config.use_upper_bound_filter = false;
  config.use_lower_bound_accept = false;
  return config;
}

TEST(FilterRefineTest, EquivalentToBruteForceAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomInstance instance = MakeInstance(rng, 10, 5);
    const auto candidates = AllGroupPairs(instance.dataset.num_groups());

    FilterRefineConfig config;
    config.theta = 0.55;
    config.group_threshold = 0.35;

    StageStats fast_stage;
    const auto fast = FilterRefineLink(instance.dataset, instance.SimFn(), candidates,
                                       config, &fast_stage);
    StageStats slow_stage;
    const auto slow = FilterRefineLink(instance.dataset, instance.SimFn(), candidates,
                                       NoBounds(config), &slow_stage);
    EXPECT_EQ(fast, slow) << "seed " << seed;
    EXPECT_EQ(fast_stage.Counter("linked"), slow_stage.Counter("linked"));
    EXPECT_EQ(slow_stage.Counter("ub_pruned"), 0);
    EXPECT_EQ(slow_stage.Counter("lb_accepted"), 0);
  }
}

TEST(FilterRefineTest, StatsPartitionCandidates) {
  Rng rng(99);
  RandomInstance instance = MakeInstance(rng, 12, 4);
  const auto candidates = AllGroupPairs(instance.dataset.num_groups());
  FilterRefineConfig config;
  config.theta = 0.5;
  config.group_threshold = 0.4;
  StageStats stage;
  // The stage counters are the subject under test; the link set is not.
  (void)FilterRefineLink(instance.dataset, instance.SimFn(), candidates, config, &stage);
  EXPECT_EQ(stage.Counter("candidates"), static_cast<int64_t>(candidates.size()));
  EXPECT_EQ(stage.Counter("candidates"),
            stage.Counter("empty_graphs") + stage.Counter("ub_pruned") +
                stage.Counter("lb_accepted") + stage.Counter("refined"));
}

TEST(FilterRefineTest, BoundsActuallyPruneAndAccept) {
  Rng rng(7);
  RandomInstance instance = MakeInstance(rng, 20, 5);
  const auto candidates = AllGroupPairs(instance.dataset.num_groups());
  FilterRefineConfig config;
  config.theta = 0.5;
  config.group_threshold = 0.4;
  StageStats stage;
  // The stage counters are the subject under test; the link set is not.
  (void)FilterRefineLink(instance.dataset, instance.SimFn(), candidates, config, &stage);
  // On random data at these thresholds both bound paths should fire, and
  // refine should handle strictly fewer pairs than the candidate count.
  EXPECT_GT(stage.Counter("ub_pruned") + stage.Counter("empty_graphs"), 0);
  EXPECT_LT(stage.Counter("refined"), stage.Counter("candidates"));
}

TEST(FilterRefineTest, DisablingBoundsForcesRefine) {
  Rng rng(13);
  RandomInstance instance = MakeInstance(rng, 8, 4);
  const auto candidates = AllGroupPairs(instance.dataset.num_groups());
  FilterRefineConfig config;
  config.theta = 0.5;
  config.group_threshold = 0.4;
  config.use_upper_bound_filter = false;
  config.use_lower_bound_accept = false;
  StageStats stage;
  // The stage counters are the subject under test; the link set is not.
  (void)FilterRefineLink(instance.dataset, instance.SimFn(), candidates, config, &stage);
  EXPECT_EQ(stage.Counter("ub_pruned"), 0);
  EXPECT_EQ(stage.Counter("lb_accepted"), 0);
  EXPECT_EQ(stage.Counter("refined") + stage.Counter("empty_graphs"),
            stage.Counter("candidates"));
}

TEST(FilterRefineTest, ThresholdOneOnlyLinksIdenticalGroups) {
  // Two identical singleton groups (similarity 1) and one different group.
  std::vector<Record> records(3);
  for (int i = 0; i < 3; ++i) records[i].id = std::to_string(i);
  auto dataset = MakeDataset(std::move(records), {0, 1, 2}, 3);
  ASSERT_TRUE(dataset.ok());
  const auto sim = [](int32_t a, int32_t b) {
    if (a == b) return 1.0;
    return (a < 2 && b < 2) ? 1.0 : 0.2;
  };
  FilterRefineConfig config;
  config.theta = 0.5;
  config.group_threshold = 1.0;
  const auto linked =
      FilterRefineLink(*dataset, sim, AllGroupPairs(3), config, nullptr);
  ASSERT_EQ(linked.size(), 1u);
  EXPECT_EQ(linked[0], std::make_pair(0, 1));
}

TEST(FilterRefineTest, NullStatsPointerAccepted) {
  Rng rng(3);
  RandomInstance instance = MakeInstance(rng, 4, 3);
  FilterRefineConfig config;
  EXPECT_NO_FATAL_FAILURE(FilterRefineLink(
      instance.dataset, instance.SimFn(),
      AllGroupPairs(instance.dataset.num_groups()), config, nullptr));
}

// A 2x2 θ-graph from (left, right, weight) edges.
BipartiteGraph Graph2x2(const std::vector<std::tuple<int32_t, int32_t, double>>& edges) {
  BipartiteGraph graph(2, 2);
  for (const auto& [left, right, weight] : edges) graph.AddEdge(left, right, weight);
  return graph;
}

TEST(DecideGraphRungTest, HandBuiltGraphsReachEveryRung) {
  const BipartiteGraph empty = Graph2x2({});
  // One weak edge: UB = 0.5 / 3.
  const BipartiteGraph weak = Graph2x2({{0, 0, 0.5}});
  // A perfect matching of weight-1 edges: BM = UB = 1, LB = 2 / 3.
  const BipartiteGraph perfect = Graph2x2({{0, 0, 1.0}, {1, 1, 1.0}});
  // One left record similar to both right ones: UB = 1/2, BM = LB = 1/3.
  const BipartiteGraph star = Graph2x2({{0, 0, 1.0}, {0, 1, 1.0}});

  struct Case {
    const BipartiteGraph* graph;
    double group_threshold;
    bool use_lower_bound_accept;
    int64_t max_matcher_cost;  // |g1|·|g2| = 4, so 1 trips the budget.
    LinkRung want;
  };
  const std::vector<Case> cases = {
      {&empty, 0.3, true, 0, LinkRung::kEmptyGraph},
      {&weak, 0.3, true, 0, LinkRung::kPrunedByUpperBound},
      {&perfect, 0.5, true, 0, LinkRung::kAcceptedByLowerBound},
      {&perfect, 0.8, true, 0, LinkRung::kRefinedLink},
      {&star, 0.4, true, 0, LinkRung::kRefinedNoLink},
      {&perfect, 0.5, false, 1, LinkRung::kDegradedLink},
      {&star, 0.4, true, 1, LinkRung::kDegradedNoLink},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    FilterRefineConfig config;
    config.theta = 0.5;
    config.group_threshold = c.group_threshold;
    config.use_lower_bound_accept = c.use_lower_bound_accept;
    ExecutionContext ctx;
    ctx.SetMaxMatcherCost(c.max_matcher_cost);

    const LinkRung rung = DecideGraphRung(*c.graph, 2, 2, config, &ctx);
    EXPECT_EQ(static_cast<int>(rung), static_cast<int>(c.want)) << "case " << i;
    EXPECT_FALSE(ctx.degraded()) << "case " << i;  // The caller records it.
    EXPECT_EQ(DecideGraphLinked(*c.graph, 2, 2, config, &ctx), RungLinks(rung))
        << "case " << i;
    const bool degraded =
        rung == LinkRung::kDegradedLink || rung == LinkRung::kDegradedNoLink;
    EXPECT_EQ(ctx.degraded(), degraded) << "case " << i;
  }
}

// Sweep over group thresholds: the linked set shrinks monotonically as Θ
// rises, and filter-refine stays equivalent to brute force at every Θ.
class FilterRefineThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(FilterRefineThresholdSweep, EquivalenceAtEveryTheta) {
  Rng rng(1234);
  RandomInstance instance = MakeInstance(rng, 12, 5);
  const auto candidates = AllGroupPairs(instance.dataset.num_groups());
  FilterRefineConfig config;
  config.theta = 0.5;
  config.group_threshold = GetParam();
  const auto fast =
      FilterRefineLink(instance.dataset, instance.SimFn(), candidates, config);
  const auto slow = FilterRefineLink(instance.dataset, instance.SimFn(), candidates,
                                     NoBounds(config));
  EXPECT_EQ(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FilterRefineThresholdSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace grouplink
