#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/simd_dispatch.h"
#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"

namespace grouplink {
namespace {

// End-to-end SIMD/scalar differential on an E5-shaped workload: the
// dispatched kernel path must produce the exact same link set as the
// forced-scalar path, at every thread count. This is the PR 1 determinism
// contract extended to instruction sets — a run's links never depend on
// the machine it landed on.

BibliographicConfig E5ShapedConfig() {
  // Same shape as bench_e5's HardBibliographic, scaled down to test size:
  // confusable topics, moderate dirtiness.
  BibliographicConfig config;
  config.num_entities = 60;
  config.noise = 0.25;
  config.num_topics = 6;
  config.offtopic_word_prob = 0.5;
  config.seed = 42;
  return config;
}

LinkageConfig E5Linkage(bool edge_join, int32_t threads) {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  config.use_edge_join = edge_join;
  config.num_threads = threads;
  return config;
}

std::vector<std::pair<int32_t, int32_t>> RunLinks(const Dataset& dataset,
                                                  const LinkageConfig& config) {
  auto engine_or = LinkageEngine::Create(&dataset, config);
  EXPECT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  return engine.Run().linked_pairs;
}

class SimdDifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearSimdLevelForTesting(); }
};

TEST_F(SimdDifferentialTest, EdgeJoinLinksIdenticalScalarVsDispatched) {
  const Dataset dataset = GenerateBibliographic(E5ShapedConfig());

  SetSimdLevelForTesting(SimdLevel::kScalar);
  const auto scalar_links = RunLinks(dataset, E5Linkage(true, 1));
  ASSERT_FALSE(scalar_links.empty());

  ClearSimdLevelForTesting();  // Dispatched: whatever the CPU supports.
  for (const int32_t threads : {1, 2, 7}) {
    const auto links = RunLinks(dataset, E5Linkage(true, threads));
    EXPECT_EQ(links, scalar_links)
        << "dispatched edge join diverged from scalar at " << threads
        << " threads (kernel " << SimdLevelName(ActiveSimdLevel()) << ")";
  }
}

TEST_F(SimdDifferentialTest, PerPairLinksIdenticalScalarVsDispatched) {
  const Dataset dataset = GenerateBibliographic(E5ShapedConfig());

  SetSimdLevelForTesting(SimdLevel::kScalar);
  const auto scalar_links = RunLinks(dataset, E5Linkage(false, 1));
  ASSERT_FALSE(scalar_links.empty());

  ClearSimdLevelForTesting();
  for (const int32_t threads : {1, 2, 7}) {
    const auto links = RunLinks(dataset, E5Linkage(false, threads));
    EXPECT_EQ(links, scalar_links)
        << "dispatched per-pair run diverged from scalar at " << threads
        << " threads";
  }
}

TEST_F(SimdDifferentialTest, EveryTierAgreesOnEveryStrategy) {
  const Dataset dataset = GenerateBibliographic(E5ShapedConfig());
  for (const bool edge_join : {false, true}) {
    std::vector<std::pair<int32_t, int32_t>> reference;
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
      SetSimdLevelForTesting(level);  // Clamped to real CPU capability.
      const auto links = RunLinks(dataset, E5Linkage(edge_join, 1));
      if (level == SimdLevel::kScalar) {
        reference = links;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(links, reference)
            << "tier " << SimdLevelName(level) << " edge_join=" << edge_join;
      }
    }
  }
}

TEST_F(SimdDifferentialTest, BatchedPathMatchesCustomSimPath) {
  // Run(sim) scores per pair through the std::function; Run() scores
  // through the batched VectorStore kernels. Passing the engine's own
  // default similarity as the custom sim must yield identical links —
  // the strongest per-pair vs batched equivalence we can assert. (A
  // custom sim never takes the edge join, whose postings only compute
  // the default similarity.)
  const Dataset dataset = GenerateBibliographic(E5ShapedConfig());
  auto batched_or = LinkageEngine::Create(&dataset, E5Linkage(false, 1));
  ASSERT_TRUE(batched_or.ok());
  LinkageEngine& batched = *batched_or;
  const auto batched_links = batched.Run().linked_pairs;

  auto per_pair_or = LinkageEngine::Create(&dataset, E5Linkage(false, 1));
  ASSERT_TRUE(per_pair_or.ok());
  LinkageEngine& per_pair = *per_pair_or;
  const auto per_pair_links =
      per_pair
          .Run([&per_pair](int32_t a, int32_t b) {
            return per_pair.DefaultRecordSimilarity(a, b);
          })
          .linked_pairs;
  EXPECT_EQ(batched_links, per_pair_links);
}

TEST_F(SimdDifferentialTest, CustomSimNeverTakesTheEdgeJoin) {
  const Dataset dataset = GenerateBibliographic(E5ShapedConfig());
  auto engine_or = LinkageEngine::Create(&dataset, E5Linkage(true, 1));
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  const LinkageResult result = engine.Run(
      [&engine](int32_t a, int32_t b) { return engine.DefaultRecordSimilarity(a, b); });
  EXPECT_EQ(result.report().strategy, "per-pair");
  EXPECT_EQ(result.report().FindStage("join"), nullptr);
  EXPECT_EQ(result.linked_pairs, RunLinks(dataset, E5Linkage(false, 1)));
}

TEST_F(SimdDifferentialTest, ReportNamesTheActiveKernel) {
  const Dataset dataset = GenerateBibliographic(E5ShapedConfig());
  SetSimdLevelForTesting(SimdLevel::kScalar);
  auto engine_or = LinkageEngine::Create(&dataset, E5Linkage(true, 1));
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  const LinkageResult result = engine.Run();
  EXPECT_EQ(result.report().kernel, "scalar");
  // The edge join attributes its accumulation work in its report.
  EXPECT_GT(result.report().StageCounter("join", "postings_scanned"), 0);
}

}  // namespace
}  // namespace grouplink
