#include "core/edge_join.h"

#include <gtest/gtest.h>

#include <string>

#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"
#include "data/household_generator.h"
#include "eval/metrics.h"

namespace grouplink {
namespace {

BibliographicConfig SmallConfig() {
  BibliographicConfig config;
  config.num_entities = 60;
  config.noise = 0.2;
  config.seed = 99;
  return config;
}

LinkageConfig EdgeJoinLinkage(double join_jaccard = 0.15) {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  config.use_edge_join = true;
  config.join_jaccard = join_jaccard;
  return config;
}

TEST(EdgeJoinTest, MatchesPerPairPipelineOnBibliographicData) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig per_pair = EdgeJoinLinkage();
  per_pair.use_edge_join = false;
  per_pair.candidates = CandidateMethod::kAllPairs;
  const auto a = RunGroupLinkage(dataset, EdgeJoinLinkage());
  const auto b = RunGroupLinkage(dataset, per_pair);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->linked_pairs, b->linked_pairs);
}

TEST(EdgeJoinTest, MatchesPerPairPipelineOnHouseholdData) {
  HouseholdConfig config;
  config.num_households = 80;
  config.noise = 0.25;
  const Dataset dataset = GenerateHouseholds(config);
  LinkageConfig per_pair = EdgeJoinLinkage();
  per_pair.use_edge_join = false;
  per_pair.candidates = CandidateMethod::kAllPairs;
  const auto a = RunGroupLinkage(dataset, EdgeJoinLinkage());
  const auto b = RunGroupLinkage(dataset, per_pair);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->linked_pairs, b->linked_pairs);
}

TEST(EdgeJoinTest, StatsAreConsistent) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();
  EXPECT_GT(report.StageCounter("join", "record_candidates"), 0);
  EXPECT_GT(report.StageCounter("join", "edges"), 0);
  EXPECT_LE(report.StageCounter("join", "edges"),
            report.StageCounter("join", "record_candidates"));
  EXPECT_GT(report.StageCounter("bucket", "group_pairs"), 0);
  EXPECT_EQ(report.StageCounter("bucket", "group_pairs"),
            report.StageCounter("score", "ub_pruned") +
                report.StageCounter("score", "lb_accepted") +
                report.StageCounter("score", "refined"));
  EXPECT_EQ(report.StageCounter("score", "linked"),
            static_cast<int64_t>(result->linked_pairs.size()));
}

TEST(EdgeJoinTest, LinkedPairsSortedAndOriented) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::is_sorted(result->linked_pairs.begin(), result->linked_pairs.end()));
  for (const auto& [g1, g2] : result->linked_pairs) {
    EXPECT_LT(g1, g2);
    EXPECT_GE(g1, 0);
    EXPECT_LT(g2, dataset.num_groups());
  }
}

TEST(EdgeJoinTest, ClusteringStillComputed) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->group_cluster.size(), static_cast<size_t>(dataset.num_groups()));
  for (const auto& [g1, g2] : result->linked_pairs) {
    EXPECT_EQ(result->group_cluster[static_cast<size_t>(g1)],
              result->group_cluster[static_cast<size_t>(g2)]);
  }
}

TEST(EdgeJoinTest, QualityComparableToExhaustive) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage(0.3));
  ASSERT_TRUE(result.ok());
  const PairMetrics metrics = EvaluatePairs(result->linked_pairs, dataset.TruePairs());
  EXPECT_GT(metrics.f1, 0.9);
}

TEST(EdgeJoinTest, DisablingBoundsForcesRefineEverywhere) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig config = EdgeJoinLinkage();
  config.use_upper_bound_filter = false;
  config.use_lower_bound_accept = false;
  const auto result = RunGroupLinkage(dataset, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->report().StageCounter("score", "ub_pruned"), 0);
  EXPECT_EQ(result->report().StageCounter("score", "lb_accepted"), 0);
  EXPECT_EQ(result->report().StageCounter("score", "refined"),
            result->report().StageCounter("bucket", "group_pairs"));
  // Output unchanged (bounds are an optimization, never a semantics change).
  const auto with_bounds = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(with_bounds.ok());
  EXPECT_EQ(result->linked_pairs, with_bounds->linked_pairs);
}

TEST(EdgeJoinTest, OutputIdenticalAcrossThreadCounts) {
  // The determinism contract of the parallel edge join: linked pairs,
  // clustering, and every join/bucket counter are bit-identical for any
  // thread count (sharded join merged in shard order; buckets scored into
  // preallocated slots). Seeded workload; 7 threads exercises uneven
  // shard sizes.
  BibliographicConfig data_config = SmallConfig();
  data_config.num_entities = 80;
  const Dataset dataset = GenerateBibliographic(data_config);

  LinkageConfig serial = EdgeJoinLinkage();
  serial.num_threads = 1;
  const auto reference = RunGroupLinkage(dataset, serial);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->report().StageCounter("join", "threads_used"), 1);

  for (const int32_t threads : {2, 7}) {
    LinkageConfig parallel = EdgeJoinLinkage();
    parallel.num_threads = threads;
    const auto result = RunGroupLinkage(dataset, parallel);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->linked_pairs, reference->linked_pairs) << threads;
    EXPECT_EQ(result->group_cluster, reference->group_cluster) << threads;
    const RunReport& got = result->report();
    const RunReport& want = reference->report();
    for (const auto& [stage, counter] :
         {std::pair<const char*, const char*>{"join", "record_candidates"},
          {"join", "edges"},
          {"bucket", "group_pairs"},
          {"score", "ub_pruned"},
          {"score", "lb_accepted"},
          {"score", "refined"},
          {"score", "linked"}}) {
      EXPECT_EQ(got.StageCounter(stage, counter), want.StageCounter(stage, counter))
          << stage << "/" << counter << " @ " << threads;
    }
    EXPECT_EQ(got.StageCounter("join", "threads_used"), threads);
  }
}

TEST(EdgeJoinTest, DirectCallHonorsExternalPool) {
  // Tiny hand-built workload so EdgeJoinLink can be exercised directly: a
  // caller-owned pool must be used (threads_used reports its size) and the
  // output must match the serial call.
  Dataset dataset;
  std::vector<std::vector<int32_t>> record_tokens;
  const auto add = [&](const std::string& id,
                       std::vector<std::vector<int32_t>> token_sets) {
    Group group;
    group.id = id;
    for (std::vector<int32_t>& tokens : token_sets) {
      Record record;
      record.id = id + std::to_string(group.record_ids.size());
      group.record_ids.push_back(static_cast<int32_t>(dataset.records.size()));
      dataset.records.push_back(std::move(record));
      record_tokens.push_back(std::move(tokens));
    }
    dataset.groups.push_back(std::move(group));
  };
  add("a", {{0, 1, 2}, {3, 4, 5}});
  add("b", {{0, 1, 2}, {3, 4, 5}});
  add("c", {{6, 7, 8}});
  const std::vector<int32_t> record_group = dataset.RecordToGroup();
  // Token-overlap similarity: identical sets score 1, disjoint 0.
  const RecordSimFn sim = [&](int32_t a, int32_t b) {
    return record_tokens[static_cast<size_t>(a)] ==
                   record_tokens[static_cast<size_t>(b)]
               ? 1.0
               : 0.0;
  };

  FilterRefineConfig ladder;
  ladder.theta = 0.5;
  ladder.group_threshold = 0.3;
  const double join_jaccard = 0.5;

  RunReport serial_report;
  const auto serial = EdgeJoinLink(dataset, record_tokens, 9, record_group, sim,
                                   ladder, join_jaccard, &serial_report);
  EXPECT_EQ(serial_report.StageCounter("join", "threads_used"), 1);

  ThreadPool pool(3);
  RunReport pooled_report;
  const auto pooled = EdgeJoinLink(dataset, record_tokens, 9, record_group, sim,
                                   ladder, join_jaccard, &pooled_report, &pool);
  EXPECT_EQ(pooled_report.StageCounter("join", "threads_used"), 3);
  EXPECT_EQ(pooled, serial);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0], std::make_pair(0, 1));
  EXPECT_EQ(pooled_report.StageCounter("join", "edges"),
            serial_report.StageCounter("join", "edges"));
  EXPECT_EQ(pooled_report.StageCounter("bucket", "group_pairs"),
            serial_report.StageCounter("bucket", "group_pairs"));
}

TEST(EdgeJoinTest, DirectCallOnTinyDataset) {
  // Two groups of two identical singleton texts, one unrelated group.
  Dataset dataset;
  const auto add = [&](const std::string& id, std::vector<std::string> texts) {
    Group group;
    group.id = id;
    for (const std::string& text : texts) {
      Record record;
      record.id = id + std::to_string(group.record_ids.size());
      record.text = text;
      group.record_ids.push_back(static_cast<int32_t>(dataset.records.size()));
      dataset.records.push_back(std::move(record));
    }
    dataset.groups.push_back(std::move(group));
  };
  add("a", {"alpha beta gamma", "delta epsilon zeta"});
  add("b", {"alpha beta gamma", "delta epsilon zeta"});
  add("c", {"omega psi chi"});

  auto engine_or = LinkageEngine::Create(&dataset, EdgeJoinLinkage());
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  const LinkageResult result = engine.Run();
  ASSERT_EQ(result.linked_pairs.size(), 1u);
  EXPECT_EQ(result.linked_pairs[0], std::make_pair(0, 1));
}

}  // namespace
}  // namespace grouplink
