#include "core/linkage_engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "data/bibliographic_generator.h"
#include "eval/metrics.h"

namespace grouplink {
namespace {

BibliographicConfig SmallConfig() {
  BibliographicConfig config;
  config.num_entities = 60;
  config.noise = 0.15;
  config.seed = 2024;
  return config;
}

LinkageConfig DefaultLinkage() {
  LinkageConfig config;
  config.theta = 0.6;
  config.group_threshold = 0.3;
  return config;
}

TEST(LinkageEngineTest, PrepareRejectsBadThresholds) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig config = DefaultLinkage();
  config.theta = 0.0;
  EXPECT_FALSE(LinkageEngine::Create(&dataset, config).ok());
  config = DefaultLinkage();
  config.group_threshold = 1.5;
  EXPECT_FALSE(LinkageEngine::Create(&dataset, config).ok());
}

TEST(LinkageConfigTest, ValidateAcceptsDefaultsAndTestConfigs) {
  EXPECT_TRUE(LinkageConfig().Validate().ok());
  EXPECT_TRUE(DefaultLinkage().Validate().ok());
}

TEST(LinkageConfigTest, ValidateRejectsEachBadField) {
  const auto rejects = [](void (*mutate)(LinkageConfig&)) {
    LinkageConfig config;
    config.theta = 0.6;
    config.group_threshold = 0.3;
    mutate(config);
    return !config.Validate().ok();
  };
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.theta = 0.0; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.theta = 1.5; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.group_threshold = -0.1; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.group_threshold = 2.0; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.binary_cutoff = 0.0; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.binary_cutoff = 1.1; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.candidate_jaccard = -0.2; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.candidate_jaccard = 1.2; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.neighborhood_window = 0; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.minhash_bands = 0; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.minhash_rows = -1; }));
  EXPECT_TRUE(rejects([](LinkageConfig& c) { c.num_threads = 0; }));
}

TEST(LinkageConfigTest, ValidateRejectsNonFiniteAndResilienceFields) {
  // NaN compares false against every range bound, so each threshold needs
  // its explicit finiteness rejection — checked here message by message,
  // alongside the deadline/budget fields.
  const auto rejection = [](void (*mutate)(LinkageConfig&)) {
    LinkageConfig config;
    config.theta = 0.6;
    config.group_threshold = 0.3;
    mutate(config);
    const Status status = config.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    return status.message();
  };
  EXPECT_EQ(rejection([](LinkageConfig& c) {
              c.theta = std::numeric_limits<double>::quiet_NaN();
            }),
            "theta must be a finite number");
  EXPECT_EQ(rejection([](LinkageConfig& c) {
              c.group_threshold = std::numeric_limits<double>::quiet_NaN();
            }),
            "group_threshold must be a finite number");
  EXPECT_EQ(rejection([](LinkageConfig& c) {
              c.binary_cutoff = std::numeric_limits<double>::quiet_NaN();
            }),
            "binary_cutoff must be a finite number");
  EXPECT_EQ(rejection([](LinkageConfig& c) {
              c.candidate_jaccard = std::numeric_limits<double>::quiet_NaN();
            }),
            "candidate_jaccard must be a finite number");
  EXPECT_EQ(rejection([](LinkageConfig& c) {
              c.deadline_ms = std::numeric_limits<double>::quiet_NaN();
            }),
            "deadline_ms must be finite and >= 0");
  EXPECT_EQ(rejection([](LinkageConfig& c) { c.deadline_ms = -1.0; }),
            "deadline_ms must be finite and >= 0");
  EXPECT_EQ(rejection([](LinkageConfig& c) { c.max_candidate_pairs = -5; }),
            "max_candidate_pairs must be >= 0");
  EXPECT_EQ(rejection([](LinkageConfig& c) { c.max_matcher_cost = -1; }),
            "max_matcher_cost must be >= 0");
  // The resilience defaults (all limits off) and explicit settings pass.
  LinkageConfig limited;
  limited.deadline_ms = 250.0;
  limited.max_candidate_pairs = 1000;
  limited.max_matcher_cost = 10000;
  EXPECT_TRUE(limited.Validate().ok());
}

TEST(LinkageConfigTest, PrepareRejectsInvalidConfig) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig config = DefaultLinkage();
  config.num_threads = 0;
  const Status status = LinkageEngine::Create(&dataset, config).status();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(LinkageEngineTest, PrepareRejectsInvalidDataset) {
  Dataset dataset;  // Empty groups vector but also no records: valid?
  Record record;
  record.id = "r";
  record.text = "text";
  dataset.records.push_back(record);  // Orphan record, no group.
  EXPECT_FALSE(LinkageEngine::Create(&dataset, DefaultLinkage()).ok());
}

TEST(LinkageEngineTest, DefaultSimilarityIdentityAndRange) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  auto engine_or = LinkageEngine::Create(&dataset, DefaultLinkage());
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  for (int32_t r = 0; r < std::min(dataset.num_records(), 20); ++r) {
    EXPECT_NEAR(engine.DefaultRecordSimilarity(r, r), 1.0, 1e-9);
    for (int32_t s = 0; s < r; ++s) {
      const double sim = engine.DefaultRecordSimilarity(r, s);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0 + 1e-9);
      EXPECT_NEAR(sim, engine.DefaultRecordSimilarity(s, r), 1e-12);
    }
  }
}

TEST(LinkageEngineTest, BlankRecordsCarryNoEvidence) {
  // Three singleton groups: two with empty texts, one with content.
  // Nothing should link — blank records are not evidence of co-reference.
  std::vector<Record> records(3);
  records[0].id = "a";
  records[0].text = "";
  records[1].id = "b";
  records[1].text = "   ...   ";  // Tokenizes to nothing.
  records[2].id = "c";
  records[2].text = "real content here";
  auto dataset = MakeDataset(std::move(records), {0, 1, 2}, 3);
  ASSERT_TRUE(dataset.ok());
  auto engine_or = LinkageEngine::Create(&*dataset, DefaultLinkage());
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  EXPECT_DOUBLE_EQ(engine.DefaultRecordSimilarity(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(engine.DefaultRecordSimilarity(0, 2), 0.0);
  const LinkageResult result = engine.Run();
  EXPECT_TRUE(result.linked_pairs.empty());
}

TEST(LinkageEngineTest, EndToEndHighQualityOnCleanData) {
  BibliographicConfig data_config = SmallConfig();
  data_config.noise = 0.05;
  const Dataset dataset = GenerateBibliographic(data_config);
  const auto result = RunGroupLinkage(dataset, DefaultLinkage());
  ASSERT_TRUE(result.ok());
  const PairMetrics metrics =
      EvaluatePairs(result->linked_pairs, dataset.TruePairs());
  EXPECT_GT(metrics.f1, 0.9) << "P=" << metrics.precision << " R=" << metrics.recall;
}

TEST(LinkageEngineTest, ClustersAreTransitiveClosureOfLinks) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto result = RunGroupLinkage(dataset, DefaultLinkage());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->group_cluster.size(), static_cast<size_t>(dataset.num_groups()));
  for (const auto& [g1, g2] : result->linked_pairs) {
    EXPECT_EQ(result->group_cluster[static_cast<size_t>(g1)],
              result->group_cluster[static_cast<size_t>(g2)]);
  }
  // Cluster count consistent with the labels.
  size_t max_label = 0;
  for (const size_t label : result->group_cluster) {
    max_label = std::max(max_label, label);
  }
  EXPECT_EQ(result->num_clusters, max_label + 1);
}

TEST(LinkageEngineTest, FilterRefineMatchesExactPipeline) {
  // Both BM strategies: the per-pair pipeline and the edge join. With
  // use_filter_refine off, neither bound may decide a single pair.
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  for (const bool edge_join : {false, true}) {
    LinkageConfig with = DefaultLinkage();
    with.use_edge_join = edge_join;
    LinkageConfig without = with;
    without.use_filter_refine = false;
    const auto fast = RunGroupLinkage(dataset, with);
    const auto slow = RunGroupLinkage(dataset, without);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    const auto bounded = [](const LinkageResult& result) {
      return result.report().StageCounter("score", "ub_pruned") +
             result.report().StageCounter("score", "lb_accepted");
    };
    EXPECT_EQ(fast->linked_pairs, slow->linked_pairs) << "edge_join=" << edge_join;
    EXPECT_GT(bounded(*fast), 0) << "edge_join=" << edge_join;
    EXPECT_EQ(bounded(*slow), 0) << "edge_join=" << edge_join;
  }
}

TEST(LinkageEngineTest, CandidateMethodsAgreeOnLinks) {
  // Record-join candidates must not lose links relative to all-pairs
  // (the join threshold is deliberately loose).
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig all_pairs = DefaultLinkage();
  all_pairs.candidates = CandidateMethod::kAllPairs;
  LinkageConfig join = DefaultLinkage();
  join.candidates = CandidateMethod::kRecordJoin;
  join.candidate_jaccard = 0.1;
  const auto a = RunGroupLinkage(dataset, all_pairs);
  const auto b = RunGroupLinkage(dataset, join);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const PairMetrics drift = EvaluatePairs(b->linked_pairs, a->linked_pairs);
  EXPECT_GT(drift.recall, 0.98);
  EXPECT_DOUBLE_EQ(drift.precision, 1.0);  // Join can only lose pairs.
}

TEST(LinkageEngineTest, BlockingCandidatesReduceWork) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig blocking = DefaultLinkage();
  blocking.candidates = CandidateMethod::kBlocking;
  blocking.blocking = BlockingScheme::kTokenPrefix;
  auto engine_or = LinkageEngine::Create(&dataset, blocking);
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  const LinkageResult result = engine.Run();
  const size_t all =
      static_cast<size_t>(dataset.num_groups()) * (dataset.num_groups() - 1) / 2;
  EXPECT_LE(static_cast<size_t>(
      result.report().StageCounter("candidates", "group_pairs")), all);
}

TEST(LinkageEngineTest, BaselineMeasuresRun) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  for (const GroupMeasureKind measure :
       {GroupMeasureKind::kGreedy, GroupMeasureKind::kUpperBound,
        GroupMeasureKind::kBinaryJaccard, GroupMeasureKind::kSingleBest}) {
    LinkageConfig config = DefaultLinkage();
    config.measure = measure;
    const auto result = RunGroupLinkage(dataset, config);
    ASSERT_TRUE(result.ok()) << GroupMeasureKindName(measure);
    const PairMetrics metrics =
        EvaluatePairs(result->linked_pairs, dataset.TruePairs());
    EXPECT_GE(metrics.f1, 0.0);
  }
}

TEST(LinkageEngineTest, SingleBestOverLinksRelativeToBm) {
  // The single-best-record baseline links any group pair sharing one close
  // record pair, so it produces at least as many links as BM at the same
  // thresholds on this data.
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig bm = DefaultLinkage();
  LinkageConfig single = DefaultLinkage();
  single.measure = GroupMeasureKind::kSingleBest;
  const auto bm_result = RunGroupLinkage(dataset, bm);
  const auto single_result = RunGroupLinkage(dataset, single);
  ASSERT_TRUE(bm_result.ok());
  ASSERT_TRUE(single_result.ok());
  EXPECT_GE(single_result->linked_pairs.size(), bm_result->linked_pairs.size());
}

TEST(LinkageEngineTest, QGramRepresentationSurvivesHeavyTypos) {
  BibliographicConfig data_config = SmallConfig();
  data_config.noise = 0.55;  // Word tokens get mangled at this rate.
  const Dataset dataset = GenerateBibliographic(data_config);
  const auto truth = dataset.TruePairs();

  // Thresholds calibrated as in benchmark E16: q-gram cosine separates at
  // a lower cut than word cosine.
  LinkageConfig words;
  words.theta = 0.35;
  words.group_threshold = 0.2;
  LinkageConfig grams = words;
  grams.representation = RecordRepresentation::kCharacterQGrams;
  const auto word_result = RunGroupLinkage(dataset, words);
  const auto gram_result = RunGroupLinkage(dataset, grams);
  ASSERT_TRUE(word_result.ok());
  ASSERT_TRUE(gram_result.ok());
  const double word_f1 = EvaluatePairs(word_result->linked_pairs, truth).f1;
  const double gram_f1 = EvaluatePairs(gram_result->linked_pairs, truth).f1;
  EXPECT_GT(gram_f1, 0.8);
  EXPECT_GT(gram_f1, word_f1);
}

TEST(LinkageEngineTest, RepresentationNames) {
  EXPECT_STREQ(RecordRepresentationName(RecordRepresentation::kWordTokens),
               "word-tokens");
  EXPECT_STREQ(RecordRepresentationName(RecordRepresentation::kCharacterQGrams),
               "char-3grams");
}

TEST(LinkageEngineTest, ParallelScoringMatchesSerial) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig serial = DefaultLinkage();
  LinkageConfig parallel = DefaultLinkage();
  parallel.num_threads = 4;
  const auto a = RunGroupLinkage(dataset, serial);
  const auto b = RunGroupLinkage(dataset, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->linked_pairs, b->linked_pairs);
  EXPECT_EQ(a->group_cluster, b->group_cluster);
  EXPECT_EQ(a->report().StageCounter("score", "ub_pruned"),
            b->report().StageCounter("score", "ub_pruned"));
  EXPECT_EQ(a->report().StageCounter("score", "refined"),
            b->report().StageCounter("score", "refined"));
}

TEST(LinkageEngineTest, AllCandidateMethodsProduceValidResults) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  for (const CandidateMethod method :
       {CandidateMethod::kAllPairs, CandidateMethod::kRecordJoin,
        CandidateMethod::kBlocking, CandidateMethod::kLabelBlocking,
        CandidateMethod::kSortedNeighborhood, CandidateMethod::kMinHash}) {
    LinkageConfig config = DefaultLinkage();
    config.candidates = method;
    const auto result = RunGroupLinkage(dataset, config);
    ASSERT_TRUE(result.ok()) << CandidateMethodName(method);
    for (const auto& [g1, g2] : result->linked_pairs) {
      EXPECT_LT(g1, g2) << CandidateMethodName(method);
      EXPECT_LT(g2, dataset.num_groups()) << CandidateMethodName(method);
    }
    EXPECT_EQ(result->group_cluster.size(),
              static_cast<size_t>(dataset.num_groups()))
        << CandidateMethodName(method);
  }
}

TEST(LinkageEngineTest, DeterministicAcrossRepeatedRuns) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto a = RunGroupLinkage(dataset, DefaultLinkage());
  const auto b = RunGroupLinkage(dataset, DefaultLinkage());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->linked_pairs, b->linked_pairs);
  EXPECT_EQ(a->group_cluster, b->group_cluster);
}

TEST(LinkageEngineTest, MinHashCandidatesKeepMostLinks) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  LinkageConfig all_pairs = DefaultLinkage();
  all_pairs.candidates = CandidateMethod::kAllPairs;
  LinkageConfig minhash = DefaultLinkage();
  minhash.candidates = CandidateMethod::kMinHash;
  const auto reference = RunGroupLinkage(dataset, all_pairs);
  const auto probabilistic = RunGroupLinkage(dataset, minhash);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(probabilistic.ok());
  const PairMetrics drift =
      EvaluatePairs(probabilistic->linked_pairs, reference->linked_pairs);
  EXPECT_DOUBLE_EQ(drift.precision, 1.0);  // Candidates only shrink.
  EXPECT_GT(drift.recall, 0.95);
}

TEST(LinkageEngineTest, HigherGroupThresholdNeverAddsLinks) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  size_t previous = static_cast<size_t>(-1);
  for (const double threshold : {0.2, 0.4, 0.6, 0.8}) {
    LinkageConfig config = DefaultLinkage();
    config.group_threshold = threshold;
    const auto result = RunGroupLinkage(dataset, config);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->linked_pairs.size(), previous);
    previous = result->linked_pairs.size();
  }
}

}  // namespace
}  // namespace grouplink
