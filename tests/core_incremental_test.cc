#include "core/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "data/bibliographic_generator.h"
#include "eval/metrics.h"

namespace grouplink {
namespace {

LinkageConfig TestConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

Dataset SeedDataset(int32_t entities = 50, uint64_t seed = 77) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.2;
  config.num_topics = 6;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return GenerateBibliographic(config);
}

std::vector<std::string> GroupTexts(const Dataset& dataset, int32_t group) {
  std::vector<std::string> texts;
  for (const int32_t r : dataset.groups[static_cast<size_t>(group)].record_ids) {
    texts.push_back(dataset.records[static_cast<size_t>(r)].text);
  }
  return texts;
}

TEST(IncrementalLinkerTest, CreateReproducesBatchLinks) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  // The comparator must run the *normalized* configuration (token-blocking
  // candidates, BM measure) that the streaming semantics are defined
  // against — engine_config() returns exactly that.
  const auto batch = RunGroupLinkage(dataset, linker->engine_config());
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(linker->linked_pairs(), batch->linked_pairs);
  EXPECT_EQ(linker->num_groups(), dataset.num_groups());
  EXPECT_EQ(linker->num_alive_groups(), dataset.num_groups());
  EXPECT_EQ(linker->epoch(), 1);
}

TEST(IncrementalLinkerTest, EngineConfigIsNormalized) {
  LinkageConfig config = TestConfig();
  config.candidates = CandidateMethod::kRecordJoin;
  config.representation = RecordRepresentation::kCharacterQGrams;
  config.measure = GroupMeasureKind::kGreedy;
  config.use_edge_join = true;
  auto linker = IncrementalLinker::Create(SeedDataset(10), config);
  ASSERT_TRUE(linker.ok());
  const LinkageConfig& normalized = linker->engine_config();
  EXPECT_EQ(normalized.candidates, CandidateMethod::kBlocking);
  EXPECT_EQ(normalized.blocking, BlockingScheme::kToken);
  EXPECT_EQ(normalized.measure, GroupMeasureKind::kBm);
  EXPECT_EQ(normalized.representation, RecordRepresentation::kWordTokens);
  EXPECT_FALSE(normalized.use_edge_join);
  EXPECT_DOUBLE_EQ(normalized.theta, config.theta);
  EXPECT_DOUBLE_EQ(normalized.group_threshold, config.group_threshold);
}

TEST(IncrementalLinkerTest, CreateRejectsInvalidDataset) {
  Dataset bad;
  Record record;
  record.id = "r";
  record.text = "orphan";
  bad.records.push_back(record);  // Record in no group.
  EXPECT_FALSE(IncrementalLinker::Create(bad, TestConfig()).ok());
}

TEST(IncrementalLinkerTest, StreamingConfigRejectsBadValues) {
  StreamingConfig negative;
  negative.refresh_every_n_groups = -1;
  EXPECT_FALSE(negative.Validate().ok());
  StreamingConfig ratio;
  ratio.refresh_on_oov_ratio = 1.5;
  EXPECT_FALSE(ratio.Validate().ok());
  // NaN fails every range comparison; without an explicit check it would
  // silently switch the OOV trigger off.
  StreamingConfig nan_ratio;
  nan_ratio.refresh_on_oov_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(nan_ratio.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(StreamingConfig().Validate().ok());

  EXPECT_FALSE(IncrementalLinker::Create(SeedDataset(10), TestConfig(), negative).ok());
  const auto created = IncrementalLinker::Create(SeedDataset(10), TestConfig(), nan_ratio);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(created.status().message().find("StreamingConfig: refresh_on_oov_ratio"),
            std::string::npos)
      << created.status().message();
}

TEST(IncrementalLinkerTest, DuplicateGroupLinksToItsTwin) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  // Re-add an existing group's exact record texts as a new group.
  const int32_t twin = 3;
  const auto added = linker->AddGroup("twin", GroupTexts(dataset, twin));
  EXPECT_EQ(added.group_index, dataset.num_groups());
  EXPECT_TRUE(std::find(added.linked_to.begin(), added.linked_to.end(), twin) !=
              added.linked_to.end());
}

TEST(IncrementalLinkerTest, UnrelatedGroupStaysUnlinked) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto added = linker->AddGroup(
      "stranger", {"zzqx wvut completely alien nonsense", "qqqq pppp rrrr"});
  EXPECT_TRUE(added.linked_to.empty());
  // Every token of the stranger is new to the epoch vocabulary.
  EXPECT_GT(added.oov_tokens, 0u);
  EXPECT_GT(linker->EpochOovRatio(), 0.0);
}

TEST(IncrementalLinkerTest, BatchAddEqualsSequentialAdds) {
  const Dataset dataset = SeedDataset(30, 11);
  const Dataset extra = SeedDataset(12, 99);

  std::vector<GroupArrival> batch;
  for (int32_t g = 0; g < extra.num_groups(); ++g) {
    batch.push_back({extra.groups[static_cast<size_t>(g)].label,
                     GroupTexts(extra, g)});
  }

  auto batched = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(batched.ok());
  const auto results = batched->AddGroups(batch);
  ASSERT_EQ(results.size(), batch.size());

  auto sequential = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(sequential.ok());
  for (const GroupArrival& arrival : batch) {
    sequential->AddGroup(arrival.label, arrival.record_texts);
  }

  EXPECT_EQ(batched->linked_pairs(), sequential->linked_pairs());
  EXPECT_EQ(batched->ClusterLabels(), sequential->ClusterLabels());
}

TEST(IncrementalLinkerTest, RemoveGroupDropsItsLinks) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  ASSERT_FALSE(linker->linked_pairs().empty());

  const int32_t victim = linker->linked_pairs().front().first;
  const int32_t alive_before = linker->num_alive_groups();
  linker->RemoveGroup(victim);
  EXPECT_FALSE(linker->IsAlive(victim));
  EXPECT_EQ(linker->num_alive_groups(), alive_before - 1);
  for (const auto& [a, b] : linker->linked_pairs()) {
    EXPECT_NE(a, victim);
    EXPECT_NE(b, victim);
  }
  // The tombstoned slot keeps its index and clusters as a singleton.
  const auto labels = linker->ClusterLabels();
  EXPECT_EQ(labels.size(), static_cast<size_t>(linker->num_groups()));
}

TEST(IncrementalLinkerTest, RemovedGroupStopsGeneratingCandidates) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  const int32_t twin = 5;
  linker->RemoveGroup(twin);
  // A copy of the removed group must not link back to the tombstone.
  const auto added = linker->AddGroup("twin", GroupTexts(dataset, twin));
  EXPECT_TRUE(std::find(added.linked_to.begin(), added.linked_to.end(), twin) ==
              added.linked_to.end());
}

TEST(IncrementalLinkerTest, MergeGroupsCombinesRecordsAndRescores) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  ASSERT_FALSE(linker->linked_pairs().empty());

  const auto [into, from] = linker->linked_pairs().front();
  const int32_t alive_before = linker->num_alive_groups();
  const auto merged = linker->MergeGroups(into, from);
  EXPECT_EQ(merged.group_index, into);
  EXPECT_TRUE(linker->IsAlive(into));
  EXPECT_FALSE(linker->IsAlive(from));
  EXPECT_EQ(linker->num_alive_groups(), alive_before - 1);
  for (const auto& [a, b] : linker->linked_pairs()) {
    EXPECT_NE(a, from);
    EXPECT_NE(b, from);
  }
  // A twin of the merged group's former partner still links to the
  // combined group: merging must not lose its records.
  const auto twin = linker->AddGroup("twin", GroupTexts(dataset, from));
  EXPECT_TRUE(std::find(twin.linked_to.begin(), twin.linked_to.end(), into) !=
              twin.linked_to.end());
}

TEST(IncrementalLinkerTest, RefreshEveryNGroupsPolicyTriggers) {
  const Dataset dataset = SeedDataset(20);
  StreamingConfig streaming;
  streaming.refresh_every_n_groups = 2;
  auto linker = IncrementalLinker::Create(dataset, TestConfig(), streaming);
  ASSERT_TRUE(linker.ok());
  ASSERT_EQ(linker->epoch(), 1);

  const auto first = linker->AddGroup("a", {"streaming refresh policy one"});
  EXPECT_FALSE(first.triggered_refresh);
  EXPECT_EQ(linker->groups_since_refresh(), 1);
  const auto second = linker->AddGroup("b", {"streaming refresh policy two"});
  EXPECT_TRUE(second.triggered_refresh);
  EXPECT_EQ(linker->groups_since_refresh(), 0);
  EXPECT_EQ(linker->epoch(), 2);
}

TEST(IncrementalLinkerTest, OovRatioPolicyTriggers) {
  const Dataset dataset = SeedDataset(20);
  StreamingConfig streaming;
  streaming.refresh_on_oov_ratio = 0.5;
  auto linker = IncrementalLinker::Create(dataset, TestConfig(), streaming);
  ASSERT_TRUE(linker.ok());

  // Fully out-of-vocabulary arrival: OOV ratio 1.0 > 0.5 forces a refresh,
  // which folds the new tokens into the epoch statistics.
  const auto added = linker->AddGroup("alien", {"xqzv wbtk pflm"});
  EXPECT_TRUE(added.triggered_refresh);
  EXPECT_EQ(linker->epoch(), 2);
  EXPECT_DOUBLE_EQ(linker->EpochOovRatio(), 0.0);
}

TEST(IncrementalLinkerTest, ClusterLabelsReflectNewLinks) {
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  const int32_t twin = 0;
  const auto added = linker->AddGroup("twin", GroupTexts(dataset, twin));
  ASSERT_FALSE(added.linked_to.empty());
  const auto labels = linker->ClusterLabels();
  ASSERT_EQ(labels.size(), static_cast<size_t>(linker->num_groups()));
  EXPECT_EQ(labels[static_cast<size_t>(added.group_index)],
            labels[static_cast<size_t>(added.linked_to.front())]);
}

TEST(IncrementalLinkerTest, ClusterLabelsStayStableAcrossUnrelatedArrivals) {
  // Regression: the union-find is maintained incrementally, so an arrival
  // that links to nothing must leave every existing group's label intact
  // and claim a fresh label for itself.
  const Dataset dataset = SeedDataset();
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  const auto before = linker->ClusterLabels();
  const auto added = linker->AddGroup("stranger", {"xxyy zzww unique gibberish"});
  ASSERT_TRUE(added.linked_to.empty());
  const auto after = linker->ClusterLabels();
  ASSERT_EQ(after.size(), before.size() + 1);
  for (size_t g = 0; g < before.size(); ++g) {
    EXPECT_EQ(after[g], before[g]) << "label of group " << g << " drifted";
  }
  EXPECT_EQ(after.back(), before.size() == 0
                              ? 0
                              : 1 + *std::max_element(before.begin(), before.end()));
}

TEST(IncrementalLinkerTest, StreamedGroupsRecoverHeldOutLinks) {
  // Seed with the first 70% of groups; stream the rest; evaluate the full
  // accumulated linkage against the full ground truth.
  const Dataset full = SeedDataset(60);
  const int32_t held_out_start = full.num_groups() * 7 / 10;

  // Rebuild a self-contained seed dataset from the kept groups.
  Dataset seed;
  for (int32_t g = 0; g < held_out_start; ++g) {
    Group group = full.groups[static_cast<size_t>(g)];
    Group rebased;
    rebased.id = group.id;
    rebased.label = group.label;
    for (const int32_t r : group.record_ids) {
      rebased.record_ids.push_back(static_cast<int32_t>(seed.records.size()));
      seed.records.push_back(full.records[static_cast<size_t>(r)]);
    }
    seed.groups.push_back(std::move(rebased));
    seed.group_entities.push_back(full.group_entities[static_cast<size_t>(g)]);
  }
  ASSERT_TRUE(seed.Validate().ok());

  auto linker = IncrementalLinker::Create(seed, TestConfig());
  ASSERT_TRUE(linker.ok());
  for (int32_t g = held_out_start; g < full.num_groups(); ++g) {
    const auto added =
        linker->AddGroup(full.groups[static_cast<size_t>(g)].label, GroupTexts(full, g));
    EXPECT_EQ(added.group_index, g);
  }

  // Group indexes line up with `full` by construction, so evaluate
  // directly against its ground truth.
  const PairMetrics metrics = EvaluatePairs(linker->linked_pairs(), full.TruePairs());
  EXPECT_GT(metrics.f1, 0.85) << "P=" << metrics.precision
                              << " R=" << metrics.recall;
}

TEST(IncrementalLinkerTest, LinkedPairsStayOrientedAndSorted) {
  const Dataset dataset = SeedDataset(20);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  linker->AddGroup("g1", {"query optimization in large databases sigmod 1999"});
  linker->AddGroup("g2", {"query optimization in large databases sigmod 1999"});
  const auto& pairs = linker->linked_pairs();
  for (const auto& [a, b] : pairs) {
    EXPECT_LT(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(b, linker->num_groups());
  }
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
}

}  // namespace
}  // namespace grouplink
