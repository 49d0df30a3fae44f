// CorpusSnapshot property suite: a captured epoch is an immutable,
// self-consistent freeze of the linker, LinkQuery reproduces the arrival
// path's link decision exactly (proved against Clone()->AddGroup and, at
// refresh points, against a batch LinkageEngine run over the epoch
// corpus plus the probe), and admission control degrades queries without
// ever over-linking.
#include "core/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"

namespace grouplink {
namespace {

LinkageConfig TestConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

Dataset MakeCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 5;
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

// Splits `full` into a seed prefix dataset and the remaining arrivals.
void Split(const Dataset& full, int32_t seed_groups, Dataset* seed,
           std::vector<GroupArrival>* arrivals) {
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (g < seed_groups) {
      Group rebased;
      rebased.id = full.groups[static_cast<size_t>(g)].id;
      rebased.label = full.groups[static_cast<size_t>(g)].label;
      for (const int32_t r : full.groups[static_cast<size_t>(g)].record_ids) {
        rebased.record_ids.push_back(static_cast<int32_t>(seed->records.size()));
        seed->records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed->groups.push_back(std::move(rebased));
    } else {
      arrivals->push_back(
          {full.groups[static_cast<size_t>(g)].label, GroupTexts(full, g)});
    }
  }
  ASSERT_TRUE(seed->Validate().ok());
}

TEST(CorpusSnapshotTest, CaptureFreezesLinkerState) {
  const Dataset dataset = MakeCorpus(30, 7);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  const auto snapshot = CorpusSnapshot::Capture(*linker);
  EXPECT_TRUE(snapshot->CheckConsistency());
  EXPECT_EQ(snapshot->epoch(), linker->epoch());
  EXPECT_EQ(snapshot->num_groups(), linker->num_groups());
  EXPECT_EQ(snapshot->num_alive_groups(), linker->num_alive_groups());
  EXPECT_EQ(snapshot->linked_pairs(), linker->linked_pairs());
  EXPECT_EQ(snapshot->cluster_labels(), linker->ClusterLabels());
}

TEST(CorpusSnapshotTest, SnapshotSurvivesWriterMutationAndDestruction) {
  const Dataset full = MakeCorpus(30, 21);
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  Split(full, full.num_groups() - 4, &seed, &arrivals);

  std::shared_ptr<const CorpusSnapshot> snapshot;
  std::vector<std::pair<int32_t, int32_t>> frozen_links;
  int32_t frozen_groups = 0;
  {
    auto linker = IncrementalLinker::Create(seed, TestConfig());
    ASSERT_TRUE(linker.ok());
    snapshot = CorpusSnapshot::Capture(*linker);
    frozen_links = linker->linked_pairs();
    frozen_groups = linker->num_groups();
    // Mutate the writer heavily after the capture, then destroy it.
    for (const GroupArrival& arrival : arrivals) {
      (void)linker->AddGroup(arrival.label, arrival.record_texts);
    }
    linker->RemoveGroup(0);
    linker->Refresh();
  }
  // The snapshot still answers from the frozen epoch.
  EXPECT_TRUE(snapshot->CheckConsistency());
  EXPECT_EQ(snapshot->num_groups(), frozen_groups);
  EXPECT_EQ(snapshot->linked_pairs(), frozen_links);
  EXPECT_TRUE(snapshot->IsAlive(0));
  const auto result = snapshot->LinkQuery(arrivals.front());
  for (const int32_t g : result.linked_to) {
    EXPECT_LT(g, frozen_groups);
  }
}

TEST(CorpusSnapshotTest, LinkQueryMatchesCloneAddGroupExactly) {
  // The core query-equivalence property: LinkQuery(G) on a snapshot must
  // return exactly the links that adding G to a clone of the captured
  // writer would produce — same decision ladder, same frozen statistics.
  // Probes are *future* groups the epoch has never seen (OOV tokens and
  // all), plus a replayed in-corpus group (a guaranteed link).
  const Dataset full = MakeCorpus(35, 42);
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  Split(full, (2 * full.num_groups()) / 3, &seed, &arrivals);
  ASSERT_FALSE(arrivals.empty());

  auto linker = IncrementalLinker::Create(seed, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  std::vector<GroupArrival> probes = arrivals;
  probes.push_back({"replay", GroupTexts(seed, 0)});

  size_t linked_probes = 0;
  for (const GroupArrival& probe : probes) {
    const auto query = snapshot->LinkQuery(probe);
    const auto added = linker->Clone()->AddGroup(probe.label, probe.record_texts);
    EXPECT_EQ(query.linked_to, added.linked_to) << probe.label;
    EXPECT_EQ(query.candidates, added.candidates) << probe.label;
    EXPECT_EQ(query.postings_scanned, added.postings_scanned) << probe.label;
    EXPECT_EQ(query.oov_tokens, added.oov_tokens) << probe.label;
    EXPECT_FALSE(query.degraded);
    EXPECT_EQ(query.epoch, snapshot->epoch());
    if (!query.linked_to.empty()) ++linked_probes;
  }
  EXPECT_GT(linked_probes, 0u);  // The property must not hold vacuously.
}

TEST(CorpusSnapshotTest, QueryAtRefreshPointMatchesBatchEngine) {
  // At a refresh point the snapshot is a pure batch-equivalent epoch:
  // its link set is the batch engine's over the epoch corpus, bit for
  // bit, and replaying any in-corpus group as a probe — whose vectors
  // then coincide exactly with the corpus group's under the frozen
  // statistics — must link to precisely its batch partners plus itself.
  const Dataset dataset = MakeCorpus(25, 99);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const auto batch = RunGroupLinkage(dataset, linker->engine_config());
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(snapshot->linked_pairs(), batch->linked_pairs);

  std::vector<std::vector<int32_t>> partners(
      static_cast<size_t>(dataset.num_groups()));
  for (const auto& [a, b] : batch->linked_pairs) {
    partners[static_cast<size_t>(a)].push_back(b);
    partners[static_cast<size_t>(b)].push_back(a);
  }
  size_t linked_probes = 0;
  for (int32_t g = 0; g < dataset.num_groups(); ++g) {
    std::vector<int32_t> expected = partners[static_cast<size_t>(g)];
    expected.push_back(g);  // Identical groups always link.
    std::sort(expected.begin(), expected.end());
    const auto query = snapshot->LinkQuery({"replay", GroupTexts(dataset, g)});
    EXPECT_EQ(query.linked_to, expected) << "group " << g;
    if (expected.size() > 1) ++linked_probes;
  }
  EXPECT_GT(linked_probes, 0u);  // The property must not hold vacuously.
}

TEST(CorpusSnapshotTest, RemovedGroupsAreNeverReturned) {
  const Dataset dataset = MakeCorpus(25, 5);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  // Remove a group that actually links to something, so the query answer
  // is guaranteed to change.
  ASSERT_FALSE(linker->linked_pairs().empty());
  const int32_t removed = linker->linked_pairs().front().first;
  linker->RemoveGroup(removed);
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  EXPECT_TRUE(snapshot->CheckConsistency());
  EXPECT_FALSE(snapshot->IsAlive(removed));
  EXPECT_EQ(snapshot->num_alive_groups(), snapshot->num_groups() - 1);

  for (int32_t g = 0; g < dataset.num_groups(); ++g) {
    const auto query = snapshot->LinkQuery({"probe", GroupTexts(dataset, g)});
    EXPECT_EQ(std::find(query.linked_to.begin(), query.linked_to.end(), removed),
              query.linked_to.end());
  }
}

TEST(CorpusSnapshotTest, AdmissionControlDegradesButNeverOverlinks) {
  const Dataset dataset = MakeCorpus(30, 13);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const GroupArrival probe{"probe", GroupTexts(dataset, 0)};
  const auto unconstrained = snapshot->LinkQuery(probe);
  ASSERT_FALSE(unconstrained.linked_to.empty());
  ASSERT_GT(unconstrained.candidates, 1u);

  CorpusSnapshot::QueryOptions tight;
  tight.max_candidate_pairs = 1;
  const auto capped = snapshot->LinkQuery(probe, tight);
  EXPECT_TRUE(capped.degraded);
  EXPECT_LE(capped.candidates, 1u);
  EXPECT_TRUE(std::includes(unconstrained.linked_to.begin(),
                            unconstrained.linked_to.end(),
                            capped.linked_to.begin(), capped.linked_to.end()));

  // The matcher budget falls back to the sound lower bound: a subset too.
  CorpusSnapshot::QueryOptions budget;
  budget.max_matcher_cost = 1;
  const auto bounded = snapshot->LinkQuery(probe, budget);
  EXPECT_TRUE(std::includes(unconstrained.linked_to.begin(),
                            unconstrained.linked_to.end(),
                            bounded.linked_to.begin(), bounded.linked_to.end()));

  // A pre-cancelled query sheds everything but stays valid.
  CorpusSnapshot::QueryOptions cancelled;
  cancelled.cancellation.Cancel();
  const auto shed = snapshot->LinkQuery(probe, cancelled);
  EXPECT_TRUE(shed.degraded);
  EXPECT_TRUE(shed.linked_to.empty());
}

TEST(CorpusSnapshotTest, HugeDeadlineQueryEqualsTheUnconstrainedAnswer) {
  // 1e300 ms is past the steady clock's range: it must mean "no
  // deadline", not a deadline that overflowed into the past.
  const Dataset dataset = MakeCorpus(30, 13);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const GroupArrival probe{"probe", GroupTexts(dataset, 0)};
  const auto unconstrained = snapshot->LinkQuery(probe);
  ASSERT_FALSE(unconstrained.linked_to.empty());
  CorpusSnapshot::QueryOptions huge;
  huge.deadline_ms = 1e300;
  const auto answered = snapshot->LinkQuery(probe, huge);
  EXPECT_FALSE(answered.degraded);
  EXPECT_EQ(answered.linked_to, unconstrained.linked_to);
  EXPECT_EQ(answered.candidates, unconstrained.candidates);
  EXPECT_EQ(answered.postings_scanned, unconstrained.postings_scanned);
}

TEST(CorpusSnapshotTest, UnknownTokensCountAsOovAndDoNotMatch) {
  const Dataset dataset = MakeCorpus(20, 3);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const auto query = snapshot->LinkQuery(
      {"aliens", {"zzgrxk qplwv nxxthf", "vvbnmq wyzzkr"}});
  EXPECT_TRUE(query.linked_to.empty());
  EXPECT_EQ(query.candidates, 0u);
  EXPECT_EQ(query.oov_tokens, 5u);
}

// The parts of a captured snapshot, field for field.
CorpusSnapshot::Parts PartsOf(const CorpusSnapshot& snapshot) {
  CorpusSnapshot::Parts parts;
  parts.config = snapshot.engine_config();
  parts.epoch = snapshot.epoch();
  parts.index_vocab = snapshot.index_vocab();
  parts.token_index = snapshot.token_index();
  parts.epoch_vocab = snapshot.epoch_vocab();
  parts.record_vectors = snapshot.record_vectors();
  parts.record_group = snapshot.record_group();
  parts.record_token_ids = snapshot.record_token_ids();
  parts.group_records = snapshot.group_records();
  parts.group_labels = snapshot.group_labels();
  parts.group_alive = snapshot.group_alive();
  parts.num_alive_groups = snapshot.num_alive_groups();
  parts.linked_pairs = snapshot.linked_pairs();
  parts.cluster_labels = snapshot.cluster_labels();
  return parts;
}

TEST(CorpusSnapshotTest, FromPartsRejectsGroupRecordOutOfRange) {
  const Dataset dataset = MakeCorpus(10, 17);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  ASSERT_TRUE(CorpusSnapshot::FromParts(PartsOf(*snapshot)).ok());

  // One record id past the end: LinkQuery would read past the vectors.
  CorpusSnapshot::Parts parts = PartsOf(*snapshot);
  parts.group_records[0].push_back(snapshot->num_records());
  const auto rebuilt = CorpusSnapshot::FromParts(std::move(parts));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kDataLoss);
}

TEST(CorpusSnapshotTest, FromPartsRejectsMembershipTheRecordMapDisagreesWith) {
  const Dataset dataset = MakeCorpus(10, 17);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  // Group 1 also lists a record of group 0: accumulation would find that
  // record's edges in the postings and could not place them.
  CorpusSnapshot::Parts parts = PartsOf(*snapshot);
  parts.group_records[1].push_back(parts.group_records[0].front());
  auto rebuilt = CorpusSnapshot::FromParts(std::move(parts));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kDataLoss);

  // A record with a vector that no group lists.
  parts = PartsOf(*snapshot);
  parts.group_records[0].pop_back();
  rebuilt = CorpusSnapshot::FromParts(std::move(parts));
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kDataLoss);
}

TEST(CorpusSnapshotTest, RetiredEpochsReportReclamation) {
  const Dataset dataset = MakeCorpus(15, 11);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());

  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter& retired = registry.CounterRef("snapshot.retired");
  const uint64_t retired_before = retired.Value();
  {
    const auto snapshot = CorpusSnapshot::Capture(*linker);
    EXPECT_EQ(retired.Value(), retired_before);
    // A second handle keeps the epoch alive after the first drops.
    const auto held = snapshot;
  }
  EXPECT_EQ(retired.Value(), retired_before + 1);
}

}  // namespace
}  // namespace grouplink
