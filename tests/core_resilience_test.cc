// Tentpole proofs of the resilient execution layer (DESIGN.md §8):
//   1. cancellation preempts scoring within one task quantum;
//   2. deadline- and fault-stopped runs return *valid partial* results
//      whose links are a subset of the unconstrained run's;
//   3. budget-degraded runs are bit-identical across thread counts and
//      repeats (shedding is decided by the work items, never by timing);
//   4. the streaming linker survives injected faults mid-batch and a
//      later Refresh() recovers exactly the batch engine's link set.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/fault_injection.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"

namespace grouplink {
namespace {

using Pairs = std::vector<std::pair<int32_t, int32_t>>;

Dataset MakeCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 5;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return GenerateBibliographic(config);
}

LinkageConfig TestConfig(int32_t threads = 1, bool edge_join = false) {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  config.num_threads = threads;
  config.use_edge_join = edge_join;
  return config;
}

Pairs Sorted(Pairs pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

bool IsSubset(const Pairs& sub, const Pairs& super) {
  const Pairs a = Sorted(sub);
  const Pairs b = Sorted(super);
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

LinkageResult RunLinkage(const Dataset& dataset, const LinkageConfig& config) {
  auto engine_or = LinkageEngine::Create(&dataset, config);
  EXPECT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  return engine.Run();
}

// A degraded result must still be structurally complete: every group gets
// a cluster label, and the report carries the degradation facts.
void ExpectValidPartial(const LinkageResult& result, const Dataset& dataset,
                        const char* expected_reason) {
  EXPECT_EQ(result.group_cluster.size(),
            static_cast<size_t>(dataset.num_groups()));
  EXPECT_GE(result.num_clusters, 1u);
  EXPECT_TRUE(result.report().degraded);
  EXPECT_EQ(result.report().stop_reason, expected_reason);
}

// --- Proof 1: cancellation stops within one task quantum. ----------------

TEST(ResilienceTest, CancellationPreemptsScoringAndReportsCause) {
  const Dataset dataset = MakeCorpus(20, 42);
  const LinkageResult full = RunLinkage(dataset, TestConfig());
  ASSERT_GT(full.linked_pairs.size(), 0u);
  ASSERT_GT(full.report().StageCounter("score", "candidates"), 0);

  LinkageConfig config = TestConfig();
  config.cancellation.Cancel();  // Cancelled before Run even starts.
  const LinkageResult result = RunLinkage(dataset, config);

  ExpectValidPartial(result, dataset, "cancelled");
  // Every candidate observed the stop on its pre-iteration poll, so the
  // whole score stage was shed — nothing linked, everything skipped.
  EXPECT_EQ(result.linked_pairs.size(), 0u);
  EXPECT_GT(result.report().StageCounter("score", "skipped"), 0);
  EXPECT_TRUE(IsSubset(result.linked_pairs, full.linked_pairs));
}

TEST(ResilienceTest, MidRunCancellationShedsOnlyTheRemainder) {
  // Cancel from inside the similarity callback after a fixed number of
  // evaluations: the pairs decided before the trip stay decided, the rest
  // are shed, and the output is a subset of the unconstrained run's.
  const Dataset dataset = MakeCorpus(20, 42);
  auto reference_or = LinkageEngine::Create(&dataset, TestConfig());
  ASSERT_TRUE(reference_or.ok());
  LinkageEngine& reference = *reference_or;
  const LinkageResult full = reference.Run();

  LinkageConfig config = TestConfig();
  CancellationToken token = config.cancellation;
  auto engine_or = LinkageEngine::Create(&dataset, config);
  ASSERT_TRUE(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  int evaluations = 0;
  const LinkageResult result = engine.Run([&](int32_t a, int32_t b) {
    if (++evaluations == 200) token.Cancel();
    return engine.DefaultRecordSimilarity(a, b);
  });

  ExpectValidPartial(result, dataset, "cancelled");
  EXPECT_TRUE(IsSubset(result.linked_pairs, full.linked_pairs));
}

// --- Proof 2: deadline and fault stops yield valid partial subsets. ------

TEST(ResilienceTest, TinyWallClockDeadlineDegradesGracefully) {
  const Dataset dataset = MakeCorpus(20, 42);
  const LinkageResult full = RunLinkage(dataset, TestConfig());

  LinkageConfig config = TestConfig();
  config.deadline_ms = 0.001;  // Expires before the first scoring poll.
  const LinkageResult result = RunLinkage(dataset, config);

  ExpectValidPartial(result, dataset, "deadline");
  EXPECT_TRUE(IsSubset(result.linked_pairs, full.linked_pairs));
}

TEST(ResilienceTest, InjectedDeadlineFaultYieldsPartialSubset) {
  // The execution.deadline fault makes the "deadline expired mid-run"
  // case deterministic: it trips on the 26th stop poll, every time.
  const Dataset dataset = MakeCorpus(20, 42);
  for (const bool edge_join : {false, true}) {
    const LinkageResult full = RunLinkage(dataset, TestConfig(1, edge_join));
    ASSERT_GT(full.linked_pairs.size(), 0u);

    ScopedFaultClear clear;
    ASSERT_TRUE(FaultInjector::Default()
                    .ArmFromSpec("execution.deadline:after=25")
                    .ok());
    const LinkageResult result = RunLinkage(dataset, TestConfig(1, edge_join));

    ExpectValidPartial(result, dataset, "fault-injected");
    EXPECT_LT(result.linked_pairs.size(), full.linked_pairs.size());
    EXPECT_TRUE(IsSubset(result.linked_pairs, full.linked_pairs))
        << "edge_join=" << edge_join;
  }
}

// --- Proof 3: budget degradation is deterministic. -----------------------

TEST(ResilienceTest, CandidateBudgetDegradesDeterministically) {
  const Dataset dataset = MakeCorpus(20, 42);
  for (const bool edge_join : {false, true}) {
    const LinkageResult full = RunLinkage(dataset, TestConfig(1, edge_join));
    const int64_t total = full.report().StageCounter(
        "score", edge_join ? "group_pairs" : "candidates");
    ASSERT_GT(total, 5) << "workload too small to exercise the cap";

    Pairs first_links;
    std::vector<size_t> first_clusters;
    for (const int32_t threads : {1, 2, 7}) {
      LinkageConfig config = TestConfig(threads, edge_join);
      config.max_candidate_pairs = 5;
      const LinkageResult result = RunLinkage(dataset, config);

      EXPECT_TRUE(result.report().degraded);
      EXPECT_EQ(result.report().stop_reason, "")
          << "a budget trip sheds work but is not a stop";
      EXPECT_EQ(result.report().StageCounter("score", "shed_candidates"),
                total - 5);
      EXPECT_TRUE(IsSubset(result.linked_pairs, full.linked_pairs));
      if (threads == 1) {
        first_links = result.linked_pairs;
        first_clusters = result.group_cluster;
        // Repeat at the same thread count: bit-identical.
        const LinkageResult again = RunLinkage(dataset, config);
        EXPECT_EQ(again.linked_pairs, first_links);
      } else {
        EXPECT_EQ(result.linked_pairs, first_links)
            << "threads=" << threads << " edge_join=" << edge_join;
        EXPECT_EQ(result.group_cluster, first_clusters);
      }
    }
    // The BM cap keeps the *best* pairs by upper bound, so a cap of 5
    // still links something on this workload.
    EXPECT_GT(first_links.size(), 0u) << "edge_join=" << edge_join;
  }
}

TEST(ResilienceTest, MatcherBudgetFallsBackToSoundBounds) {
  const Dataset dataset = MakeCorpus(20, 42);
  // Disabling the LB accept forces every unpruned pair through refine, so
  // the matcher budget is guaranteed to trip.
  LinkageConfig base = TestConfig();
  base.use_lower_bound_accept = false;
  const LinkageResult full = RunLinkage(dataset, base);
  ASSERT_GT(full.report().StageCounter("score", "refined"), 0);

  Pairs first_links;
  for (const int32_t threads : {1, 3}) {
    LinkageConfig config = base;
    config.num_threads = threads;
    config.max_matcher_cost = 1;  // Every |g1|*|g2| exceeds this.
    const LinkageResult result = RunLinkage(dataset, config);

    EXPECT_TRUE(result.report().degraded);
    EXPECT_EQ(result.report().StageCounter("score", "degraded_refines"),
              full.report().StageCounter("score", "refined"));
    // The fallback accepts only on the sound lower bound, so it can
    // under-link but never over-link.
    EXPECT_TRUE(IsSubset(result.linked_pairs, full.linked_pairs));
    if (threads == 1) {
      first_links = result.linked_pairs;
    } else {
      EXPECT_EQ(result.linked_pairs, first_links);
    }
  }
}

// --- Proof 4: streaming survives faults; Refresh recovers batch. ---------

TEST(ResilienceTest, StreamingSurvivesInjectedFaultAndRefreshRecovers) {
  const Dataset full = MakeCorpus(24, 7);

  // Seed with the first half; the rest arrives as one batch while the
  // fail-task fault is dropping every parallel scoring chunk.
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  Dataset accumulated;  // What a batch engine sees after all arrivals.
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    const Group& group = full.groups[static_cast<size_t>(g)];
    GroupArrival arrival;
    arrival.label = group.label;
    for (const int32_t r : group.record_ids) {
      arrival.record_texts.push_back(full.records[static_cast<size_t>(r)].text);
    }
    if (g < full.num_groups() / 2) {
      Group rebased;
      rebased.id = group.id;
      rebased.label = group.label;
      for (const std::string& text : arrival.record_texts) {
        rebased.record_ids.push_back(static_cast<int32_t>(seed.records.size()));
        Record record;
        record.id = "r" + std::to_string(seed.records.size());
        record.text = text;
        seed.records.push_back(std::move(record));
      }
      seed.groups.push_back(std::move(rebased));
    } else {
      arrivals.push_back(std::move(arrival));
    }
  }
  ASSERT_TRUE(seed.Validate().ok());
  ASSERT_FALSE(arrivals.empty());
  // The accumulated corpus: seed records/groups, then arrivals in order —
  // exactly the linker's id spaces (no tombstones in this scenario).
  accumulated = seed;
  for (const GroupArrival& arrival : arrivals) {
    Group group;
    group.id = "g" + std::to_string(accumulated.groups.size());
    group.label = arrival.label;
    for (const std::string& text : arrival.record_texts) {
      group.record_ids.push_back(
          static_cast<int32_t>(accumulated.records.size()));
      Record record;
      record.id = "r" + std::to_string(accumulated.records.size());
      record.text = text;
      accumulated.records.push_back(std::move(record));
    }
    accumulated.groups.push_back(std::move(group));
  }
  ASSERT_TRUE(accumulated.Validate().ok());

  auto linker = IncrementalLinker::Create(seed, TestConfig(2));
  ASSERT_TRUE(linker.ok());
  const Pairs seeded_links = linker->linked_pairs();

  ScopedFaultClear clear;
  FaultInjector::Default().Arm(faults::kFailTask, FaultSpec{});
  const auto results = linker->AddGroups(arrivals);
  FaultInjector::Default().DisarmAll();

  // The batch survived: every arrival got a slot, every scoring pass was
  // shed, and each result says so.
  ASSERT_EQ(results.size(), arrivals.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(result.linked_to.empty());
  }
  EXPECT_EQ(linker->num_alive_groups(), accumulated.num_groups());
  // No scoring ran, so only the seed's links exist — a subset of batch.
  EXPECT_EQ(linker->linked_pairs(), seeded_links);

  // With the fault gone, one refresh recovers the batch link set exactly.
  linker->Refresh();
  const auto batch = RunGroupLinkage(accumulated, linker->engine_config());
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(linker->linked_pairs(), batch->linked_pairs);
}

TEST(ResilienceTest, StreamingCandidateCapMarksArrivalsDegraded) {
  const Dataset full = MakeCorpus(24, 7);
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    const Group& group = full.groups[static_cast<size_t>(g)];
    GroupArrival arrival;
    arrival.label = group.label;
    for (const int32_t r : group.record_ids) {
      arrival.record_texts.push_back(full.records[static_cast<size_t>(r)].text);
    }
    if (g < full.num_groups() / 2) {
      Group rebased;
      rebased.id = group.id;
      rebased.label = group.label;
      for (const std::string& text : arrival.record_texts) {
        rebased.record_ids.push_back(static_cast<int32_t>(seed.records.size()));
        Record record;
        record.id = "r" + std::to_string(seed.records.size());
        record.text = text;
        seed.records.push_back(std::move(record));
      }
      seed.groups.push_back(std::move(rebased));
    } else {
      arrivals.push_back(std::move(arrival));
    }
  }
  ASSERT_TRUE(seed.Validate().ok());

  // An unconstrained linker tells us how many candidates arrivals see.
  auto reference = IncrementalLinker::Create(seed, TestConfig());
  ASSERT_TRUE(reference.ok());
  const auto unconstrained = reference->AddGroups(arrivals);
  size_t max_candidates = 0;
  for (const auto& result : unconstrained) {
    max_candidates = std::max(max_candidates, result.candidates);
  }
  ASSERT_GT(max_candidates, 1u) << "workload too small to exercise the cap";

  LinkageConfig capped = TestConfig();
  capped.max_candidate_pairs = 1;
  auto linker = IncrementalLinker::Create(seed, capped);
  ASSERT_TRUE(linker.ok());
  const auto results = linker->AddGroups(arrivals);
  bool any_degraded = false;
  for (size_t k = 0; k < results.size(); ++k) {
    if (unconstrained[k].candidates > 1) {
      EXPECT_TRUE(results[k].degraded);
      any_degraded = true;
    }
    EXPECT_LE(results[k].candidates, std::max<size_t>(
                                         1u, unconstrained[k].candidates));
  }
  EXPECT_TRUE(any_degraded);
  // A persistent budget constrains Refresh too (it is a config limit, not
  // a transient fault), so the contract after refreshing both linkers is
  // the subset relation, not equality: capping only removes links.
  reference->Refresh();
  linker->Refresh();
  EXPECT_TRUE(IsSubset(linker->linked_pairs(), reference->linked_pairs()));
}

}  // namespace
}  // namespace grouplink
