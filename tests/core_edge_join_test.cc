#include "core/edge_join.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "core/group_measures.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "data/household_generator.h"
#include "eval/metrics.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"
#include "storage/stored_corpus.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace grouplink {
namespace {

BibliographicConfig SmallConfig() {
  BibliographicConfig config;
  config.num_entities = 60;
  config.noise = 0.2;
  config.seed = 99;
  return config;
}

using Pairs = std::vector<std::pair<int32_t, int32_t>>;

LinkageConfig EdgeJoinLinkage() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  config.use_edge_join = true;
  return config;
}

LinkageConfig AllPairsLinkage() {
  LinkageConfig config = EdgeJoinLinkage();
  config.use_edge_join = false;
  config.candidates = CandidateMethod::kAllPairs;
  return config;
}

bool IsSubset(const Pairs& sub, const Pairs& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

TEST(EdgeJoinTest, MatchesPerPairPipelineOnBibliographicData) {
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  const auto a = RunGroupLinkage(dataset, EdgeJoinLinkage());
  const auto b = RunGroupLinkage(dataset, AllPairsLinkage());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->linked_pairs, b->linked_pairs);
}

TEST(EdgeJoinTest, MatchesPerPairPipelineOnHouseholdData) {
  HouseholdConfig config;
  config.num_households = 80;
  config.noise = 0.25;
  const Dataset dataset = GenerateHouseholds(config);
  const auto a = RunGroupLinkage(dataset, EdgeJoinLinkage());
  const auto b = RunGroupLinkage(dataset, AllPairsLinkage());
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
  EXPECT_GE(report.StageCounter("join", "postings_scanned"),
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
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
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
          {"join", "postings_scanned"},
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
  // Tiny hand-built postings so EdgeJoinLink can be exercised directly: a
  // caller-owned pool must be used (threads_used reports its size) and the
  // output must match the serial call. Unit vectors over token ids:
  // identical sets score 1, disjoint ones 0.
  std::vector<SparseVector> vectors;
  const auto unit = [](std::vector<int32_t> ids) {
    SparseVector vector;
    vector.weights.assign(ids.size(), 1.0 / std::sqrt(static_cast<double>(ids.size())));
    vector.ids = std::move(ids);
    return vector;
  };
  // Groups a = {0, 1}, b = {2, 3}, c = {4}; b repeats a.
  for (int copy = 0; copy < 2; ++copy) {
    vectors.push_back(unit({0, 1, 2}));
    vectors.push_back(unit({3, 4, 5}));
  }
  vectors.push_back(unit({6, 7, 8}));
  const std::vector<int32_t> record_group = {0, 0, 1, 1, 2};
  const std::vector<std::vector<int32_t>> group_records = {{0, 1}, {2, 3}, {4}};
  const WeightedPostings postings = WeightedPostings::Transpose(vectors, 9);
  const InMemoryPostings corpus(postings, record_group, group_records);

  FilterRefineConfig ladder;
  ladder.theta = 0.5;
  ladder.group_threshold = 0.3;

  RunReport serial_report;
  const auto serial = EdgeJoinLink(corpus, vectors, ladder, &serial_report);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial_report.StageCounter("join", "threads_used"), 1);

  ThreadPool pool(3);
  RunReport pooled_report;
  const auto pooled = EdgeJoinLink(corpus, vectors, ladder, &pooled_report, &pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled_report.StageCounter("join", "threads_used"), 3);
  EXPECT_EQ(*pooled, *serial);
  ASSERT_EQ(serial->size(), 1u);
  EXPECT_EQ((*serial)[0], std::make_pair(0, 1));
  // Records 2 and 3 each share their tokens with one earlier record.
  EXPECT_EQ(serial_report.StageCounter("join", "record_candidates"), 2);
  EXPECT_EQ(serial_report.StageCounter("join", "edges"), 2);
  EXPECT_EQ(serial_report.StageCounter("join", "postings_scanned"), 6);
  for (const char* counter : {"record_candidates", "edges", "postings_scanned"}) {
    EXPECT_EQ(pooled_report.StageCounter("join", counter),
              serial_report.StageCounter("join", counter))
        << counter;
  }
  EXPECT_EQ(pooled_report.StageCounter("bucket", "group_pairs"),
            serial_report.StageCounter("bucket", "group_pairs"));

  // A pair at exactly θ is an edge (sim >= θ), as in BuildSimilarityGraph.
  ladder.theta = PrenormalizedCosineSimilarity(vectors[0], vectors[2]);
  RunReport boundary_report;
  ASSERT_TRUE(EdgeJoinLink(corpus, vectors, ladder, &boundary_report).ok());
  EXPECT_EQ(boundary_report.StageCounter("join", "edges"), 2);
}

TEST(EdgeJoinTest, JoinPollsForAStopBeforeEveryRecord) {
  // The execution.deadline fault trips on the (K+1)-th stop poll. Serially
  // the join's one shard is polled once before it starts and then once
  // before each record, so exactly K - 1 records are accumulated and the
  // rest are skipped: a stop lands within one record.
  const Dataset dataset = GenerateBibliographic(SmallConfig());
  constexpr int64_t kPolls = 40;
  ScopedFaultClear clear;
  ASSERT_TRUE(FaultInjector::Default()
                  .ArmFromSpec("execution.deadline:after=" + std::to_string(kPolls))
                  .ok());
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report().degraded);
  EXPECT_EQ(result->report().stop_reason, "fault-injected");
  EXPECT_EQ(dataset.num_records() - result->report().StageCounter("join", "probes_skipped"),
            kPolls - 1);
  EXPECT_TRUE(result->linked_pairs.empty()) << "a sticky stop sheds every bucket";
}

TEST(EdgeJoinTest, FailedShardDropsTheBucketsItLeftIncomplete) {
  // A failed shard leaves its records unaccumulated. The buckets of their
  // groups are dropped, so every bucket still decided holds its complete
  // graph: the links are a subset of the unconstrained run's, and the
  // other shards' groups still link.
  BibliographicConfig data_config = SmallConfig();
  data_config.num_entities = 80;
  const Dataset dataset = GenerateBibliographic(data_config);
  LinkageConfig config = EdgeJoinLinkage();
  config.num_threads = 4;
  const auto full = RunGroupLinkage(dataset, config);
  ASSERT_TRUE(full.ok());

  ScopedFaultClear clear;
  ASSERT_TRUE(FaultInjector::Default().ArmFromSpec("thread_pool.fail_task:max_fires=1").ok());
  const auto result = RunGroupLinkage(dataset, config);
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.stop_reason, "");
  EXPECT_GT(report.StageCounter("join", "probes_skipped"), 0);
  EXPECT_LT(report.StageCounter("bucket", "group_pairs"),
            full->report().StageCounter("bucket", "group_pairs"));
  EXPECT_TRUE(IsSubset(result->linked_pairs, full->linked_pairs));
  EXPECT_GT(result->linked_pairs.size(), 0u);
}

// The hostile inputs of the join: a token present in every record, whose
// posting list is the whole corpus (the join is quadratic in it), and an
// all-identical corpus, where every cross-group record pair is an edge.
std::vector<std::pair<std::string, Dataset>> HostileCorpora() {
  std::vector<std::pair<std::string, Dataset>> corpora;
  BibliographicConfig config;
  config.num_entities = 80;
  config.noise = 0.25;
  config.num_topics = 5;
  config.offtopic_word_prob = 0.5;
  config.seed = 5;
  Dataset ubiquitous = GenerateBibliographic(config);
  for (Record& record : ubiquitous.records) record.text += " ubiquitous";
  corpora.emplace_back("token-in-every-record", std::move(ubiquitous));

  Dataset identical;
  for (int32_t g = 0; g < 200; ++g) {
    Group group;
    group.id = std::to_string(g);
    group.label = "g" + std::to_string(g);
    for (int32_t i = 0; i < 3; ++i) {
      group.record_ids.push_back(identical.num_records());
      identical.records.push_back(
          {std::to_string(identical.num_records()), "group linkage of author records", {}});
    }
    identical.groups.push_back(std::move(group));
  }
  corpora.emplace_back("all-identical", std::move(identical));
  return corpora;
}

TEST(EdgeJoinHostileTest, EdgeJoinEqualsAllPairsAndDegradesToASubset) {
  for (const auto& [name, dataset] : HostileCorpora()) {
    const auto exact = RunGroupLinkage(dataset, EdgeJoinLinkage());
    const auto all_pairs = RunGroupLinkage(dataset, AllPairsLinkage());
    ASSERT_TRUE(exact.ok() && all_pairs.ok()) << name;
    EXPECT_EQ(exact->linked_pairs, all_pairs->linked_pairs) << name;
    EXPECT_FALSE(exact->report().degraded) << name;
    EXPECT_FALSE(exact->linked_pairs.empty()) << name;

    LinkageConfig limited = EdgeJoinLinkage();
    limited.deadline_ms = 1.0;
    const auto degraded = RunGroupLinkage(dataset, limited);
    ASSERT_TRUE(degraded.ok()) << name;
    EXPECT_TRUE(degraded->report().degraded) << name;
    EXPECT_EQ(degraded->report().stop_reason, "deadline") << name;
    EXPECT_TRUE(IsSubset(degraded->linked_pairs, exact->linked_pairs)) << name;
  }
}

TEST(EdgeJoinHostileTest, RefreshEqualsAllPairsAndDegradesToASubset) {
  Counter& degraded_refreshes =
      MetricsRegistry::Default().CounterRef("incremental.degraded_refreshes");
  for (const auto& [name, dataset] : HostileCorpora()) {
    const auto all_pairs = RunGroupLinkage(dataset, AllPairsLinkage());
    ASSERT_TRUE(all_pairs.ok()) << name;
    auto linker = IncrementalLinker::Create(dataset, EdgeJoinLinkage());
    ASSERT_TRUE(linker.ok()) << name;
    uint64_t before = degraded_refreshes.Value();
    linker->Refresh();
    EXPECT_EQ(linker->linked_pairs(), all_pairs->linked_pairs) << name;
    EXPECT_EQ(degraded_refreshes.Value(), before) << name;

    LinkageConfig limited = EdgeJoinLinkage();
    limited.deadline_ms = 1.0;
    auto slow = IncrementalLinker::Create(dataset, limited);
    ASSERT_TRUE(slow.ok()) << name;
    before = degraded_refreshes.Value();
    slow->Refresh();
    EXPECT_EQ(degraded_refreshes.Value(), before + 1) << name;
    EXPECT_TRUE(IsSubset(slow->linked_pairs(), linker->linked_pairs())) << name;
  }
}

// The groups `probe` links to by exact BM over the full cosine matrix of
// every live group of `snapshot`, the probe vectorized as a link query
// vectorizes it: no postings, no bounds.
std::vector<int32_t> BruteForceQueryLinks(const CorpusSnapshot& snapshot,
                                          const GroupArrival& probe) {
  const TfIdfVectorizer vectorizer(&snapshot.epoch_vocab());
  std::vector<SparseVector> right;
  for (const std::string& text : probe.record_texts) {
    right.push_back(vectorizer.Vectorize(Tokenize(text)));
  }
  const LinkageConfig& config = snapshot.engine_config();
  std::vector<int32_t> linked;
  for (int32_t g = 0; g < snapshot.num_groups(); ++g) {
    if (!snapshot.IsAlive(g)) continue;
    const std::vector<int32_t>& members = snapshot.group_records()[static_cast<size_t>(g)];
    BipartiteGraph graph(static_cast<int32_t>(members.size()),
                         static_cast<int32_t>(right.size()));
    for (size_t i = 0; i < members.size(); ++i) {
      const SparseVector& left = snapshot.record_vectors()[static_cast<size_t>(members[i])];
      for (size_t j = 0; j < right.size(); ++j) {
        const double s = PrenormalizedCosineSimilarity(left, right[j]);
        if (s >= config.theta) graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
      }
    }
    if (EvaluateGroupMeasure(GroupMeasureKind::kBm, graph, graph.num_left(),
                             graph.num_right()) >= config.group_threshold) {
      linked.push_back(g);
    }
  }
  return linked;
}

TEST(EdgeJoinHostileTest, QueriesAndArrivalsEqualExactBmAndDegradeToASubset) {
  // The snapshot LinkQuery, StoredCorpus::LinkQuery and an AddGroups
  // arrival on each hostile corpus, probed with copies of its first,
  // middle and last groups. A token in every record makes the slots each
  // probe record accumulates span the whole corpus. Unconstrained, each
  // answer is the brute-force exact-BM link set; stopped by the
  // execution.deadline fault after k polls (during accumulation or among
  // the decisions), each is a subset of it, and degraded when it stopped.
  for (const auto& [name, dataset] : HostileCorpora()) {
    auto linker = IncrementalLinker::Create(dataset, EdgeJoinLinkage());
    ASSERT_TRUE(linker.ok()) << name;
    const auto snapshot = CorpusSnapshot::Capture(*linker);
    const std::string path = ::testing::TempDir() + "/" + std::to_string(::getpid()) +
                             "_hostile_" + name + ".glsnap";
    ASSERT_TRUE(storage::SnapshotStore::Persist(*snapshot, path).ok()) << name;
    auto stored = storage::StoredCorpus::Open(path);
    ASSERT_TRUE(stored.ok()) << name << ": " << stored.status().message();

    for (const int32_t g : {0, dataset.num_groups() / 2, dataset.num_groups() - 1}) {
      GroupArrival probe{"probe", {}};
      for (const int32_t r : dataset.groups[static_cast<size_t>(g)].record_ids) {
        probe.record_texts.push_back(dataset.records[static_cast<size_t>(r)].text);
      }
      const std::string context = name + " probe " + std::to_string(g);
      const std::vector<int32_t> exact = BruteForceQueryLinks(*snapshot, probe);
      EXPECT_FALSE(exact.empty()) << context << ": a copy of a group links to it";

      const auto answer = [&](int path_kind) {
        if (path_kind == 0) return snapshot->LinkQuery(probe);
        if (path_kind == 1) {
          auto paged = (*stored)->LinkQuery(probe);
          EXPECT_TRUE(paged.ok()) << context << ": " << paged.status().message();
          return paged.ok() ? *paged : CorpusSnapshot::QueryResult();
        }
        const auto added = linker->Clone()->AddGroups({probe});
        CorpusSnapshot::QueryResult arrival;
        arrival.linked_to = added.at(0).linked_to;
        arrival.degraded = added.at(0).degraded;
        return arrival;
      };
      for (const int path_kind : {0, 1, 2}) {
        const std::string where = context + " path " + std::to_string(path_kind);
        const CorpusSnapshot::QueryResult full = answer(path_kind);
        EXPECT_FALSE(full.degraded) << where;
        EXPECT_EQ(full.linked_to, exact) << where;
        const size_t polls = probe.record_texts.size();
        for (const size_t after : {size_t{0}, polls / 2, polls + 1, polls + 3}) {
          ScopedFaultClear clear;
          ASSERT_TRUE(FaultInjector::Default()
                          .ArmFromSpec("execution.deadline:after=" + std::to_string(after))
                          .ok());
          const CorpusSnapshot::QueryResult stopped = answer(path_kind);
          const std::string at = where + " stopped after " + std::to_string(after);
          EXPECT_TRUE(std::includes(exact.begin(), exact.end(), stopped.linked_to.begin(),
                                    stopped.linked_to.end()))
              << at;
          EXPECT_TRUE(stopped.degraded || stopped.linked_to == exact) << at;
          if (after == 0) {
            EXPECT_TRUE(stopped.degraded) << at;
          }
        }
      }
    }
    ASSERT_TRUE(storage::RemoveFile(path).ok()) << name;
  }
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
