// End-to-end tests of the observability layer: RunReport stage identities,
// registry counter exactness across thread counts, and the guarantee that
// metrics/tracing never change linkage output.

#include "core/run_report.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"

namespace grouplink {
namespace {

Dataset TestDataset() {
  BibliographicConfig config;
  config.num_entities = 60;
  config.noise = 0.2;
  config.seed = 99;
  return GenerateBibliographic(config);
}

LinkageConfig PerPairConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

LinkageConfig EdgeJoinLinkage(int32_t threads = 1) {
  LinkageConfig config = PerPairConfig();
  config.use_edge_join = true;
  config.num_threads = threads;
  return config;
}

LinkageConfig BinaryJaccardConfig() {
  LinkageConfig config = PerPairConfig();
  config.measure = GroupMeasureKind::kBinaryJaccard;
  return config;
}

// Each stage's name with its counter keys, in report order.
using KeyLayout = std::vector<std::pair<std::string, std::vector<std::string>>>;

KeyLayout CounterKeys(const RunReport& report) {
  KeyLayout layout;
  for (const StageStats& stage : report.stages) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : stage.counters) keys.push_back(key);
    layout.emplace_back(stage.name, std::move(keys));
  }
  return layout;
}

// Checks, after ResetAll() and one run, that every filter_refine.* and
// edge_join.* registry counter equals the stage counter it mirrors: a BM
// per-pair run mirrors its score stage into filter_refine.*, an edge join
// its score stage plus the thread-invariant join counters into
// edge_join.*, and a baseline measure mirrors nothing. Counters the run
// did not write read 0.
void ExpectRegistryMirrorsReport(const RunReport& report) {
  std::map<std::string, int64_t> want;
  const bool edge_join = report.strategy == "edge-join";
  if (edge_join || report.measure == "BM") {
    const std::string prefix = edge_join ? "edge_join." : "filter_refine.";
    for (const auto& [key, value] : report.FindStage("score")->counters) {
      want[prefix + key] = value;
    }
    if (edge_join) {
      for (const auto& [key, value] : report.FindStage("join")->counters) {
        if (key != "threads_used") want[prefix + key] = value;
      }
    }
  }
  const MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  for (const auto& [name, value] : want) {
    ASSERT_EQ(snapshot.counters.count(name), 1u) << name;
    EXPECT_EQ(snapshot.counters.at(name), static_cast<uint64_t>(value)) << name;
  }
  for (const auto& [name, value] : snapshot.counters) {
    const bool mirrored_family =
        name.rfind("filter_refine.", 0) == 0 || name.rfind("edge_join.", 0) == 0;
    if (!mirrored_family) continue;
    const auto it = want.find(name);
    EXPECT_EQ(value, it == want.end() ? 0u : static_cast<uint64_t>(it->second)) << name;
  }
}

TEST(RunReportTest, PerPairStagesAndIdentities) {
  const Dataset dataset = TestDataset();
  const auto result = RunGroupLinkage(dataset, PerPairConfig());
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();

  EXPECT_EQ(report.strategy, "per-pair");
  EXPECT_EQ(report.measure, "BM");
  EXPECT_EQ(report.records, dataset.num_records());
  EXPECT_EQ(report.groups, dataset.num_groups());
  EXPECT_EQ(report.links, static_cast<int64_t>(result->linked_pairs.size()));
  EXPECT_EQ(report.clusters, static_cast<int64_t>(result->num_clusters));
  for (const char* stage : {"prepare", "candidates", "score", "cluster"}) {
    EXPECT_NE(report.FindStage(stage), nullptr) << stage;
  }
  EXPECT_GT(report.TotalSeconds(), 0.0);

  // Every candidate pair is decided exactly once by the filter-refine
  // cascade: empty graph, UB prune, LB accept, or Hungarian refine.
  EXPECT_GT(report.StageCounter("score", "candidates"), 0);
  EXPECT_EQ(report.StageCounter("score", "candidates"),
            report.StageCounter("score", "empty_graphs") +
                report.StageCounter("score", "ub_pruned") +
                report.StageCounter("score", "lb_accepted") +
                report.StageCounter("score", "refined"));
  // The candidates stage hands exactly its group pairs to scoring.
  EXPECT_EQ(report.StageCounter("candidates", "group_pairs"),
            report.StageCounter("score", "candidates"));
}

TEST(RunReportTest, EdgeJoinStagesAndIdentities) {
  const Dataset dataset = TestDataset();
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();

  EXPECT_EQ(report.strategy, "edge-join");
  for (const char* stage : {"prepare", "join", "bucket", "score", "cluster"}) {
    EXPECT_NE(report.FindStage(stage), nullptr) << stage;
  }
  EXPECT_EQ(report.StageCounter("bucket", "group_pairs"),
            report.StageCounter("score", "ub_pruned") +
                report.StageCounter("score", "lb_accepted") +
                report.StageCounter("score", "refined"));
  EXPECT_EQ(report.StageCounter("score", "linked"),
            static_cast<int64_t>(result->linked_pairs.size()));
  EXPECT_LE(report.StageCounter("join", "edges"),
            report.StageCounter("join", "record_candidates"));
}

// report() is the only stats surface (the thin accessors that used to
// reconstruct legacy structs from it are gone): every per-pair stage
// must expose its counters and a nonnegative wall time directly.
TEST(RunReportTest, ReportIsTheOnlyStatsSurface) {
  const Dataset dataset = TestDataset();
  const auto result = RunGroupLinkage(dataset, PerPairConfig());
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();

  EXPECT_GT(report.StageCounter("score", "candidates"), 0);
  EXPECT_EQ(report.StageCounter("score", "linked"),
            static_cast<int64_t>(result->linked_pairs.size()));
  EXPECT_GT(report.StageCounter("candidates", "group_pairs"), 0);
  EXPECT_GE(report.StageCounter("candidates", "record_pairs"),
            report.StageCounter("candidates", "group_pairs"));

  EXPECT_GE(report.StageSeconds("prepare"), 0.0);
  EXPECT_GE(report.StageSeconds("candidates"), 0.0);
  EXPECT_GE(report.StageSeconds("score"), 0.0);
}

TEST(RunReportTest, RegistryCountersIdenticalAcrossThreadCounts) {
  const Dataset dataset = TestDataset();
  MetricsRegistry& registry = MetricsRegistry::Default();

  registry.ResetAll();
  const auto reference = RunGroupLinkage(dataset, EdgeJoinLinkage(1));
  ASSERT_TRUE(reference.ok());
  const MetricsSnapshot want = registry.Snapshot();
  ASSERT_GT(want.counters.at("edge_join.postings_scanned"), 0u);
  ASSERT_GT(want.counters.at("edge_join.edges"), 0u);

  for (const int32_t threads : {2, 7}) {
    registry.ResetAll();
    const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage(threads));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->linked_pairs, reference->linked_pairs) << threads;
    const MetricsSnapshot got = registry.Snapshot();
    EXPECT_EQ(got.counters, want.counters) << threads << " threads";
    EXPECT_EQ(got.histograms.at("edge_join.bucket_size").count,
              want.histograms.at("edge_join.bucket_size").count)
        << threads << " threads";
  }
}

TEST(RunReportTest, BucketHistogramCountsEveryGroupPair) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.ResetAll();
  const Dataset dataset = TestDataset();
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.at("edge_join.bucket_size").count,
            snapshot.counters.at("edge_join.group_pairs"));
  EXPECT_EQ(snapshot.counters.at("edge_join.group_pairs"),
            static_cast<uint64_t>(
                result->report().StageCounter("bucket", "group_pairs")));
}

TEST(RunReportTest, DisablingObservabilityDoesNotChangeOutput) {
  const Dataset dataset = TestDataset();
  const auto baseline = RunGroupLinkage(dataset, EdgeJoinLinkage(2));
  ASSERT_TRUE(baseline.ok());

  MetricsRegistry::Default().ResetAll();
  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  const auto dark = RunGroupLinkage(dataset, EdgeJoinLinkage(2));
  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  ASSERT_TRUE(dark.ok());

  EXPECT_EQ(dark->linked_pairs, baseline->linked_pairs);
  EXPECT_EQ(dark->group_cluster, baseline->group_cluster);
  EXPECT_EQ(dark->num_clusters, baseline->num_clusters);
  // Nothing was recorded while the switch was off.
  for (const auto& [name, value] : MetricsRegistry::Default().Snapshot().counters) {
    EXPECT_EQ(value, 0u) << name;
  }
}

TEST(RunReportTest, JsonExportsHaveExpectedShape) {
  const Dataset dataset = TestDataset();
  const auto result = RunGroupLinkage(dataset, EdgeJoinLinkage());
  ASSERT_TRUE(result.ok());

  const std::string run_json = result->report().ToJson();
  for (const char* key :
       {"\"strategy\"", "\"measure\"", "\"threads\"", "\"records\"", "\"groups\"",
        "\"links\"", "\"clusters\"", "\"seconds_total\"", "\"stages\"",
        "\"counters\"", "\"timings\""}) {
    EXPECT_NE(run_json.find(key), std::string::npos) << key;
  }

  const std::string doc = ExperimentReportJson("report_test", {result->report()});
  for (const char* key : {"\"grouplink.metrics.v1\"", "\"experiment\"",
                          "\"hardware_threads\"", "\"runs\"", "\"metrics\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

TEST(RunReportTest, CleanRunsKeepTheClassicReportShape) {
  // A run with no resilience limits must not grow shed-work counters: the
  // classic stage identities and the exact counter key set are preserved,
  // and the run-level degradation facts read clean.
  const Dataset dataset = TestDataset();
  const auto result = RunGroupLinkage(dataset, PerPairConfig());
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();

  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.stop_reason, "");
  const StageStats* score = report.FindStage("score");
  ASSERT_NE(score, nullptr);
  for (const auto& [key, value] : score->counters) {
    EXPECT_NE(key, "shed_candidates") << "clean runs carry no shed counters";
    EXPECT_NE(key, "degraded_refines");
    EXPECT_NE(key, "skipped");
    (void)value;
  }

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"degraded\": false"), std::string::npos);
  EXPECT_NE(json.find("\"stop_reason\": \"\""), std::string::npos);
}

TEST(RunReportTest, DegradedRunsExportTheirFactsInJson) {
  const Dataset dataset = TestDataset();
  LinkageConfig config = PerPairConfig();
  config.max_candidate_pairs = 3;
  const auto result = RunGroupLinkage(dataset, config);
  ASSERT_TRUE(result.ok());
  const RunReport& report = result->report();

  EXPECT_TRUE(report.degraded);
  EXPECT_GT(report.StageCounter("score", "shed_candidates"), 0);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"shed_candidates\""), std::string::npos);
  // The budget sheds work without stopping the run.
  EXPECT_NE(json.find("\"stop_reason\": \"\""), std::string::npos);
}

TEST(RunReportTest, CleanRunsPinTheirStageCounterKeys) {
  const Dataset dataset = TestDataset();
  const std::pair<std::string, std::vector<std::string>> prepare = {
      "prepare", {"records", "groups", "vocabulary"}};
  const std::pair<std::string, std::vector<std::string>> cluster = {
      "cluster", {"links", "clusters"}};
  const KeyLayout per_pair = {
      prepare,
      {"candidates", {"record_pairs", "group_pairs"}},
      {"score", {"candidates", "empty_graphs", "ub_pruned", "lb_accepted", "refined",
                 "linked"}},
      cluster};
  const KeyLayout edge_join = {
      prepare,
      {"join", {"record_candidates", "edges", "postings_scanned", "threads_used"}},
      {"bucket", {"group_pairs"}},
      {"score", {"group_pairs", "ub_pruned", "lb_accepted", "refined", "linked"}},
      cluster};
  for (const auto& [config, want] :
       {std::pair<LinkageConfig, KeyLayout>{PerPairConfig(), per_pair},
        {EdgeJoinLinkage(), edge_join},
        {BinaryJaccardConfig(), per_pair}}) {
    const auto result = RunGroupLinkage(dataset, config);
    ASSERT_TRUE(result.ok());
    const RunReport& report = result->report();
    EXPECT_EQ(CounterKeys(report), want) << report.strategy << " " << report.measure;
    if (config.measure != GroupMeasureKind::kBm) {
      // The baseline keeps the BM key set; it has no bounds to count.
      for (const char* bound : {"ub_pruned", "lb_accepted", "refined"}) {
        EXPECT_EQ(report.StageCounter("score", bound), 0) << bound;
      }
    }
  }
}

TEST(RunReportTest, RegistryMirrorsTheReportStages) {
  // Clean runs of both batch strategies and the baseline, then a candidate
  // cap and a matcher budget on both strategies: their shed counters reach
  // the score stage and the registry together.
  const Dataset dataset = TestDataset();
  std::vector<std::pair<LinkageConfig, std::string>> runs = {
      {PerPairConfig(), ""}, {EdgeJoinLinkage(), ""}, {BinaryJaccardConfig(), ""}};
  for (const LinkageConfig& strategy : {PerPairConfig(), EdgeJoinLinkage(2)}) {
    LinkageConfig capped = strategy;
    capped.max_candidate_pairs = 3;
    runs.emplace_back(capped, "shed_candidates");
    LinkageConfig budgeted = strategy;
    budgeted.max_matcher_cost = 2;
    runs.emplace_back(budgeted, "degraded_refines");
  }
  for (const auto& [config, shed_key] : runs) {
    MetricsRegistry::Default().ResetAll();
    const auto result = RunGroupLinkage(dataset, config);
    ASSERT_TRUE(result.ok());
    const RunReport& report = result->report();
    if (!shed_key.empty()) {
      EXPECT_TRUE(report.degraded);
      EXPECT_GT(report.StageCounter("score", shed_key), 0)
          << report.strategy << " " << shed_key;
    }
    ExpectRegistryMirrorsReport(report);
  }
}

TEST(RunReportTest, StageAccessorsOnMissingStagesAreZero) {
  RunReport report;
  EXPECT_EQ(report.FindStage("nope"), nullptr);
  EXPECT_EQ(report.StageCounter("nope", "x"), 0);
  EXPECT_DOUBLE_EQ(report.StageSeconds("nope"), 0.0);
  StageStats& stage = report.AddStage("only", 1.5);
  stage.AddCounter("k", 7);
  EXPECT_EQ(&report.AddStage("only"), &stage);  // Get-or-create.
  EXPECT_EQ(report.StageCounter("only", "k"), 7);
  EXPECT_EQ(report.StageCounter("only", "missing"), 0);
  EXPECT_DOUBLE_EQ(report.TotalSeconds(), 1.5);
}

}  // namespace
}  // namespace grouplink
