// E14 — The "inside a DBMS" path (paper: group linkage measures
// implemented with standard SQL joins/aggregates plus a similarity UDF).
//
// Times each relational stage — token self-join candidates, UDF
// verification, SQL UB aggregation — against the native edge-join
// pipeline on the same workload, and reports how many group pairs the
// SQL UB filter passes to a would-be refine step. Expected shape: the
// relational route is within a small constant factor of the native one
// (the plans are the same joins, interpreted row-at-a-time), and the UB
// filter keeps every pair the exact pipeline links.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/linkage_engine.h"
#include "eval/table.h"
#include "relational/linkage_plans.h"

int main(int argc, char** argv) {
  using namespace grouplink;

  FlagParser flags;
  flags.AddInt64("entities", 60, "author entities");
  flags.AddInt64("min-overlap", 2, "token overlap for the SQL candidate join");
  flags.AddInt64("threads", static_cast<int64_t>(DefaultThreadCount()),
                 "worker threads for the native edge join");
  flags.AddString("metrics-json", "BENCH_e14.json",
                  "unified metrics report output path ('' to skip)");
  flags.AddBool("smoke", false, "tiny CI workload (overrides size knobs)");
  flags.AddDouble("deadline-ms", 0.0,
                  "resilience: deadline for the native run in ms (0 = off)");
  flags.AddInt64("max-candidates", 0,
                 "resilience: cap on buckets the native run scores (0 = off)");
  flags.AddInt64("max-matcher-cost", 0,
                 "resilience: per-pair |g1|*|g2| matcher budget (0 = off)");
  flags.AddString("inject", "",
                  "resilience: fault specs 'point[:k=v,...][;...]' armed "
                  "before the native run");
  GL_CHECK(flags.Parse(argc, argv).ok());
  const int32_t entities = flags.GetBool("smoke")
                               ? 15
                               : static_cast<int32_t>(flags.GetInt64("entities"));

  const Dataset dataset =
      GenerateBibliographic(bench::HardBibliographic(entities, 0.25));
  std::printf("E14: SQL pipeline vs native edge join (%d records, %d groups)\n\n",
              dataset.num_records(), dataset.num_groups());

  LinkageConfig config;
  config.theta = bench::kTheta;
  config.group_threshold = bench::kGroupThreshold;
  auto engine_or = LinkageEngine::Create(&dataset, config);
  GL_CHECK(engine_or.ok());
  LinkageEngine& engine = *engine_or;
  const auto sim = [&](int32_t a, int32_t b) {
    return engine.DefaultRecordSimilarity(a, b);
  };

  // The SQL route's stages feed the same unified RunReport schema as the
  // engine-produced reports, so BENCH_e14.json and BENCH_e5.json line up.
  RunReport sql_report;
  sql_report.strategy = "sql-pipeline";
  sql_report.candidate_method = "token-overlap-join";
  sql_report.measure = "upper_bound";
  sql_report.threads = 1;
  sql_report.records = dataset.num_records();
  sql_report.groups = dataset.num_groups();

  TextTable table({"stage", "output rows", "time (s)"});
  WallTimer timer;
  const Table tokens = MakeTokensTable(dataset);
  double seconds = timer.ElapsedSeconds();
  table.AddRow({"tokens table", std::to_string(tokens.num_rows()),
                FormatDouble(seconds, 3)});
  sql_report.AddStage("tokens", seconds)
      .AddCounter("rows", static_cast<int64_t>(tokens.num_rows()));

  timer.Reset();
  const Table candidates =
      SqlRecordPairCandidates(tokens, flags.GetInt64("min-overlap"));
  seconds = timer.ElapsedSeconds();
  table.AddRow({"candidate join (SQL)", std::to_string(candidates.num_rows()),
                FormatDouble(seconds, 3)});
  sql_report.AddStage("candidates", seconds)
      .AddCounter("rows", static_cast<int64_t>(candidates.num_rows()));

  timer.Reset();
  const Table edges = SqlVerifiedEdges(candidates, sim, config.theta);
  seconds = timer.ElapsedSeconds();
  table.AddRow({"UDF verification (SQL)", std::to_string(edges.num_rows()),
                FormatDouble(seconds, 3)});
  sql_report.AddStage("verify", seconds)
      .AddCounter("rows", static_cast<int64_t>(edges.num_rows()));

  timer.Reset();
  const Table sizes = MakeGroupSizesTable(dataset);
  const Table scores = SqlUpperBoundScores(edges, sizes);
  seconds = timer.ElapsedSeconds();
  table.AddRow({"UB aggregation (SQL)", std::to_string(scores.num_rows()),
                FormatDouble(seconds, 3)});
  sql_report.AddStage("score", seconds)
      .AddCounter("rows", static_cast<int64_t>(scores.num_rows()));

  size_t survivors = 0;
  std::set<std::pair<int32_t, int32_t>> survivor_set;
  for (const Row& row : scores.rows()) {
    if (row[2].AsDouble() >= config.group_threshold) {
      ++survivors;
      survivor_set.insert({static_cast<int32_t>(row[0].AsInt()),
                           static_cast<int32_t>(row[1].AsInt())});
    }
  }
  table.AddRow({"UB filter survivors", std::to_string(survivors), "-"});
  sql_report.links = static_cast<int64_t>(survivors);
  sql_report.MutableStage("score")->AddCounter("ub_survivors",
                                               static_cast<int64_t>(survivors));

  // Native reference.
  timer.Reset();
  LinkageConfig native_config = config;
  native_config.use_edge_join = true;
  native_config.num_threads =
      static_cast<int32_t>(std::max<int64_t>(1, flags.GetInt64("threads")));
  native_config.deadline_ms = flags.GetDouble("deadline-ms");
  native_config.max_candidate_pairs = flags.GetInt64("max-candidates");
  native_config.max_matcher_cost = flags.GetInt64("max-matcher-cost");
  auto native_or = LinkageEngine::Create(&dataset, native_config);
  GL_CHECK(native_or.ok());
  LinkageEngine& native = *native_or;
  GL_CHECK(bench::ArmFaults(flags.GetString("inject")).ok());
  const LinkageResult native_result = native.Run();
  FaultInjector::Default().DisarmAll();
  const double native_seconds = timer.ElapsedSeconds();
  table.AddRow({"native edge join (total)",
                std::to_string(native_result.linked_pairs.size()) + " links",
                FormatDouble(native_seconds, 3)});
  std::printf("%s", table.ToString().c_str());

  RunReport native_report = native_result.report();
  native_report.AddExtra("wall_seconds", native_seconds);

  size_t kept = 0;
  for (const auto& pair : native_result.linked_pairs) {
    if (survivor_set.count(pair)) ++kept;
  }
  std::printf(
      "\nSQL UB filter retains %zu / %zu of the native pipeline's links "
      "(UB >= BM guarantees 100%% when the candidate join is lossless; "
      "min-overlap=%lld trades a little recall for join size).\n",
      kept, native_result.linked_pairs.size(),
      static_cast<long long>(flags.GetInt64("min-overlap")));

  if (native_report.degraded) {
    std::printf("Native run degraded (stop_reason=%s): its links are a valid "
                "subset of the unconstrained run's.\n",
                native_report.stop_reason.empty()
                    ? "-"
                    : native_report.stop_reason.c_str());
  }

  sql_report.AddExtra("native_links_retained", static_cast<double>(kept));
  return bench::ExitCode(
      bench::WriteMetricsJson(flags.GetString("metrics-json"), "e14_sql_pipeline",
                              {std::move(sql_report), std::move(native_report)}));
}
