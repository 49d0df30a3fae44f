// batch: offline linkage of a 1000-entity corpus (27,264 records) through
// LinkageEngine::Create + Run with the edge-join strategy on 2 threads —
// the paper's scalability path. Run is repeated for the measured phase;
// the stage breakdown of each Run comes from its RunReport.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/linkage_engine.h"
#include "eval/metrics.h"
#include "harness.h"

namespace grouplink {
namespace perfbench {
namespace {

constexpr int32_t kEntities = 1000;
constexpr int32_t kRecords = 27264;
constexpr int32_t kThreads = 2;
constexpr int kSetupRepeats = 5;

LinkageConfig BatchConfig() {
  LinkageConfig config;
  config.theta = kTheta;
  config.group_threshold = kGroupThreshold;
  config.use_edge_join = true;
  config.num_threads = kThreads;
  return config;
}

}  // namespace

Outcome RunBatch(const RunOptions& options, Trace* trace, Gates* gates) {
  Outcome out;
  int32_t generated_entities = 0;
  const Dataset corpus =
      SizedCorpus(kEntities, kRecords, options.seed, &generated_entities);
  const LinkageConfig config = BatchConfig();
  SpanBuffer* spans = trace != nullptr ? trace->NewBuffer() : nullptr;

  // Set-up: everything before the first Run is LinkageEngine::Create
  // (tokenize + TF-IDF over the corpus). Repeated; setup_s is the median.
  std::vector<double> setup_seconds;
  std::optional<LinkageEngine> engine;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    const int64_t start = NowNs();
    Result<LinkageEngine> created = [&] {
      ScopedSpan span(spans, "text.prepare", rep);
      return LinkageEngine::Create(&corpus, config);
    }();
    setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    ++out.attempted;
    if (!created.ok()) {
      ++out.failed;
      gates->Check(false, "LinkageEngine::Create: " + created.status().ToString());
      return out;
    }
    engine.emplace(std::move(*created));
  }

  // Measured phase: whole Runs until the phase length is used up.
  std::vector<double> run_seconds, run_cpu_seconds;
  std::vector<RunReport> reports;
  std::vector<std::pair<int32_t, int32_t>> links;
  bool runs_agree = true;
  const int64_t phase_end =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  while (run_seconds.empty() || NowNs() < phase_end) {
    const int64_t start = NowNs();
    const double cpu_start = ProcessCpuSeconds();
    LinkageResult result = [&] {
      ScopedSpan span(spans, "core.linkage.run",
                      static_cast<int64_t>(run_seconds.size()));
      return engine->Run();
    }();
    run_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    run_cpu_seconds.push_back(ProcessCpuSeconds() - cpu_start);
    ++out.attempted;
    if (result.report().degraded) ++out.failed;
    if (links.empty()) {
      links = result.linked_pairs;
    } else if (result.linked_pairs != links) {
      runs_agree = false;
    }
    reports.push_back(result.report());
  }
  // Read before the gates, so the reference run cannot set the peak.
  const double peak_rss_mb = PeakRssMb();
  engine.reset();

  // Gates, outside the measured phase. Filter-and-refine must equal exact
  // BM on every edge bucket: the same join with both bounds switched off.
  gates->Check(runs_agree, "batch: every timed Run returns the same links");
  LinkageConfig exact = config;
  exact.use_upper_bound_filter = false;
  exact.use_lower_bound_accept = false;
  Result<LinkageResult> reference = RunGroupLinkage(corpus, exact);
  gates->Check(reference.ok() && reference->linked_pairs == links,
               "batch: links equal exact BM on every bucket (bounds off)");
  gates->Check(!links.empty(), "batch: the corpus links at all");

  const PairMetrics quality = EvaluatePairs(links, corpus.TruePairs());
  const double groups = static_cast<double>(corpus.num_groups());
  // An operation is a corpus group for ops_per_s and a whole Run for the
  // latency percentiles.
  std::vector<double> run_ms;
  for (const double seconds : run_seconds) run_ms.push_back(seconds * 1e3);
  out.EndToEnd("setup_s", Median(setup_seconds), "s");
  out.EndToEnd("ops_per_s", groups / Median(run_seconds), "1/s");
  out.EndToEnd("latency_p50_ms", Percentile(run_ms, 0.50), "ms");
  out.EndToEnd("latency_p99_ms", Percentile(run_ms, 0.99), "ms");
  out.EndToEnd("link_f1", quality.f1, "ratio");
  out.EndToEnd("ok_ratio",
               static_cast<double>(out.attempted - out.failed) /
                   static_cast<double>(out.attempted),
               "ratio");
  out.EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");

  // Stage numbers of every Run (medians for times; counters are exact
  // and identical across Runs, which the equal-links gate implies).
  std::vector<double> join_s, verify_s, bucket_s, score_s, efficiency;
  for (const RunReport& report : reports) {
    const StageStats* join = report.FindStage("join");
    const double verify = join != nullptr ? join->Timing("verify") : 0.0;
    join_s.push_back(report.StageSeconds("join"));
    verify_s.push_back(verify);
    bucket_s.push_back(report.StageSeconds("bucket"));
    score_s.push_back(report.StageSeconds("score"));
    efficiency.push_back(verify / (report.StageSeconds("join") * kThreads));
  }
  const RunReport& first = reports.front();
  const double record_candidates =
      static_cast<double>(first.StageCounter("join", "record_candidates"));
  const double edges = static_cast<double>(first.StageCounter("join", "edges"));
  const double group_pairs =
      static_cast<double>(first.StageCounter("bucket", "group_pairs"));

  out.Property("corpus_groups", groups, "count");
  out.Property("corpus_records", corpus.num_records(), "count");
  out.Property("true_pairs", static_cast<double>(corpus.TruePairs().size()), "count");
  out.Property("linked_pairs", static_cast<double>(links.size()), "count");
  out.Property("link_precision", quality.precision, "ratio");
  out.Property("link_recall", quality.recall, "ratio");
  out.Property("edge_bucket_share_of_group_pairs",
               group_pairs / (groups * (groups - 1.0) / 2.0), "ratio");
  out.Property("refined_share_of_buckets",
               static_cast<double>(first.StageCounter("score", "refined")) / group_pairs,
               "ratio");
  out.Property("run_cpu_s", Median(run_cpu_seconds), "s");
  out.Property("samples.runs", static_cast<double>(run_seconds.size()), "count");
  out.Property("samples.setups", static_cast<double>(setup_seconds.size()), "count");
  out.Property("threads", kThreads, "count");

  if (trace != nullptr) {
    std::vector<double> prepare_s;
    for (const double ms : trace->DurationsMs("text.prepare")) {
      prepare_s.push_back(ms * 1e-3);
    }
    out.Layer("text.prepare_s", Median(prepare_s), "s");
    out.Layer("text.verify_cpu_s", Median(verify_s), "s");
    out.Layer("index.join_s", Median(join_s), "s");
    out.Layer("index.record_candidates", record_candidates, "count");
    out.Layer("index.join_yield", edges / record_candidates, "ratio");
    out.Layer("matching.refined",
              static_cast<double>(first.StageCounter("score", "refined")), "count");
    out.Layer("core.edge_join.bucket_s", Median(bucket_s), "s");
    out.Layer("core.edge_join.score_s", Median(score_s), "s");
    out.Layer("core.edge_join.group_pairs", group_pairs, "count");
    out.Layer("common.parallel_efficiency", Median(efficiency), "ratio");
  }
  return out;
}

}  // namespace perfbench
}  // namespace grouplink
