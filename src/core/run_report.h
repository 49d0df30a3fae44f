#ifndef GROUPLINK_CORE_RUN_REPORT_H_
#define GROUPLINK_CORE_RUN_REPORT_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace grouplink {

class JsonWriter;

/// Unified run-statistics API. One LinkageEngine::Run produces one
/// RunReport: a row of run-level facts (strategy, measure, thread count,
/// dataset size, links, clusters) plus an ordered list of StageStats —
/// one entry per pipeline stage — each carrying that stage's wall time
/// and named counters. Each stage is written once, by the code that
/// counts it, and MirrorToRegistry copies the stage counters the process
/// registry tracks, so the report and the registry cannot drift apart.
///
/// Stage vocabulary (see DESIGN.md "Observability" for the full catalog):
///   per-pair pipeline:  prepare, candidates, score, cluster
///   edge-join pipeline: prepare, join, bucket, score, cluster
///
/// Everything serializes through one ToJson(), and benches aggregate
/// whole experiments with ExperimentReportJson(), so every BENCH_*.json
/// shares a single schema ("grouplink.metrics.v1").

/// One pipeline stage: wall time plus named counters and sub-phase
/// timings, in insertion order.
struct StageStats {
  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, int64_t>> counters;
  /// Sub-phase wall times (e.g. score -> graphs/bounds/refine).
  std::vector<std::pair<std::string, double>> timings;

  /// Value of counter `key`, or 0 when absent.
  int64_t Counter(std::string_view key) const;
  /// Value of timing `key`, or 0.0 when absent.
  double Timing(std::string_view key) const;
  /// Appends (or overwrites an existing) counter / timing.
  StageStats& AddCounter(std::string_view key, int64_t value);
  StageStats& AddTiming(std::string_view key, double value);
};

/// Full statistics of one linkage run.
struct RunReport {
  /// "per-pair" or "edge-join".
  std::string strategy;
  /// CandidateMethodName(...) for the per-pair pipeline, "edge-join" for
  /// the global join (which replaces candidate generation).
  std::string candidate_method;
  /// GroupMeasureKindName(...).
  std::string measure;
  /// SimdLevelName(ActiveSimdLevel()) at run time — which kernel tier
  /// ("scalar", "sse4.2", "avx2") scored this run. Informational only:
  /// the dispatch contract makes every tier produce the same links.
  std::string kernel;
  int32_t threads = 1;
  int64_t records = 0;
  int64_t groups = 0;
  int64_t links = 0;
  int64_t clusters = 0;
  /// True when any stage shed work (deadline, cancellation, budget trip,
  /// or injected fault). A degraded run's links are a subset of the
  /// unconstrained run's — never a superset (see DESIGN.md §8).
  bool degraded = false;
  /// First stop cause ("cancelled", "deadline", "fault-injected"), empty
  /// when the run completed without a stop request.
  std::string stop_reason;
  /// Pipeline stages in execution order.
  std::vector<StageStats> stages;
  /// Experiment-attached numbers outside the engine's knowledge
  /// (precision, recall, f1, ...). Benches fill these.
  std::vector<std::pair<std::string, double>> extra;

  /// Get-or-create the stage named `name` (appended at the back when new).
  /// A non-zero `seconds` sets the stage time; the default 0 leaves any
  /// previously recorded time untouched, so pure lookups are safe.
  StageStats& AddStage(std::string_view name, double seconds = 0.0);
  const StageStats* FindStage(std::string_view name) const;
  StageStats* MutableStage(std::string_view name);
  /// Stage wall time, or 0.0 when the stage is absent.
  double StageSeconds(std::string_view name) const;
  /// Counter `key` of stage `name`, or 0 when either is absent.
  int64_t StageCounter(std::string_view name, std::string_view key) const;
  /// Sum of all stage wall times.
  double TotalSeconds() const;
  void AddExtra(std::string_view key, double value);

  /// Emits this run as one JSON object:
  ///   {"strategy", "candidate_method", "measure", "threads", "records",
  ///    "groups", "links", "clusters", "degraded", "stop_reason",
  ///    "seconds_total",
  ///    "stages": [{"stage", "seconds", "counters": {...},
  ///                "timings": {...}}, ...],
  ///    "extra": {...}}
  void WriteJson(JsonWriter* json) const;
  std::string ToJson(int indent = 2) const;
};

/// Adds each counter of `stage` named in `keys` to the process registry
/// counter "<prefix>.<key>". A key the stage does not hold creates no
/// registry counter, so a shed-work counter appears in the registry once
/// it first goes non-zero.
void MirrorToRegistry(const StageStats& stage, std::string_view prefix,
                      std::initializer_list<std::string_view> keys);

/// The unified experiment file emitted by every bench and consumed by CI:
///   {"schema": "grouplink.metrics.v1",
///    "experiment": <name>,
///    "hardware_threads": <DefaultThreadCount()>,
///    "runs": [<RunReport::WriteJson objects>...],
///    "metrics": <MetricsRegistry::Default() snapshot>}
[[nodiscard]] std::string ExperimentReportJson(std::string_view experiment,
                                 const std::vector<RunReport>& runs,
                                 int indent = 2);

}  // namespace grouplink

#endif  // GROUPLINK_CORE_RUN_REPORT_H_
