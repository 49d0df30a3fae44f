#ifndef GROUPLINK_PERFBENCH_HARNESS_H_
#define GROUPLINK_PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark workloads: the generated inputs, the
// correctness gates, summary statistics and the result of one run.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/group.h"
#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "trace.h"

namespace grouplink {
namespace perfbench {

/// Record-level edge threshold θ and group-level link threshold Θ of
/// every workload (the calibration of the repository's experiments).
inline constexpr double kTheta = 0.35;
inline constexpr double kGroupThreshold = 0.2;

/// Settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  /// Length of the measured phase.
  double seconds = 20.0;
  /// Scratch directory inside the checkout (the paged store lives here).
  std::string work_dir;
};

/// The hard bibliographic corpus every workload links: noise 0.25 and 6
/// confusable topics, which is what drives candidate fan-out. Kept here
/// rather than shared with bench/ so the benchmark's inputs only change
/// when the benchmark does.
BibliographicConfig HardCorpus(int32_t entities, uint64_t seed);

/// A corpus of exactly-sized work for every seed: the shortest prefix of
/// whole groups holding at least `records` records, cut from the first
/// generation that reaches that size, counting up from `entities` entities
/// in steps of 1%.
/// Fixing the record count keeps per-query and per-refresh work, and
/// memory, from varying with the seed; only the contents do. With the
/// default seed the cut is the whole 200-entity (5,502 records) or
/// 1000-entity (27,264 records) generation. `*generated_entities` receives
/// the entity count of the generation that was cut.
Dataset SizedCorpus(int32_t entities, int32_t records, uint64_t seed,
                    int32_t* generated_entities);

/// Group `group` of `dataset` as an arrival carrying its record texts.
GroupArrival ArrivalOf(const Dataset& dataset, int32_t group);

/// One query of a probe set. `own_group` is the corpus group a replayed
/// probe copies (it must link there); -1 for an unseen entity.
struct Probe {
  GroupArrival group;
  int32_t own_group = -1;
};

/// Probes over a corpus cut from a generation of `corpus_entities`
/// entities from `seed`, until they hold `records` records in all (so a
/// pass over the set does the same work for every seed). Every third one
/// replays a corpus group among the first `replayable_groups` (a true
/// match), the others are groups of entities the corpus lacks. Those come
/// from a larger generation with the same seed, so they share the
/// corpus's topic vocabularies and coauthor pool (hard non-matches).
/// Interleaved, so any contiguous slice keeps the mix.
std::vector<Probe> BuildProbes(const Dataset& corpus, int32_t replayable_groups,
                               int32_t corpus_entities, uint64_t seed, int32_t records);

/// Nearest-rank percentile, p in [0, 1]. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMb();

/// CPU time (user + system) of every thread of this process so far, in
/// seconds (getrusage).
double ProcessCpuSeconds();

/// Correctness gates of one run. Any failure makes the run exit non-zero
/// without printing metrics.
class Gates {
 public:
  /// Records one check; `what` names it in the report.
  void Check(bool ok, const std::string& what);

  bool passed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& checks() const { return checks_; }

 private:
  std::vector<std::string> checks_;
  std::vector<std::string> failures_;
};

/// A named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Measured workload properties (shares, sizes, rates) and sample counts.
  std::vector<Metric> properties;

  void EndToEnd(std::string name, double value, std::string unit);
  void Layer(std::string name, double value, std::string unit);
  void Property(std::string name, double value, std::string unit);
};

/// Times IncrementalLinker::Clone, Refresh and CorpusSnapshot::Capture
/// once on the corpus of `snapshot` (rebuilt by FromSnapshot), outside any
/// measured phase, as core.incremental.clone_s, core.incremental.refresh_s
/// and core.snapshot.capture_s.
void AddWriterCosts(const CorpusSnapshot& snapshot, SpanBuffer* spans, Gates* gates,
                    Outcome* out);

/// The workloads. `trace` is null in an untraced run.
Outcome RunBatch(const RunOptions& options, Trace* trace, Gates* gates);
Outcome RunServe(const RunOptions& options, Trace* trace, Gates* gates);
Outcome RunPaged(const RunOptions& options, Trace* trace, Gates* gates);

}  // namespace perfbench
}  // namespace grouplink

#endif  // GROUPLINK_PERFBENCH_HARNESS_H_
