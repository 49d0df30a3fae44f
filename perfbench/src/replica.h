#ifndef GROUPLINK_PERFBENCH_REPLICA_H_
#define GROUPLINK_PERFBENCH_REPLICA_H_

// A phase-by-phase replica of CorpusSnapshot::LinkQuery, built from the
// same public calls (Tokenize ... DecideGraphLinked), so the traced run
// can time each layer of a query from outside the library. The traced
// workloads assert that its answer equals LinkQuery's on every query.

#include <cstdint>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "harness.h"
#include "trace.h"

namespace grouplink {
namespace perfbench {

/// Exact work of one query (or a sum over queries).
struct QueryWork {
  int64_t queries = 0;
  /// Posting entries read to find candidates.
  int64_t postings = 0;
  /// Candidate groups, and live groups at the answering epoch.
  int64_t candidates = 0;
  int64_t live_groups = 0;
  /// Record pairs scored by PrenormalizedCosineSimilarity, and those >= θ.
  int64_t cosine_calls = 0;
  int64_t edges = 0;
  /// Rung of the filter-and-refine ladder that decides each candidate.
  int64_t empty = 0;
  int64_t ub_pruned = 0;
  int64_t lb_accepted = 0;
  int64_t refined = 0;
  int64_t links = 0;

  void Add(const QueryWork& other);
};

/// Answers `probe` against `snapshot` exactly as the unconstrained
/// CorpusSnapshot::LinkQuery does, one span per phase under a
/// "replica.query" span tagged `op`: text.probe_prep, index.candidates,
/// text.cosine, matching.graph, core.filter_refine.decide. The rung
/// counts in `work` come from an untimed pass after the spans close.
std::vector<int32_t> ReplicaLinkQuery(const CorpusSnapshot& snapshot,
                                      const GroupArrival& probe, SpanBuffer* spans,
                                      int64_t op, QueryWork* work);

/// Reference answer with no bounds and no index: exact BM >= Θ (Hungarian
/// matching) against every live group of `snapshot`.
std::vector<int32_t> ExactBmLinks(const CorpusSnapshot& snapshot,
                                  const GroupArrival& probe);

/// Adds the per-layer metrics of the query pipeline (serve and paged): the
/// median span of each replica phase in `trace`, and means per query of
/// the exact work in `work`, summed over the traced queries.
void AddQueryLayers(const Trace& trace, const QueryWork& work, Outcome* out);

/// Adds the probe set's properties, measured by an untimed replica pass
/// on `snapshot`: the share of true-match probes, candidates ÷ live groups
/// and the share of candidates whose θ-graph is empty.
void AddProbeProperties(const CorpusSnapshot& snapshot, const std::vector<Probe>& probes,
                        Outcome* out);

}  // namespace perfbench
}  // namespace grouplink

#endif  // GROUPLINK_PERFBENCH_REPLICA_H_
