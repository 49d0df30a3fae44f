#include "core/accumulate.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace grouplink {
namespace {

/// A thread's dense accumulator, reused across calls: one sum per corpus
/// record, a generation stamp marking the sums the current probe record
/// touched (so nothing is cleared between probe records), the touched
/// list, and the decode scratch of paged postings.
struct Accumulator {
  std::vector<double> sum;
  std::vector<uint32_t> stamp;
  std::vector<int32_t> touched;
  uint32_t generation = 0;
  PostingList decoded;
};

Accumulator& ThreadAccumulator(size_t num_records) {
  thread_local Accumulator accumulator;
  if (accumulator.sum.size() < num_records) {
    accumulator.sum.resize(num_records);
    accumulator.stamp.resize(num_records, 0);
  }
  return accumulator;
}

/// An edge found by accumulation, before it is placed in its graph.
struct FoundEdge {
  int32_t group;
  int32_t record;
  int32_t probe;
  double weight;
};

}  // namespace

Result<std::vector<GroupGraph>> AccumulateGraphs(
    const PostingsCorpus& corpus, std::span<const SparseVector> probe,
    ProbePlacement placement, double theta, size_t* postings_scanned) {
  const std::vector<int32_t>& record_group = corpus.record_group();
  Accumulator& acc = ThreadAccumulator(record_group.size());
  std::vector<FoundEdge> edges;
  for (size_t j = 0; j < probe.size(); ++j) {
    if (++acc.generation == 0) {  // Wrapped: no stale stamp may match.
      std::fill(acc.stamp.begin(), acc.stamp.end(), 0);
      acc.generation = 1;
    }
    acc.touched.clear();
    const SparseVector& vector = probe[j];
    for (size_t k = 0; k < vector.size(); ++k) {
      GL_ASSIGN_OR_RETURN(const PostingList* list,
                          corpus.TokenPostings(vector.ids[k], &acc.decoded));
      const double probe_weight = vector.weights[k];
      const WeightedPosting* entry = list->data();
      const WeightedPosting* const end = entry + list->size();
      // Lists ascend by record id, so the cutoff ends the walk.
      for (; entry != end && entry->record < placement.record_cutoff; ++entry) {
        const size_t r = static_cast<size_t>(entry->record);
        GL_DCHECK_LT(r, record_group.size());
        if (acc.stamp[r] != acc.generation) {
          acc.stamp[r] = acc.generation;
          acc.sum[r] = 0.0;
          acc.touched.push_back(entry->record);
        }
        // Tokens arrive in ascending id, so each sum adds the shared
        // tokens' products in DotProduct's own order.
        acc.sum[r] += entry->weight * probe_weight;
      }
      *postings_scanned += static_cast<size_t>(entry - list->data());
    }
    for (const int32_t r : acc.touched) {
      const double weight = acc.sum[static_cast<size_t>(r)];
      if (weight < theta) continue;
      const int32_t g = record_group[static_cast<size_t>(r)];
      if (g == placement.group) continue;
      edges.push_back({g, r, static_cast<int32_t>(j), weight});
    }
  }

  // Bucket by group; within a group by record, then probe position.
  std::sort(edges.begin(), edges.end(), [](const FoundEdge& a, const FoundEdge& b) {
    return std::tie(a.group, a.record, a.probe) < std::tie(b.group, b.record, b.probe);
  });
  const int32_t probe_size = static_cast<int32_t>(probe.size());
  std::vector<GroupGraph> graphs;
  std::vector<BipartiteEdge> placed;  // (group position, probe position).
  for (size_t begin = 0; begin < edges.size();) {
    const int32_t g = edges[begin].group;
    size_t end = begin;
    while (end < edges.size() && edges[end].group == g) ++end;
    // Walking the group's positions yields (group position, probe
    // position) order whatever the order of its record ids.
    const std::vector<int32_t>& members = corpus.GroupRecords(g);
    const auto bucket_end = edges.begin() + static_cast<ptrdiff_t>(end);
    placed.clear();
    for (size_t i = 0; i < members.size(); ++i) {
      auto e = std::lower_bound(edges.begin() + static_cast<ptrdiff_t>(begin), bucket_end,
                                members[i], [](const FoundEdge& edge, int32_t r) {
                                  return edge.record < r;
                                });
      for (; e != bucket_end && e->record == members[i]; ++e) {
        placed.push_back({static_cast<int32_t>(i), e->probe, e->weight});
      }
    }
    if (placed.size() != end - begin) {
      return Status::DataLoss("a posting names a record its group does not list");
    }
    const int32_t group_size = static_cast<int32_t>(members.size());
    if (g < placement.group) {
      BipartiteGraph graph(group_size, probe_size);
      for (const BipartiteEdge& e : placed) graph.AddEdge(e.left, e.right, e.weight);
      graphs.push_back({g, std::move(graph)});
    } else {
      // The probe precedes this group (a merge target): the probe is the
      // left side, so the graph is the transpose, edges in probe-position
      // order.
      std::stable_sort(placed.begin(), placed.end(),
                       [](const BipartiteEdge& a, const BipartiteEdge& b) {
                         return a.right < b.right;
                       });
      BipartiteGraph graph(probe_size, group_size);
      for (const BipartiteEdge& e : placed) graph.AddEdge(e.right, e.left, e.weight);
      graphs.push_back({g, std::move(graph)});
    }
    begin = end;
  }
  return graphs;
}

Result<AccumulateOutcome> AccumulateAndDecide(const PostingsCorpus& corpus,
                                              std::span<const SparseVector> probe,
                                              ProbePlacement placement,
                                              const FilterRefineConfig& ladder,
                                              const ExecutionContext* ctx) {
  AccumulateOutcome outcome;
  if (ctx != nullptr && ctx->StopRequested()) {
    outcome.degraded = true;
    return outcome;
  }
  GL_ASSIGN_OR_RETURN(std::vector<GroupGraph> graphs,
                      AccumulateGraphs(corpus, probe, placement, ladder.theta,
                                       &outcome.postings_scanned));
  if (ctx != nullptr) {
    // Candidate budget: truncate the ascending (hence deterministic) tail.
    const size_t cap = ctx->EffectiveCandidateCap(graphs.size());
    if (cap < graphs.size()) {
      graphs.erase(graphs.begin() + static_cast<ptrdiff_t>(cap), graphs.end());
      outcome.degraded = true;
      ctx->NoteDegraded();
    }
  }
  outcome.candidates = graphs.size();
  for (const GroupGraph& candidate : graphs) {
    if (ctx != nullptr && ctx->StopRequested()) {
      outcome.degraded = true;
      break;
    }
    if (DecideGraphLinked(candidate.graph, candidate.graph.num_left(),
                          candidate.graph.num_right(), ladder, ctx)) {
      outcome.linked.push_back(candidate.group);
    }
  }
  return outcome;
}

}  // namespace grouplink
