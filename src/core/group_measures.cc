#include "core/group_measures.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "matching/greedy.h"
#include "matching/hopcroft_karp.h"
#include "matching/hungarian.h"
#include "matching/semi_matching.h"
#include "matching/ssp_matching.h"
#include "text/simd_kernels.h"

namespace grouplink {

BipartiteGraph BuildSimilarityGraph(const Dataset& dataset, int32_t g1, int32_t g2,
                                    const RecordSimFn& sim, double theta) {
  GL_CHECK_GT(theta, 0.0);
  const Group& left = dataset.groups[static_cast<size_t>(g1)];
  const Group& right = dataset.groups[static_cast<size_t>(g2)];
  BipartiteGraph graph(static_cast<int32_t>(left.record_ids.size()),
                       static_cast<int32_t>(right.record_ids.size()));
  for (size_t i = 0; i < left.record_ids.size(); ++i) {
    for (size_t j = 0; j < right.record_ids.size(); ++j) {
      const double s = sim(left.record_ids[i], right.record_ids[j]);
      GL_DCHECK(s >= 0.0 && s <= 1.0 + 1e-9);
      if (s >= theta) {
        graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
      }
    }
  }
  return graph;
}

BipartiteGraph BuildSimilarityGraphBatched(const Dataset& dataset, int32_t g1,
                                           int32_t g2,
                                           const std::vector<SparseVector>& vectors,
                                           std::vector<double>& scratch,
                                           double theta) {
  GL_CHECK_GT(theta, 0.0);
  const Group& left = dataset.groups[static_cast<size_t>(g1)];
  const Group& right = dataset.groups[static_cast<size_t>(g2)];
  BipartiteGraph graph(static_cast<int32_t>(left.record_ids.size()),
                       static_cast<int32_t>(right.record_ids.size()));
  if (right.record_ids.empty()) return graph;
  // One batch per left record, |g2| pairs each.
  static Counter& m_batches =
      MetricsRegistry::Default().CounterRef("simd.cosine_batches");
  static Counter& m_pairs =
      MetricsRegistry::Default().CounterRef("simd.cosine_batch_pairs");
  m_batches.Increment(left.record_ids.size());
  m_pairs.Increment(left.record_ids.size() * right.record_ids.size());

  // The gathers read the slot of every right token id, so the scratch
  // must cover the largest id of either side (ids ascend in a vector).
  size_t dimension = scratch.size();
  for (const Group* group : {&left, &right}) {
    for (const int32_t record : group->record_ids) {
      const SparseVector& v = vectors[static_cast<size_t>(record)];
      if (!v.empty()) {
        dimension = std::max(dimension, static_cast<size_t>(v.ids.back()) + 1);
      }
    }
  }
  scratch.resize(dimension, 0.0);

  for (size_t i = 0; i < left.record_ids.size(); ++i) {
    const SparseVector& probe = vectors[static_cast<size_t>(left.record_ids[i])];
    // A token-less record scores 0 against everything: no edge.
    if (probe.empty()) continue;
    for (size_t k = 0; k < probe.size(); ++k) {
      scratch[static_cast<size_t>(probe.ids[k])] = probe.weights[k];
    }
    for (size_t j = 0; j < right.record_ids.size(); ++j) {
      const SparseVector& candidate = vectors[static_cast<size_t>(right.record_ids[j])];
      const double s = ScatterDot(scratch.data(), candidate.ids.data(),
                                  candidate.weights.data(), candidate.size());
      GL_DCHECK(s >= 0.0 && s <= 1.0 + 1e-9);
      if (s >= theta) {
        graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
      }
    }
    // Every other slot is +0.0, which the bitwise equality of ScatterDot
    // with the merge dot depends on, so the scratch goes back that way.
    for (const int32_t id : probe.ids) scratch[static_cast<size_t>(id)] = 0.0;
  }
  return graph;
}

double NormalizeMatchingScore(double weight, int32_t size, int32_t size_left,
                              int32_t size_right) {
  const int32_t denominator = size_left + size_right - size;
  if (denominator <= 0) {
    // Only possible when both groups are empty (size == 0 too): identical.
    return size_left == 0 && size_right == 0 ? 1.0 : 0.0;
  }
  return weight / static_cast<double>(denominator);
}

namespace {

GroupScore ScoreFromMatching(const Matching& matching, int32_t size_left,
                             int32_t size_right) {
  GroupScore score;
  score.matching_weight = matching.total_weight;
  score.matching_size = matching.size;
  score.value = NormalizeMatchingScore(matching.total_weight, matching.size, size_left,
                                       size_right);
  return score;
}

}  // namespace

GroupScore BmMeasure(const BipartiteGraph& graph, int32_t size_left,
                     int32_t size_right, const ExecutionContext* ctx) {
  return ScoreFromMatching(HungarianMaxWeightMatching(graph, ctx), size_left,
                           size_right);
}

GroupScore GreedyMeasure(const BipartiteGraph& graph, int32_t size_left,
                         int32_t size_right) {
  return ScoreFromMatching(GreedyMaxWeightMatching(graph), size_left, size_right);
}

double UpperBoundMeasure(const BipartiteGraph& graph, int32_t size_left,
                         int32_t size_right) {
  if (size_left == 0 && size_right == 0) return 1.0;
  const SemiMatching semi = ComputeSemiMatching(graph);
  const double s = 0.5 * (semi.SumBestLeft() + semi.SumBestRight());
  const int32_t max_matching = std::min(semi.covered_left, semi.covered_right);
  const int32_t denominator = size_left + size_right - max_matching;
  GL_DCHECK(denominator > 0);
  return s / static_cast<double>(denominator);
}

double GreedyLowerBound(const BipartiteGraph& graph, int32_t size_left,
                        int32_t size_right) {
  if (size_left == 0 && size_right == 0) return 1.0;
  const Matching greedy = GreedyMaxWeightMatching(graph);
  const int32_t min_optimal_size = (greedy.size + 1) / 2;  // ceil(k_g / 2).
  const int32_t denominator = size_left + size_right - min_optimal_size;
  GL_DCHECK(denominator > 0);
  return greedy.total_weight / static_cast<double>(denominator);
}

GroupScore BinaryJaccardMeasure(const BipartiteGraph& graph, int32_t size_left,
                                int32_t size_right) {
  const Matching matching = HopcroftKarpMatching(graph);
  GroupScore score;
  score.matching_weight = static_cast<double>(matching.size);  // Edges count 1.
  score.matching_size = matching.size;
  score.value = NormalizeMatchingScore(score.matching_weight, matching.size, size_left,
                                       size_right);
  return score;
}

double SingleBestMeasure(const BipartiteGraph& graph) {
  double best = 0.0;
  for (const BipartiteEdge& e : graph.edges()) best = std::max(best, e.weight);
  return best;
}

double BmStarMeasure(const BipartiteGraph& graph, int32_t size_left,
                     int32_t size_right) {
  return MaxNormalizedMatchingScore(graph, size_left, size_right);
}

double ContainmentMeasure(const BipartiteGraph& graph, int32_t size_left,
                          int32_t size_right) {
  if (size_left == 0 && size_right == 0) return 1.0;
  if (size_left == 0 || size_right == 0) return 0.0;
  const Matching matching = HungarianMaxWeightMatching(graph);
  return matching.total_weight / static_cast<double>(std::min(size_left, size_right));
}

const char* GroupMeasureKindName(GroupMeasureKind kind) {
  switch (kind) {
    case GroupMeasureKind::kBm:
      return "BM";
    case GroupMeasureKind::kBmStar:
      return "BM*";
    case GroupMeasureKind::kGreedy:
      return "Greedy";
    case GroupMeasureKind::kUpperBound:
      return "UB";
    case GroupMeasureKind::kBinaryJaccard:
      return "Jaccard";
    case GroupMeasureKind::kSingleBest:
      return "SingleBest";
    case GroupMeasureKind::kContainment:
      return "Containment";
  }
  return "unknown";
}

double EvaluateGroupMeasure(GroupMeasureKind kind, const BipartiteGraph& graph,
                            int32_t size_left, int32_t size_right) {
  switch (kind) {
    case GroupMeasureKind::kBm:
      return BmMeasure(graph, size_left, size_right).value;
    case GroupMeasureKind::kBmStar:
      return BmStarMeasure(graph, size_left, size_right);
    case GroupMeasureKind::kGreedy:
      return GreedyMeasure(graph, size_left, size_right).value;
    case GroupMeasureKind::kUpperBound:
      return UpperBoundMeasure(graph, size_left, size_right);
    case GroupMeasureKind::kBinaryJaccard:
      return BinaryJaccardMeasure(graph, size_left, size_right).value;
    case GroupMeasureKind::kSingleBest:
      return SingleBestMeasure(graph);
    case GroupMeasureKind::kContainment:
      return ContainmentMeasure(graph, size_left, size_right);
  }
  return 0.0;
}

}  // namespace grouplink
