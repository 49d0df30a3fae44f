#include "support/brute_force.h"

#include <vector>

#include "common/logging.h"

namespace grouplink {
namespace {

// Shared recursion over left nodes: each left node is either skipped or
// matched to a free right neighbor. `on_complete` sees every matching
// (weight, size) exactly once per distinct left->right assignment.
struct Enumerator {
  const std::vector<std::vector<double>>* weights;
  int32_t num_left;
  int32_t num_right;
  std::vector<int32_t> left_to_right;
  std::vector<bool> right_used;

  template <typename Callback>
  void Recurse(int32_t l, double weight, int32_t size, const Callback& on_complete) {
    if (l == num_left) {
      on_complete(weight, size, left_to_right);
      return;
    }
    // Leave l unmatched.
    Recurse(l + 1, weight, size, on_complete);
    for (int32_t r = 0; r < num_right; ++r) {
      const double w = (*weights)[static_cast<size_t>(l)][static_cast<size_t>(r)];
      if (w <= 0.0 || right_used[static_cast<size_t>(r)]) continue;
      right_used[static_cast<size_t>(r)] = true;
      left_to_right[static_cast<size_t>(l)] = r;
      Recurse(l + 1, weight + w, size + 1, on_complete);
      left_to_right[static_cast<size_t>(l)] = Matching::kUnmatched;
      right_used[static_cast<size_t>(r)] = false;
    }
  }
};

Enumerator MakeEnumerator(const BipartiteGraph& graph,
                          const std::vector<std::vector<double>>& weights) {
  Enumerator e;
  e.weights = &weights;
  e.num_left = graph.num_left();
  e.num_right = graph.num_right();
  e.left_to_right.assign(static_cast<size_t>(graph.num_left()), Matching::kUnmatched);
  e.right_used.assign(static_cast<size_t>(graph.num_right()), false);
  return e;
}

}  // namespace

Matching BruteForceMaxWeightMatching(const BipartiteGraph& graph) {
  GL_CHECK_LE(graph.num_left(), 12);
  const auto weights = graph.ToDenseWeights();
  Enumerator enumerator = MakeEnumerator(graph, weights);

  double best_weight = -1.0;
  std::vector<int32_t> best_assignment(static_cast<size_t>(graph.num_left()),
                                       Matching::kUnmatched);
  enumerator.Recurse(
      0, 0.0, 0,
      [&](double weight, int32_t /*size*/, const std::vector<int32_t>& assignment) {
        if (weight > best_weight) {
          best_weight = weight;
          best_assignment = assignment;
        }
      });

  Matching result = Matching::Empty(graph.num_left(), graph.num_right());
  result.left_to_right = best_assignment;
  for (int32_t l = 0; l < graph.num_left(); ++l) {
    const int32_t r = result.left_to_right[static_cast<size_t>(l)];
    if (r != Matching::kUnmatched) result.right_to_left[static_cast<size_t>(r)] = l;
  }
  result.RecomputeTotals(weights);
  return result;
}

double BruteForceMaxNormalizedScore(const BipartiteGraph& graph) {
  const int32_t total = graph.num_left() + graph.num_right();
  if (total == 0) return 1.0;
  if (graph.num_left() == 0 || graph.num_right() == 0) return 0.0;
  GL_CHECK_LE(graph.num_left(), 12);
  const auto weights = graph.ToDenseWeights();
  Enumerator enumerator = MakeEnumerator(graph, weights);

  double best = 0.0;
  enumerator.Recurse(
      0, 0.0, 0,
      [&](double weight, int32_t size, const std::vector<int32_t>& /*assignment*/) {
        const double denominator = static_cast<double>(total - size);
        GL_DCHECK(denominator > 0.0);
        best = std::max(best, weight / denominator);
      });
  return best;
}

}  // namespace grouplink
