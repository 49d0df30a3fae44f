#ifndef GROUPLINK_EVAL_SWEEP_H_
#define GROUPLINK_EVAL_SWEEP_H_

// gl-lint: allow(unreached-header) E2 sweeps Θ with it; no shipped path does.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/scored_pair.h"
#include "eval/metrics.h"

namespace grouplink {

/// Metrics of one threshold setting in a sweep.
struct SweepPoint {
  double threshold = 0.0;
  PairMetrics metrics;
};

/// Evaluates precision/recall/F1 at every threshold in `thresholds`
/// against ground-truth pairs, from a single scored candidate set — the
/// score-once / sweep-many pattern behind the threshold figures: scoring
/// is the expensive part (one matching per pair), thresholding is free.
///
/// A pair is predicted-positive at threshold t iff score >= t. Pairs
/// absent from `scored` are implicitly scored 0.
[[nodiscard]] std::vector<SweepPoint> ThresholdSweep(
    const std::vector<ScoredPair>& scored,
    const std::vector<std::pair<int32_t, int32_t>>& truth,
    const std::vector<double>& thresholds);

/// The threshold in `thresholds` maximizing F1 (ties: lowest threshold).
[[nodiscard]] double BestF1Threshold(const std::vector<ScoredPair>& scored,
                       const std::vector<std::pair<int32_t, int32_t>>& truth,
                       const std::vector<double>& thresholds);

}  // namespace grouplink

#endif  // GROUPLINK_EVAL_SWEEP_H_
