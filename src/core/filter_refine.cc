#include "core/filter_refine.h"

#include <algorithm>
#include <chrono>
#include <string_view>

#include "common/logging.h"
#include "text/simd_kernels.h"

namespace grouplink {
namespace {

// Sorted-unique union of the vector-store token ids of one group's
// records, as unsigned ids for the set-intersection kernel (ids are dense
// and non-negative). Zero intersection between two groups' unions means no
// record pair shares a weighted token, so every default-sim record
// similarity is 0 and the θ-thresholded graph is provably empty.
std::vector<uint32_t> GroupTokenUnion(const Group& group, const VectorStore& store) {
  std::vector<uint32_t> tokens;
  for (const int32_t record : group.record_ids) {
    for (const int32_t id : store.TokenIds(record)) {
      tokens.push_back(static_cast<uint32_t>(id));
    }
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

// Filter-and-refine is only sound if the upper bound really bounds the
// refined measure (a pair pruned by UB must never have linked). Epsilon
// absorbs the different summation orders of the two computations.
constexpr double kBoundSlack = 1e-9;

// Stopwatch that adds elapsed time to one named timing of `stage` and
// reads no clock at all when `stage` is null.
class PhaseTimer {
 public:
  explicit PhaseTimer(StageStats* stage) : stage_(stage) {
    if (stage_ != nullptr) start_ = Clock::now();
  }

  // Adds the time since construction or the last Charge to `phase`.
  void Charge(std::string_view phase) {
    if (stage_ == nullptr) return;
    const Clock::time_point now = Clock::now();
    stage_->AddTiming(phase, stage_->Timing(phase) +
                                 std::chrono::duration<double>(now - start_).count());
    start_ = now;
  }

 private:
  using Clock = std::chrono::steady_clock;
  StageStats* stage_;
  Clock::time_point start_;
};

// Batched-scoring context of one FilterRefineLink call: the engine's
// vector store plus the per-group token unions for the zero-overlap
// precheck. Null `store` means the generic `sim`-driven path.
struct BatchContext {
  const VectorStore* store = nullptr;
  std::vector<std::vector<uint32_t>> group_tokens;
};

// Builds the pair's similarity graph — batched through the store when one
// is available, per-pair `sim` calls otherwise. Bit-identical results.
BipartiteGraph BuildGraph(const Dataset& dataset, const RecordSimFn& sim,
                          int32_t g1, int32_t g2, double theta,
                          const BatchContext& batch) {
  if (batch.store != nullptr) {
    // One scratch per worker thread, reused across pairs (self-cleaning).
    thread_local VectorStore::Scratch scratch;
    return BuildSimilarityGraphBatched(dataset, g1, g2, *batch.store, scratch, theta);
  }
  return BuildSimilarityGraph(dataset, g1, g2, sim, theta);
}

// Scores one candidate pair: the zero-overlap precheck and the graph
// build, then the shared ladder. Phase timers are optional (serial path
// only).
LinkRung DecidePair(const Dataset& dataset, const RecordSimFn& sim, int32_t g1,
                    int32_t g2, const FilterRefineConfig& config,
                    StageStats* timing, const ExecutionContext* ctx,
                    const BatchContext& batch) {
  PhaseTimer timer(timing);
  // Zero-overlap precheck (store path): groups sharing no weighted token
  // cannot produce a single edge, so the pair classifies as an empty
  // graph without touching a record pair — the exact outcome the full
  // graph build would reach.
  if (batch.store != nullptr) {
    const std::vector<uint32_t>& ta = batch.group_tokens[static_cast<size_t>(g1)];
    const std::vector<uint32_t>& tb = batch.group_tokens[static_cast<size_t>(g2)];
    if (SortedIntersectCount(ta.data(), ta.size(), tb.data(), tb.size()) == 0) {
      timer.Charge("graphs");
      return LinkRung::kEmptyGraph;
    }
  }
  const BipartiteGraph graph =
      BuildGraph(dataset, sim, g1, g2, config.theta, batch);
  timer.Charge("graphs");
  return DecideGraphRung(graph, dataset.GroupSize(g1), dataset.GroupSize(g2),
                         config, ctx, timing);
}

// Deterministic candidate cap: the kept flags of KeepHighestUpperBounds
// over every candidate's upper bound. The UB pass itself is not
// stop-checked so the kept set depends only on the candidates, never on
// timing or thread count.
std::vector<char> CapCandidatesByUpperBound(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates, double theta,
    size_t cap, ThreadPool* pool, const BatchContext& batch) {
  std::vector<double> ub(candidates.size(), 0.0);
  ParallelFor(pool, candidates.size(), [&](size_t i) {
    const auto [g1, g2] = candidates[i];
    const BipartiteGraph graph = BuildGraph(dataset, sim, g1, g2, theta, batch);
    if (!graph.edges().empty()) {
      ub[i] = UpperBoundMeasure(graph, dataset.GroupSize(g1), dataset.GroupSize(g2));
    }
  });
  return KeepHighestUpperBounds(ub, cap);
}

}  // namespace

std::vector<std::pair<int32_t, int32_t>> FilterRefineLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, StageStats* stage, ThreadPool* pool,
    ExecutionContext* ctx, const VectorStore* store) {
  StageStats local_stage;
  StageStats& s = stage != nullptr ? *stage : local_stage;
  s.AddCounter("candidates", static_cast<int64_t>(candidates.size()));
  s.AddTiming("graphs", 0.0).AddTiming("bounds", 0.0).AddTiming("refine", 0.0);

  const bool parallel = pool != nullptr && pool->num_threads() > 1;
  std::vector<LinkRung> rungs(candidates.size(), LinkRung::kSkipped);

  // Batched-scoring setup: per-group token unions for the zero-overlap
  // precheck (independent per group, so the build parallelizes).
  BatchContext batch;
  batch.store = store;
  if (store != nullptr) {
    batch.group_tokens.resize(dataset.groups.size());
    ParallelFor(parallel ? pool : nullptr, dataset.groups.size(), [&](size_t g) {
      batch.group_tokens[g] = GroupTokenUnion(dataset.groups[g], *store);
    });
  }

  // Candidate budget (and the candidates.oversized fault): keep the best
  // pairs by UB score, shed the rest before any exact scoring.
  std::vector<char> keep;
  const size_t cap =
      ctx != nullptr ? ctx->EffectiveCandidateCap(candidates.size()) : candidates.size();
  if (cap < candidates.size()) {
    keep = CapCandidatesByUpperBound(dataset, sim, candidates, config.theta, cap,
                                     parallel ? pool : nullptr, batch);
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) rungs[i] = LinkRung::kShedByCap;
    }
    ctx->NoteDegraded();
  }

  ParallelFor(
      parallel ? pool : nullptr, candidates.size(),
      [&](size_t i) {
        if (!keep.empty() && !keep[i]) return;  // Stays kShedByCap.
        rungs[i] = DecidePair(dataset, sim, candidates[i].first,
                              candidates[i].second, config,
                              parallel ? nullptr : &s, ctx, batch);
      },
      ctx);

  std::vector<std::pair<int32_t, int32_t>> linked;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (RungLinks(rungs[i])) linked.push_back(candidates[i]);
  }
  s.AddCounter("empty_graphs",
               std::count(rungs.begin(), rungs.end(), LinkRung::kEmptyGraph));
  AddRungCounters(rungs, &s);
  if (ctx != nullptr && (s.Counter("skipped") > 0 || s.Counter("degraded_refines") > 0)) {
    ctx->NoteDegraded();
  }
  // Once per call, so the cost is independent of candidate and thread count.
  MirrorToRegistry(s, "filter_refine",
                   {"candidates", "empty_graphs", "ub_pruned", "lb_accepted", "refined",
                    "linked", "shed_candidates", "degraded_refines", "skipped"});
  return linked;
}

std::vector<char> KeepHighestUpperBounds(const std::vector<double>& ub,
                                         size_t cap) {
  std::vector<size_t> order(ub.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + static_cast<ptrdiff_t>(cap),
                   order.end(), [&](size_t a, size_t b) {
                     if (ub[a] != ub[b]) return ub[a] > ub[b];
                     return a < b;
                   });
  std::vector<char> keep(ub.size(), 0);
  for (size_t k = 0; k < cap; ++k) keep[order[k]] = 1;
  return keep;
}

void AddRungCounters(const std::vector<LinkRung>& rungs, StageStats* stage) {
  int64_t count[static_cast<size_t>(LinkRung::kDegradedNoLink) + 1] = {};
  int64_t linked = 0;
  for (const LinkRung rung : rungs) {
    ++count[static_cast<size_t>(rung)];
    if (RungLinks(rung)) ++linked;
  }
  const auto of = [&count](LinkRung rung) { return count[static_cast<size_t>(rung)]; };
  stage->AddCounter("ub_pruned", of(LinkRung::kPrunedByUpperBound))
      .AddCounter("lb_accepted", of(LinkRung::kAcceptedByLowerBound))
      .AddCounter("refined", of(LinkRung::kRefinedLink) + of(LinkRung::kRefinedNoLink))
      .AddCounter("linked", linked);
  // Shed-work counters appear only on degraded runs, so the classic
  // candidates == empty + ub_pruned + lb_accepted + refined identity (and
  // the exact JSON shape) of unconstrained runs is untouched.
  const std::pair<const char*, int64_t> shed_work[] = {
      {"shed_candidates", of(LinkRung::kShedByCap)},
      {"degraded_refines", of(LinkRung::kDegradedLink) + of(LinkRung::kDegradedNoLink)},
      {"skipped", of(LinkRung::kSkipped)}};
  for (const auto& [key, value] : shed_work) {
    if (value > 0) stage->AddCounter(key, value);
  }
}

LinkRung DecideGraphRung(const BipartiteGraph& graph, int32_t size_left,
                         int32_t size_right, const FilterRefineConfig& config,
                         const ExecutionContext* ctx, StageStats* stage) {
  if (graph.edges().empty()) return LinkRung::kEmptyGraph;

  PhaseTimer timer(stage);
  if (config.use_upper_bound_filter &&
      UpperBoundMeasure(graph, size_left, size_right) < config.group_threshold) {
    timer.Charge("bounds");
    return LinkRung::kPrunedByUpperBound;
  }
  if (config.use_lower_bound_accept &&
      GreedyLowerBound(graph, size_left, size_right) >= config.group_threshold) {
    timer.Charge("bounds");
    return LinkRung::kAcceptedByLowerBound;
  }
  timer.Charge("bounds");

  // Matcher budget: on oversized pairs decide from the sound greedy lower
  // bound instead of running Hungarian. LB <= BM, so a degraded accept is
  // always a true link and a degraded reject can only under-link —
  // subset-safe, and deterministic (the cost depends only on the pair).
  const int64_t matcher_cost =
      static_cast<int64_t>(size_left) * static_cast<int64_t>(size_right);
  if (ctx != nullptr && ctx->ExceedsMatcherBudget(matcher_cost)) {
    const bool link =
        GreedyLowerBound(graph, size_left, size_right) >= config.group_threshold;
    timer.Charge("refine");
    return link ? LinkRung::kDegradedLink : LinkRung::kDegradedNoLink;
  }
  const double refined = BmMeasure(graph, size_left, size_right, ctx).value;
  // Even a stop-degraded partial matching weighs at most the optimum, so
  // the upper bound must dominate the refined value unconditionally.
  GL_DCHECK_LE(refined,
               UpperBoundMeasure(graph, size_left, size_right) + kBoundSlack)
      << "upper bound does not dominate refined BM";
  timer.Charge("refine");
  return refined >= config.group_threshold ? LinkRung::kRefinedLink
                                           : LinkRung::kRefinedNoLink;
}

bool DecideGraphLinked(const BipartiteGraph& graph, int32_t size_left,
                       int32_t size_right, const FilterRefineConfig& config,
                       const ExecutionContext* ctx) {
  const LinkRung rung = DecideGraphRung(graph, size_left, size_right, config, ctx);
  if (rung == LinkRung::kDegradedLink || rung == LinkRung::kDegradedNoLink) {
    ctx->NoteDegraded();
  }
  return RungLinks(rung);
}

std::vector<std::pair<int32_t, int32_t>> BruteForceBmLink(
    const Dataset& dataset, const RecordSimFn& sim,
    const std::vector<std::pair<int32_t, int32_t>>& candidates,
    const FilterRefineConfig& config, StageStats* stage) {
  FilterRefineConfig no_bounds = config;
  no_bounds.use_upper_bound_filter = false;
  no_bounds.use_lower_bound_accept = false;
  return FilterRefineLink(dataset, sim, candidates, no_bounds, stage);
}

}  // namespace grouplink
