#include "core/edge_join.h"

#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace grouplink {

Result<std::vector<std::pair<int32_t, int32_t>>> EdgeJoinLink(
    const PostingsCorpus& corpus, std::span<const SparseVector> vectors,
    const FilterRefineConfig& ladder, RunReport* report, ThreadPool* pool,
    ExecutionContext* ctx) {
  GL_CHECK_GT(ladder.theta, 0.0);
  RunReport local_report;
  RunReport& out_report = report != nullptr ? *report : local_report;

  // Stages 1+2 (join + bucket), into the buckets of this thread's last
  // join, whose buffers are warm: grown afresh, they were faulted in again
  // on every call. (A reference, so the workers below read this thread's.)
  thread_local JoinBuckets thread_joined;
  JoinBuckets& joined = thread_joined;
  GL_RETURN_IF_ERROR(
      AccumulateSelfJoin(corpus, vectors, ladder.theta, pool, ctx, &out_report, &joined));
  const size_t num_buckets = joined.buckets.size();

  // Stage 3 (score): buckets are independent, so decide them in parallel
  // through the shared ladder (DecideGraphRung) into preallocated rung
  // slots and aggregate serially in bucket order.
  WallTimer timer;
  GL_TRACE_SPAN("edge_join.score");
  std::vector<LinkRung> rungs(num_buckets, LinkRung::kSkipped);

  // Candidate budget (and the candidates.oversized fault): keep the best
  // buckets by UB score — deterministic, it depends only on the buckets.
  std::vector<char> keep;
  const size_t cap = ctx != nullptr ? ctx->EffectiveCandidateCap(num_buckets) : num_buckets;
  if (cap < num_buckets) {
    std::vector<double> ub(num_buckets, 0.0);
    ParallelFor(pool, num_buckets, [&](size_t i) {
      const JoinBuckets::Bucket& bucket = joined.buckets[i];
      ub[i] = UpperBoundMeasure(joined.Graph(i), bucket.size1, bucket.size2);
    });
    keep = KeepHighestUpperBounds(ub, cap);
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) rungs[i] = LinkRung::kShedByCap;
    }
    ctx->NoteDegraded();
  }

  ParallelFor(
      pool, num_buckets,
      [&](size_t i) {
        if (!keep.empty() && !keep[i]) return;  // Stays kShedByCap.
        const JoinBuckets::Bucket& bucket = joined.buckets[i];
        rungs[i] = DecideGraphRung(joined.Graph(i), bucket.size1, bucket.size2, ladder, ctx);
      },
      ctx);

  std::vector<std::pair<int32_t, int32_t>> linked;
  for (size_t i = 0; i < num_buckets; ++i) {
    if (RungLinks(rungs[i])) linked.emplace_back(joined.buckets[i].g1, joined.buckets[i].g2);
  }
  StageStats& score = out_report.AddStage("score");
  score.AddCounter("group_pairs", static_cast<int64_t>(num_buckets));
  AddRungCounters(rungs, &score);
  const int64_t skipped = score.Counter("skipped");
  const int64_t shed = score.Counter("shed_candidates");
  if (ctx != nullptr && (skipped > 0 || score.Counter("degraded_refines") > 0)) {
    ctx->NoteDegraded();
  }
  if (skipped > 0) TagCurrentSpan("buckets_skipped", std::to_string(skipped));
  if (shed > 0) TagCurrentSpan("buckets_shed", std::to_string(shed));
  score.seconds = timer.ElapsedSeconds();
  MirrorToRegistry(score, "edge_join",
                   {"group_pairs", "ub_pruned", "lb_accepted", "refined", "linked",
                    "shed_candidates", "degraded_refines", "skipped"});

  static Histogram& m_bucket_size = MetricsRegistry::Default().HistogramRef(
      "edge_join.bucket_size", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  for (const JoinBuckets::Bucket& bucket : joined.buckets) {
    m_bucket_size.Observe(static_cast<double>(bucket.end - bucket.begin));
  }
  return linked;
}

}  // namespace grouplink
