#include "core/edge_join.h"

#include <algorithm>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "index/prefix_filter.h"
#include "text/vector_store.h"

namespace grouplink {
namespace {

struct Edge {
  int32_t left_pos;
  int32_t right_pos;
  double weight;
};

// A verified cross-group edge tagged with its (oriented) bucket key.
struct BucketedEdge {
  int32_t group_left;
  int32_t group_right;
  Edge edge;
};

// Batched verification flushes once this many candidates are pending for
// the current probe (and always on a probe change / shard end).
constexpr size_t kVerifyBatch = 256;

// Join-stage output of one shard of probe documents. Each shard is
// written by exactly one worker; no synchronization needed.
struct ShardOutput {
  size_t candidates = 0;
  std::vector<BucketedEdge> edges;
  // Batched-verify state (store path only): flat SoA buffers of the
  // current probe's cross-group candidates and their scores.
  int32_t pending_probe = -1;
  std::vector<int32_t> pending;
  std::vector<double> scores;
  double seconds_verify = 0.0;
  size_t verify_batches = 0;
};

}  // namespace

std::vector<std::pair<int32_t, int32_t>> EdgeJoinLink(
    const Dataset& dataset, const std::vector<std::vector<int32_t>>& record_tokens,
    int32_t num_tokens, const std::vector<int32_t>& record_group,
    const RecordSimFn& sim, const FilterRefineConfig& ladder, double join_jaccard,
    RunReport* report, ThreadPool* pool, ExecutionContext* ctx,
    const VectorStore* store) {
  GL_CHECK_GT(ladder.theta, 0.0);
  GL_CHECK_EQ(record_tokens.size(), dataset.records.size());
  GL_CHECK_EQ(record_group.size(), dataset.records.size());

  RunReport local_report;
  RunReport& out_report = report != nullptr ? *report : local_report;
  const size_t threads = pool != nullptr ? pool->num_threads() : 1;

  // Position of each record within its group (graph node index).
  std::vector<int32_t> local_pos(dataset.records.size(), 0);
  for (const Group& group : dataset.groups) {
    for (size_t i = 0; i < group.record_ids.size(); ++i) {
      local_pos[static_cast<size_t>(group.record_ids[i])] = static_cast<int32_t>(i);
    }
  }

  // Stage 1+2 (join + verify): shard probe documents across the pool; each
  // worker verifies its candidates with `sim` inline (the fn must be
  // thread-safe — the engine's TF-IDF cosine is a pure read) and appends
  // surviving cross-group edges to its shard's buffer. A few shards per
  // worker absorb the skew of later probes seeing more candidates.
  WallTimer timer;
  // Sharded counter on the verify hot path: workers increment concurrently
  // from inside the join, one relaxed add on a thread-local shard each.
  static Counter& m_sim_evals =
      MetricsRegistry::Default().CounterRef("edge_join.sim_evaluations");
  const size_t num_shards =
      threads <= 1 ? 1
                   : std::min(std::max<size_t>(record_tokens.size(), 1), threads * 4);
  std::vector<ShardOutput> shard_outputs(num_shards);

  // Appends one verified edge (weight >= θ already checked). The bucket
  // key is oriented as (min group, max group); the edge endpoints follow
  // the same orientation.
  const auto append_edge = [&](ShardOutput& out, int32_t r1, int32_t r2,
                               int32_t g1, int32_t g2, double weight) {
    const bool in_order = g1 < g2;
    const int32_t left_record = in_order ? r1 : r2;
    const int32_t right_record = in_order ? r2 : r1;
    out.edges.push_back({std::min(g1, g2), std::max(g1, g2),
                         {local_pos[static_cast<size_t>(left_record)],
                          local_pos[static_cast<size_t>(right_record)], weight}});
  };

  size_t probes_skipped = 0;
  {
    GL_TRACE_SPAN("edge_join.join");
    if (store != nullptr) {
      // Batched verification: per shard, buffer the current probe's
      // cross-group candidates (SoA) and flush them through the dispatched
      // scatter-dot kernel. Scores() is bitwise-equal to the default sim
      // per pair, candidates stream grouped by probe within a shard, and
      // edges are appended in candidate order — the edge sequence (and
      // everything downstream) is identical to the inline path.
      std::vector<VectorStore::Scratch> scratches(num_shards);
      const auto flush = [&](size_t shard) {
        ShardOutput& out = shard_outputs[shard];
        const size_t pending = out.pending.size();
        if (pending == 0) return;
        out.scores.resize(pending);
        WallTimer verify_timer;
        store->Scores(scratches[shard], out.pending_probe, out.pending.data(),
                      pending, out.scores.data());
        out.seconds_verify += verify_timer.ElapsedSeconds();
        ++out.verify_batches;
        m_sim_evals.Increment(pending);
        const int32_t r2 = out.pending_probe;
        const int32_t g2 = record_group[static_cast<size_t>(r2)];
        for (size_t k = 0; k < pending; ++k) {
          if (out.scores[k] < ladder.theta) continue;
          const int32_t r1 = out.pending[k];
          append_edge(out, r1, r2, record_group[static_cast<size_t>(r1)], g2,
                      out.scores[k]);
        }
        out.pending.clear();
      };
      probes_skipped = PrefixFilterSelfJoinSharded(
          record_tokens, num_tokens, join_jaccard,
          threads > 1 ? pool : nullptr, num_shards,
          [&](size_t shard, int32_t r1, int32_t r2) {
            ShardOutput& out = shard_outputs[shard];
            ++out.candidates;
            if (record_group[static_cast<size_t>(r1)] ==
                record_group[static_cast<size_t>(r2)]) {
              return;
            }
            // A mid-probe flush (batch cap) keeps the probe's scatter
            // cached in the scratch, so oversized probes still batch.
            if (r2 != out.pending_probe) {
              flush(shard);
              out.pending_probe = r2;
            }
            out.pending.push_back(r1);
            if (out.pending.size() >= kVerifyBatch) flush(shard);
          },
          ctx, /*shard_done=*/flush);
    } else {
      // Custom similarity: verify inline, one call per candidate pair.
      probes_skipped = PrefixFilterSelfJoinSharded(
          record_tokens, num_tokens, join_jaccard,
          threads > 1 ? pool : nullptr, num_shards,
          [&](size_t shard, int32_t r1, int32_t r2) {
            ShardOutput& out = shard_outputs[shard];
            ++out.candidates;
            const int32_t g1 = record_group[static_cast<size_t>(r1)];
            const int32_t g2 = record_group[static_cast<size_t>(r2)];
            if (g1 == g2) return;
            m_sim_evals.Increment();
            const double weight = sim(r1, r2);
            if (weight < ladder.theta) return;
            append_edge(out, r1, r2, g1, g2, weight);
          },
          ctx);
    }
    if (probes_skipped > 0) TagCurrentSpan("probes_skipped",
                                           std::to_string(probes_skipped));
  }
  {
    StageStats& join = out_report.AddStage("join", timer.ElapsedSeconds());
    // Store path: verify time is what the shard workers measured around
    // the batched kernel (CPU-seconds; see EdgeJoinLink). Custom-sim path:
    // folded into the streaming join workers, left at 0.
    int64_t record_candidates = 0, edges = 0, verify_batches = 0;
    double seconds_verify = 0.0;
    for (const ShardOutput& out : shard_outputs) {
      record_candidates += static_cast<int64_t>(out.candidates);
      edges += static_cast<int64_t>(out.edges.size());
      verify_batches += static_cast<int64_t>(out.verify_batches);
      seconds_verify += out.seconds_verify;
    }
    join.AddCounter("record_candidates", record_candidates)
        .AddCounter("edges", edges)
        .AddCounter("threads_used", static_cast<int64_t>(threads));
    if (probes_skipped > 0) {
      join.AddCounter("probes_skipped", static_cast<int64_t>(probes_skipped));
    }
    join.AddCounter("verify_batches", verify_batches).AddTiming("verify", seconds_verify);
    MirrorToRegistry(join, "edge_join", {"record_candidates", "edges", "probes_skipped"});
  }

  // Deterministic merge: shards cover ascending contiguous probe ranges
  // and stream candidates in serial order within each range, so
  // concatenating buffers in shard index order reproduces the serial
  // emission order exactly — independent of thread count and scheduling.
  // std::map keeps group pairs in deterministic order.
  timer.Reset();
  std::map<std::pair<int32_t, int32_t>, std::vector<Edge>> buckets;
  {
    GL_TRACE_SPAN("edge_join.bucket");
    for (const ShardOutput& out : shard_outputs) {
      for (const BucketedEdge& bucketed : out.edges) {
        buckets[{bucketed.group_left, bucketed.group_right}].push_back(bucketed.edge);
      }
    }
  }
  const auto group_pairs = static_cast<int64_t>(buckets.size());
  out_report.AddStage("bucket", timer.ElapsedSeconds())
      .AddCounter("group_pairs", group_pairs);

  // Stage 3 (score): buckets are independent, so decide them in parallel
  // through the shared ladder (DecideGraphRung) into preallocated rung
  // slots and aggregate serially in bucket order.
  timer.Reset();
  GL_TRACE_SPAN("edge_join.score");
  struct BucketRef {
    std::pair<int32_t, int32_t> groups;
    const std::vector<Edge>* edges;
  };
  std::vector<BucketRef> bucket_refs;
  bucket_refs.reserve(buckets.size());
  for (const auto& [group_pair, edges] : buckets) {
    bucket_refs.push_back({group_pair, &edges});
  }

  // Builds the bucket's bipartite graph from its edge list.
  const auto build_graph = [&](size_t i) {
    const auto& [g1, g2] = bucket_refs[i].groups;
    BipartiteGraph graph(dataset.GroupSize(g1), dataset.GroupSize(g2));
    for (const Edge& edge : *bucket_refs[i].edges) {
      graph.AddEdge(edge.left_pos, edge.right_pos, edge.weight);
    }
    return graph;
  };

  std::vector<LinkRung> rungs(bucket_refs.size(), LinkRung::kSkipped);

  // Candidate budget (and the candidates.oversized fault): keep the best
  // buckets by UB score — deterministic, it depends only on the buckets.
  std::vector<char> keep;
  const size_t cap =
      ctx != nullptr ? ctx->EffectiveCandidateCap(bucket_refs.size()) : bucket_refs.size();
  if (cap < bucket_refs.size()) {
    std::vector<double> ub(bucket_refs.size(), 0.0);
    ParallelFor(pool, bucket_refs.size(), [&](size_t i) {
      const auto& [g1, g2] = bucket_refs[i].groups;
      ub[i] = UpperBoundMeasure(build_graph(i), dataset.GroupSize(g1),
                                dataset.GroupSize(g2));
    });
    keep = KeepHighestUpperBounds(ub, cap);
    for (size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) rungs[i] = LinkRung::kShedByCap;
    }
    ctx->NoteDegraded();
  }

  ParallelFor(
      pool, bucket_refs.size(),
      [&](size_t i) {
        if (!keep.empty() && !keep[i]) return;  // Stays kShedByCap.
        const auto& [g1, g2] = bucket_refs[i].groups;
        rungs[i] = DecideGraphRung(build_graph(i), dataset.GroupSize(g1),
                                   dataset.GroupSize(g2), ladder, ctx);
      },
      ctx);

  std::vector<std::pair<int32_t, int32_t>> linked;
  for (size_t i = 0; i < bucket_refs.size(); ++i) {
    if (RungLinks(rungs[i])) linked.push_back(bucket_refs[i].groups);
  }
  StageStats& score = out_report.AddStage("score");
  score.AddCounter("group_pairs", group_pairs);
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
  for (const BucketRef& bucket : bucket_refs) {
    m_bucket_size.Observe(static_cast<double>(bucket.edges->size()));
  }
  return linked;
}

}  // namespace grouplink
