#include "core/accumulate.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "text/simd_kernels.h"

namespace grouplink {
namespace {

/// A thread's dense accumulator, reused across calls: one sum per corpus
/// record, the hits of the last AccumulateRecord, and the fetched
/// postings. Invariant: every sum is +0.0 whenever no AccumulateRecord is
/// running, so nothing is cleared between probe records, and a return
/// between records (a failed fetch, a stop, DataLoss) leaves the
/// accumulator clean for the thread's next call, on any corpus. Every
/// buffer keeps its capacity, so a warm thread allocates nothing per
/// query.
struct Accumulator {
  std::vector<double> sum;
  std::vector<AccumulatorHit> hits;
  FetchedPostings fetched;
  /// A probe's distinct tokens, ascending, and one probe record's lists.
  std::vector<int32_t> tokens;
  std::vector<std::span<const WeightedPosting>> record_lists;
};

Accumulator& ThreadAccumulator(size_t num_records) {
  thread_local Accumulator accumulator;
  if (accumulator.sum.size() < num_records) accumulator.sum.resize(num_records, 0.0);
  return accumulator;
}

/// The one accumulation kernel: sums `vector` against every record below
/// `cutoff` that shares a token with it, where lists[k] holds the postings
/// of vector.ids[k] (cut at the cutoff in place). Afterwards acc.hits
/// holds each such record whose sum is >= `theta` (> 0), and the return
/// value counts the distinct records touched.
///
/// Pass 1 adds w_r · w_p over each list with no test per entry. Tokens
/// arrive in ascending id, so each sum is 0.0 plus the shared tokens'
/// products in DotProduct's own order. Pass 2 reads each sum once, keeps
/// it when it reaches θ and writes +0.0 back, which restores the all-zero
/// invariant; since every TF-IDF weight is positive, a touched record's
/// sum is > 0, so the nonzero reads count the distinct records. At the
/// AVX2 tier pass 2 sweeps the slots between the lists' first and last
/// records (SweepAccumulator), and the hits ascend by record. Otherwise it
/// walks the same entries again, and the hits come in the order the walk
/// first reaches them: a record under several of the tokens is read at
/// its full sum first and at 0.0 afterwards, so it is kept at most once.
size_t AccumulateRecord(const SparseVector& vector,
                        std::span<std::span<const WeightedPosting>> lists, int32_t cutoff,
                        double theta, Accumulator& acc, size_t* postings_scanned) {
  GL_DCHECK_GT(theta, 0.0);
  GL_DCHECK_EQ(lists.size(), vector.size());
  // The slots pass 1 writes lie in [lo, hi).
  size_t lo = acc.sum.size(), hi = 0;
  for (std::span<const WeightedPosting>& list : lists) {
    // Lists ascend by record id, so the cutoff ends each one.
    if (cutoff != ProbePlacement::kNone) {
      list = list.first(static_cast<size_t>(
          std::lower_bound(list.begin(), list.end(), cutoff,
                           [](const WeightedPosting& entry, int32_t r) {
                             return entry.record < r;
                           }) -
          list.begin()));
    }
    *postings_scanned += list.size();
    if (!list.empty()) {
      lo = std::min(lo, static_cast<size_t>(list.front().record));
      hi = std::max(hi, static_cast<size_t>(list.back().record) + 1);
    }
  }
  double* const sum = acc.sum.data();
  for (size_t k = 0; k < lists.size(); ++k) {
    const double probe_weight = vector.weights[k];
    for (const WeightedPosting& entry : lists[k]) {
      GL_DCHECK_LT(static_cast<size_t>(entry.record), acc.sum.size());
      sum[entry.record] += entry.weight * probe_weight;
    }
  }
  acc.hits.clear();
  if (SweepAccumulatorApplies()) return SweepAccumulator(sum, lo, hi, theta, &acc.hits);
  size_t touched = 0;
  for (const std::span<const WeightedPosting> list : lists) {
    for (const WeightedPosting& entry : list) {
      const double s = sum[entry.record];
      if (s >= theta) acc.hits.push_back({entry.record, s});
      touched += s != 0.0 ? 1 : 0;
      sum[entry.record] = 0.0;
    }
  }
  return touched;
}

Status Unlisted() {
  return Status::DataLoss("a posting names a record its group does not list");
}

/// An edge found by accumulation, before it is placed in its graph.
struct FoundEdge {
  int32_t group;
  int32_t record;
  int32_t probe;
  double weight;
};

/// The bucket key of group pair (g1 < g2).
uint64_t PackGroups(int32_t g1, int32_t g2) {
  return static_cast<uint64_t>(g1) << 32 | static_cast<uint32_t>(g2);
}

/// One shard of the self-join: a contiguous record range and what its
/// worker found there. Each shard is written by exactly one worker.
struct JoinShard {
  int32_t next = 0;  // First record not yet accumulated.
  int32_t end = 0;
  size_t record_pairs = 0;
  size_t postings_scanned = 0;
  double seconds = 0.0;
  std::vector<JoinEdge> edges;
  Status status;
};

}  // namespace

Result<std::vector<GroupGraph>> AccumulateGraphs(
    const PostingsCorpus& corpus, std::span<const SparseVector> probe,
    ProbePlacement placement, double theta, const ExecutionContext* ctx,
    size_t* postings_scanned, bool* stopped) {
  const auto stop = [ctx, stopped] {
    if (ctx == nullptr || !ctx->StopRequested()) return false;
    *stopped = true;
    return true;
  };
  if (stop()) return std::vector<GroupGraph>();
  const std::vector<int32_t>& record_group = corpus.record_group();
  Accumulator& acc = ThreadAccumulator(record_group.size());
  // Each distinct probe token's list is fetched once, in ascending token
  // id, so a paged corpus reads its lists once per query, in store order.
  acc.tokens.clear();
  for (const SparseVector& vector : probe) {
    acc.tokens.insert(acc.tokens.end(), vector.ids.begin(), vector.ids.end());
  }
  std::sort(acc.tokens.begin(), acc.tokens.end());
  acc.tokens.erase(std::unique(acc.tokens.begin(), acc.tokens.end()), acc.tokens.end());
  GL_RETURN_IF_ERROR(corpus.FetchPostings(acc.tokens, &acc.fetched));

  std::vector<FoundEdge> edges;
  for (size_t j = 0; j < probe.size(); ++j) {
    // Record 0 was polled before the fetch.
    if (j > 0 && stop()) return std::vector<GroupGraph>();
    // The record's ids ascend through the ascending distinct tokens.
    acc.record_lists.clear();
    size_t slot = 0;
    for (const int32_t token : probe[j].ids) {
      while (acc.tokens[slot] != token) ++slot;
      acc.record_lists.push_back(acc.fetched.lists[slot]);
    }
    AccumulateRecord(probe[j], acc.record_lists, placement.record_cutoff, theta, acc,
                     postings_scanned);
    for (const AccumulatorHit& hit : acc.hits) {
      const int32_t g = record_group[static_cast<size_t>(hit.record)];
      if (g == placement.group) continue;
      edges.push_back({g, hit.record, static_cast<int32_t>(j), hit.sum});
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
    if (placed.size() != end - begin) return Unlisted();
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
  bool stopped = false;
  GL_ASSIGN_OR_RETURN(std::vector<GroupGraph> graphs,
                      AccumulateGraphs(corpus, probe, placement, ladder.theta, ctx,
                                       &outcome.postings_scanned, &stopped));
  if (stopped) {
    outcome.degraded = true;
    return outcome;
  }
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

BipartiteGraph JoinBuckets::Graph(size_t i) const {
  const Bucket& bucket = buckets[i];
  BipartiteGraph graph(bucket.size1, bucket.size2);
  for (size_t e = bucket.begin; e < bucket.end; ++e) {
    graph.AddEdge(edges[e].left, edges[e].right, edges[e].weight);
  }
  return graph;
}

Status AccumulateSelfJoin(const PostingsCorpus& corpus, std::span<const SparseVector> vectors,
                          double theta, ThreadPool* pool, ExecutionContext* ctx,
                          RunReport* report, JoinBuckets* joined) {
  joined->buckets.clear();
  joined->edges.clear();
  const std::vector<int32_t>& record_group = corpus.record_group();
  const size_t n = record_group.size();
  GL_CHECK_EQ(vectors.size(), n);
  WallTimer timer;

  // Each record's position in its group, its node in the bucket graphs;
  // -1 for a record its group does not list.
  int32_t num_groups = 0;
  for (const int32_t g : record_group) num_groups = std::max(num_groups, g + 1);
  std::vector<int32_t> position(n, -1);
  for (int32_t g = 0; g < num_groups; ++g) {
    const std::vector<int32_t>& members = corpus.GroupRecords(g);
    for (size_t i = 0; i < members.size(); ++i) {
      const size_t r = static_cast<size_t>(members[i]);
      GL_DCHECK_LT(r, n);
      if (record_group[r] == g) position[r] = static_cast<int32_t>(i);
    }
  }

  const size_t threads = pool != nullptr ? pool->num_threads() : 1;
  const size_t num_shards =
      threads <= 1 ? 1 : std::min(std::max<size_t>(n, 1), threads * 4);
  const size_t shard_size = (n + num_shards - 1) / num_shards;
  std::vector<JoinShard> shards(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards[s].next = static_cast<int32_t>(std::min(n, s * shard_size));
    shards[s].end = static_cast<int32_t>(std::min(n, (s + 1) * shard_size));
  }

  // Accumulates record r against the records below it and keeps the
  // cross-group sums >= θ, oriented into their (lower group, higher
  // group) bucket.
  const auto join_record = [&](int32_t r, JoinShard& shard) -> Status {
    Accumulator& acc = ThreadAccumulator(n);
    const SparseVector& vector = vectors[static_cast<size_t>(r)];
    GL_RETURN_IF_ERROR(corpus.FetchPostings(vector.ids, &acc.fetched));
    shard.record_pairs +=
        AccumulateRecord(vector, acc.fetched.lists, r, theta, acc, &shard.postings_scanned);
    const int32_t g = record_group[static_cast<size_t>(r)];
    const int32_t p = position[static_cast<size_t>(r)];
    for (const AccumulatorHit& hit : acc.hits) {
      const int32_t h = record_group[static_cast<size_t>(hit.record)];
      if (h == g) continue;
      const int32_t q = position[static_cast<size_t>(hit.record)];
      if (p < 0 || q < 0) return Unlisted();
      shard.edges.push_back(h < g ? JoinEdge{PackGroups(h, g), q, p, hit.sum}
                                  : JoinEdge{PackGroups(g, h), p, q, hit.sum});
    }
    return Status::Ok();
  };
  // A stop or a failed task leaves a shard's tail unaccumulated; a skipped
  // record may own edges in any bucket of its group.
  size_t record_pairs = 0, edges = 0, postings_scanned = 0, skipped = 0;
  double seconds = 0.0;
  std::vector<char> incomplete(static_cast<size_t>(num_groups), 0);
  {
    GL_TRACE_SPAN("edge_join.join");
    // Later records scan longer lists, so the costliest (last) shards are
    // handed out first.
    // Each worker fills a shard on its own stack and stores it once:
    // neighbouring slots share cache lines, and the counters change per
    // record.
    ParallelFor(
        pool, num_shards,
        [&](size_t i) {
          JoinShard& slot = shards[num_shards - 1 - i];
          JoinShard shard;
          shard.next = slot.next;
          shard.end = slot.end;
          WallTimer shard_timer;
          for (; shard.next < shard.end; ++shard.next) {
            if (ctx != nullptr && ctx->StopRequested()) break;
            shard.status = join_record(shard.next, shard);
            if (!shard.status.ok()) break;
          }
          shard.seconds = shard_timer.ElapsedSeconds();
          slot = std::move(shard);
        },
        ctx);
    for (const JoinShard& shard : shards) {
      GL_RETURN_IF_ERROR(shard.status);
      record_pairs += shard.record_pairs;
      edges += shard.edges.size();
      postings_scanned += shard.postings_scanned;
      seconds += shard.seconds;
      skipped += static_cast<size_t>(shard.end - shard.next);
      for (int32_t r = shard.next; r < shard.end; ++r) {
        incomplete[static_cast<size_t>(record_group[static_cast<size_t>(r)])] = 1;
      }
    }
    if (skipped > 0) TagCurrentSpan("probes_skipped", std::to_string(skipped));
  }
  StageStats& join = report->AddStage("join", timer.ElapsedSeconds());
  join.AddCounter("record_candidates", static_cast<int64_t>(record_pairs))
      .AddCounter("edges", static_cast<int64_t>(edges))
      .AddCounter("postings_scanned", static_cast<int64_t>(postings_scanned))
      .AddCounter("threads_used", static_cast<int64_t>(threads));
  if (skipped > 0) {
    join.AddCounter("probes_skipped", static_cast<int64_t>(skipped));
    if (ctx != nullptr) ctx->NoteDegraded();
  }
  join.AddTiming("verify", seconds);
  MirrorToRegistry(join, "edge_join",
                   {"record_candidates", "edges", "postings_scanned", "probes_skipped"});

  // Buckets: the shard buffers in shard order, sorted by the packed group
  // pair, then the graph positions.
  timer.Reset();
  {
    GL_TRACE_SPAN("edge_join.bucket");
    joined->edges.reserve(edges);
    for (JoinShard& shard : shards) {
      for (const JoinEdge& edge : shard.edges) {
        if (incomplete[edge.groups >> 32] || incomplete[edge.groups & 0xffffffffu]) continue;
        joined->edges.push_back(edge);
      }
      std::vector<JoinEdge>().swap(shard.edges);
    }
    std::sort(joined->edges.begin(), joined->edges.end(),
              [](const JoinEdge& a, const JoinEdge& b) {
                return std::tie(a.groups, a.left, a.right) <
                       std::tie(b.groups, b.left, b.right);
              });
    for (size_t begin = 0; begin < joined->edges.size();) {
      const uint64_t groups = joined->edges[begin].groups;
      size_t end = begin;
      while (end < joined->edges.size() && joined->edges[end].groups == groups) ++end;
      const int32_t g1 = static_cast<int32_t>(groups >> 32);
      const int32_t g2 = static_cast<int32_t>(groups & 0xffffffffu);
      joined->buckets.push_back({g1, g2, static_cast<int32_t>(corpus.GroupRecords(g1).size()),
                                 static_cast<int32_t>(corpus.GroupRecords(g2).size()), begin,
                                 end});
      begin = end;
    }
  }
  report->AddStage("bucket", timer.ElapsedSeconds())
      .AddCounter("group_pairs", static_cast<int64_t>(joined->buckets.size()));
  return Status::Ok();
}

}  // namespace grouplink
