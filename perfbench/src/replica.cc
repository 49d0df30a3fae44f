#include "replica.h"

#include <algorithm>
#include <string>

#include "core/filter_refine.h"
#include "core/group_measures.h"
#include "matching/bipartite_graph.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace grouplink {
namespace perfbench {
namespace {

// The probe as LinkQuery prepares it: per record, the sorted index-vocab
// ids of its token set (candidate generation) and its TF-IDF vector under
// the epoch vocabulary (scoring).
struct PreparedProbe {
  std::vector<std::vector<int32_t>> ids;
  std::vector<SparseVector> vectors;
  size_t oov_tokens = 0;
};

PreparedProbe PrepareProbe(const CorpusSnapshot& snapshot, const GroupArrival& probe) {
  const size_t n = probe.record_texts.size();
  PreparedProbe prepared;
  prepared.ids.resize(n);
  prepared.vectors.resize(n);
  const TfIdfVectorizer vectorizer(&snapshot.epoch_vocab());
  for (size_t i = 0; i < n; ++i) {
    const std::vector<std::string> raw = Tokenize(probe.record_texts[i]);
    for (const std::string& token : ToTokenSet(raw)) {
      const int32_t id = snapshot.index_vocab().GetId(token);
      if (id != Vocabulary::kUnknownToken) prepared.ids[i].push_back(id);
      if (snapshot.epoch_vocab().GetId(token) == Vocabulary::kUnknownToken) {
        ++prepared.oov_tokens;
      }
    }
    std::sort(prepared.ids[i].begin(), prepared.ids[i].end());
    prepared.vectors[i] = vectorizer.Vectorize(raw);
  }
  return prepared;
}

FilterRefineConfig LadderConfig(const LinkageConfig& config) {
  FilterRefineConfig fr;
  fr.theta = config.theta;
  fr.group_threshold = config.group_threshold;
  fr.use_upper_bound_filter = config.use_filter_refine && config.use_upper_bound_filter;
  fr.use_lower_bound_accept = config.use_filter_refine && config.use_lower_bound_accept;
  return fr;
}

}  // namespace

void QueryWork::Add(const QueryWork& other) {
  queries += other.queries;
  postings += other.postings;
  candidates += other.candidates;
  live_groups += other.live_groups;
  cosine_calls += other.cosine_calls;
  edges += other.edges;
  empty += other.empty;
  ub_pruned += other.ub_pruned;
  lb_accepted += other.lb_accepted;
  refined += other.refined;
  links += other.links;
}

std::vector<int32_t> ReplicaLinkQuery(const CorpusSnapshot& snapshot,
                                      const GroupArrival& probe, SpanBuffer* spans,
                                      int64_t op, QueryWork* work) {
  const LinkageConfig& config = snapshot.engine_config();
  const FilterRefineConfig ladder = LadderConfig(config);
  const int32_t size_right = static_cast<int32_t>(probe.record_texts.size());

  PreparedProbe prepared;
  std::vector<int32_t> candidates;
  std::vector<double> sims;
  std::vector<BipartiteGraph> graphs;
  std::vector<int32_t> linked;
  {
    ScopedSpan query_span(spans, "replica.query", op);
    {
      ScopedSpan span(spans, "text.probe_prep", op);
      prepared = PrepareProbe(snapshot, probe);
    }
    {
      ScopedSpan span(spans, "index.candidates", op);
      for (const std::vector<int32_t>& ids : prepared.ids) {
        for (const int32_t doc : snapshot.token_index().DocumentsSharingToken(ids)) {
          const int32_t g = snapshot.record_group()[static_cast<size_t>(doc)];
          if (snapshot.IsAlive(g)) candidates.push_back(g);
        }
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
    }
    {
      ScopedSpan span(spans, "text.cosine", op);
      for (const int32_t g : candidates) {
        for (const int32_t r : snapshot.group_records()[static_cast<size_t>(g)]) {
          const SparseVector& corpus_vector =
              snapshot.record_vectors()[static_cast<size_t>(r)];
          for (const SparseVector& probe_vector : prepared.vectors) {
            sims.push_back(PrenormalizedCosineSimilarity(corpus_vector, probe_vector));
          }
        }
      }
    }
    {
      ScopedSpan span(spans, "matching.graph", op);
      graphs.reserve(candidates.size());
      size_t next = 0;
      for (const int32_t g : candidates) {
        const int32_t size_left =
            static_cast<int32_t>(snapshot.group_records()[static_cast<size_t>(g)].size());
        BipartiteGraph& graph = graphs.emplace_back(size_left, size_right);
        for (int32_t i = 0; i < size_left; ++i) {
          for (int32_t j = 0; j < size_right; ++j) {
            const double s = sims[next++];
            if (s >= config.theta) graph.AddEdge(i, j, s);
          }
        }
      }
    }
    {
      ScopedSpan span(spans, "core.filter_refine.decide", op);
      for (size_t k = 0; k < candidates.size(); ++k) {
        const BipartiteGraph& graph = graphs[k];
        if (DecideGraphLinked(graph, graph.num_left(), size_right, ladder)) {
          linked.push_back(candidates[k]);
        }
      }
    }
  }

  // Untimed: the exact work this query did, and which rung decided each
  // candidate.
  QueryWork w;
  w.queries = 1;
  for (const std::vector<int32_t>& ids : prepared.ids) {
    for (const int32_t id : ids) {
      w.postings += static_cast<int64_t>(snapshot.token_index().Postings(id).size());
    }
  }
  w.candidates = static_cast<int64_t>(candidates.size());
  w.live_groups = snapshot.num_alive_groups();
  w.cosine_calls = static_cast<int64_t>(sims.size());
  w.edges = std::count_if(sims.begin(), sims.end(),
                          [&](double s) { return s >= config.theta; });
  for (const BipartiteGraph& graph : graphs) {
    const int32_t size_left = graph.num_left();
    if (graph.edges().empty()) {
      ++w.empty;
    } else if (ladder.use_upper_bound_filter &&
               UpperBoundMeasure(graph, size_left, size_right) <
                   ladder.group_threshold) {
      ++w.ub_pruned;
    } else if (ladder.use_lower_bound_accept &&
               GreedyLowerBound(graph, size_left, size_right) >=
                   ladder.group_threshold) {
      ++w.lb_accepted;
    } else {
      ++w.refined;
    }
  }
  w.links = static_cast<int64_t>(linked.size());
  if (work != nullptr) work->Add(w);
  return linked;
}

std::vector<int32_t> ExactBmLinks(const CorpusSnapshot& snapshot,
                                  const GroupArrival& probe) {
  const LinkageConfig& config = snapshot.engine_config();
  const PreparedProbe prepared = PrepareProbe(snapshot, probe);
  const int32_t size_right = static_cast<int32_t>(prepared.vectors.size());
  std::vector<int32_t> linked;
  for (int32_t g = 0; g < snapshot.num_groups(); ++g) {
    if (!snapshot.IsAlive(g)) continue;
    const std::vector<int32_t>& left = snapshot.group_records()[static_cast<size_t>(g)];
    const int32_t size_left = static_cast<int32_t>(left.size());
    BipartiteGraph graph(size_left, size_right);
    for (int32_t i = 0; i < size_left; ++i) {
      const SparseVector& corpus_vector =
          snapshot.record_vectors()[static_cast<size_t>(left[static_cast<size_t>(i)])];
      for (int32_t j = 0; j < size_right; ++j) {
        const double s = PrenormalizedCosineSimilarity(
            corpus_vector, prepared.vectors[static_cast<size_t>(j)]);
        if (s >= config.theta) graph.AddEdge(i, j, s);
      }
    }
    if (graph.edges().empty()) continue;
    if (BmMeasure(graph, size_left, size_right).value >= config.group_threshold) {
      linked.push_back(g);
    }
  }
  return linked;
}

void AddQueryLayers(const Trace& trace, const QueryWork& work, Outcome* out) {
  const auto per_query = [&](int64_t count) {
    return static_cast<double>(count) / static_cast<double>(work.queries);
  };
  const auto ratio = [](int64_t part, int64_t whole) {
    return static_cast<double>(part) / static_cast<double>(whole);
  };
  const auto median_ms = [&](const char* span) {
    return Median(trace.DurationsMs(span));
  };
  out->Layer("text.probe_prep_ms", median_ms("text.probe_prep"), "ms");
  out->Layer("text.cosine_ms", median_ms("text.cosine"), "ms");
  out->Layer("text.cosine_calls", per_query(work.cosine_calls), "count");
  out->Layer("text.edge_yield", ratio(work.edges, work.cosine_calls), "ratio");
  out->Layer("index.candidates_ms", median_ms("index.candidates"), "ms");
  out->Layer("index.postings_per_query", per_query(work.postings), "count");
  out->Layer("index.candidate_share", ratio(work.candidates, work.live_groups), "ratio");
  out->Layer("matching.graph_ms", median_ms("matching.graph"), "ms");
  out->Layer("core.filter_refine.decide_ms", median_ms("core.filter_refine.decide"),
             "ms");
  out->Layer("core.filter_refine.empty", per_query(work.empty), "count");
  out->Layer("core.filter_refine.ub_pruned", per_query(work.ub_pruned), "count");
  out->Layer("core.filter_refine.lb_accepted", per_query(work.lb_accepted), "count");
  out->Layer("core.filter_refine.link_yield", ratio(work.links, work.candidates),
             "ratio");
  out->Layer("core.snapshot.query_ms", median_ms("core.snapshot.query"), "ms");
}

void AddProbeProperties(const CorpusSnapshot& snapshot, const std::vector<Probe>& probes,
                        Outcome* out) {
  QueryWork work;
  int64_t replays = 0;
  for (const Probe& probe : probes) {
    (void)ReplicaLinkQuery(snapshot, probe.group, nullptr, -1, &work);
    if (probe.own_group >= 0) ++replays;
  }
  out->Property("probes", static_cast<double>(probes.size()), "count");
  const auto ratio = [](int64_t part, int64_t whole) {
    return static_cast<double>(part) / static_cast<double>(whole);
  };
  out->Property("probe_true_match_share",
                ratio(replays, static_cast<int64_t>(probes.size())), "ratio");
  out->Property("index.candidate_share", ratio(work.candidates, work.live_groups),
                "ratio");
  out->Property("empty_graph_share_of_candidates", ratio(work.empty, work.candidates),
                "ratio");
}

}  // namespace perfbench
}  // namespace grouplink
