#include "core/linkage_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/simd_dispatch.h"
#include "common/timer.h"
#include "common/trace.h"
#include "common/union_find.h"
#include "core/edge_join.h"
#include "text/tokenizer.h"

namespace grouplink {

const char* CandidateMethodName(CandidateMethod method) {
  switch (method) {
    case CandidateMethod::kAllPairs:
      return "all-pairs";
    case CandidateMethod::kRecordJoin:
      return "record-join";
    case CandidateMethod::kBlocking:
      return "blocking";
    case CandidateMethod::kLabelBlocking:
      return "label-blocking";
    case CandidateMethod::kSortedNeighborhood:
      return "sorted-neighborhood";
    case CandidateMethod::kMinHash:
      return "minhash";
  }
  return "unknown";
}

const char* RecordRepresentationName(RecordRepresentation representation) {
  switch (representation) {
    case RecordRepresentation::kWordTokens:
      return "word-tokens";
    case RecordRepresentation::kCharacterQGrams:
      return "char-3grams";
  }
  return "unknown";
}

Status LinkageConfig::Validate() const {
  // Explicit finiteness checks first: a NaN compares false against every
  // range bound, so without these it would sail through the checks below.
  if (!std::isfinite(theta)) {
    return Status::InvalidArgument("theta must be a finite number");
  }
  if (!std::isfinite(group_threshold)) {
    return Status::InvalidArgument("group_threshold must be a finite number");
  }
  if (!std::isfinite(binary_cutoff)) {
    return Status::InvalidArgument("binary_cutoff must be a finite number");
  }
  if (!std::isfinite(candidate_jaccard)) {
    return Status::InvalidArgument("candidate_jaccard must be a finite number");
  }
  if (theta <= 0.0 || theta > 1.0) {
    return Status::InvalidArgument("theta must be in (0, 1]");
  }
  if (group_threshold <= 0.0 || group_threshold > 1.0) {
    return Status::InvalidArgument("group_threshold must be in (0, 1]");
  }
  if (binary_cutoff <= 0.0 || binary_cutoff > 1.0) {
    return Status::InvalidArgument("binary_cutoff must be in (0, 1]");
  }
  if (candidate_jaccard < 0.0 || candidate_jaccard > 1.0) {
    return Status::InvalidArgument("candidate_jaccard must be in [0, 1]");
  }
  if (!std::isfinite(deadline_ms) || deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be finite and >= 0");
  }
  if (max_candidate_pairs < 0) {
    return Status::InvalidArgument("max_candidate_pairs must be >= 0");
  }
  if (max_matcher_cost < 0) {
    return Status::InvalidArgument("max_matcher_cost must be >= 0");
  }
  if (neighborhood_window <= 0) {
    return Status::InvalidArgument("neighborhood_window must be positive");
  }
  if (minhash_bands <= 0) {
    return Status::InvalidArgument("minhash_bands must be positive");
  }
  if (minhash_rows <= 0) {
    return Status::InvalidArgument("minhash_rows must be positive");
  }
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  return Status::Ok();
}

LinkageEngine::LinkageEngine(const Dataset* dataset, const LinkageConfig& config)
    : dataset_(dataset), config_(config) {}

Result<LinkageEngine> LinkageEngine::Create(const Dataset* dataset,
                                            const LinkageConfig& config) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("LinkageEngine::Create: dataset is null");
  }
  LinkageEngine engine(dataset, config);
  GL_RETURN_IF_ERROR(engine.Prepare());
  return engine;
}

Status LinkageEngine::Prepare() {
  GL_TRACE_SPAN("linkage.prepare");
  WallTimer prepare_timer;
  GL_RETURN_IF_ERROR(dataset_->Validate());
  GL_RETURN_IF_ERROR(config_.Validate());

  const auto tokenize = [this](const std::string& text) {
    if (config_.representation == RecordRepresentation::kCharacterQGrams) {
      return CharacterQGrams(text, 3, /*lowercase=*/true, '#');
    }
    return Tokenize(text);
  };

  // Tokenization is independent per record; keep the raw token lists so
  // the vectorize pass below doesn't re-tokenize.
  const size_t n = dataset_->records.size();
  std::vector<std::vector<std::string>> raw_tokens(n);
  std::vector<std::vector<std::string>> token_sets(n);
  ParallelFor(pool(), n, [&](size_t r) {
    raw_tokens[r] = tokenize(dataset_->records[r].text);
    token_sets[r] = ToTokenSet(raw_tokens[r]);
  });
  // Vocabulary ids depend on first-seen order, so the build stays a
  // serial pass in record order — the id space (and hence every
  // downstream join and vector) is identical to the single-thread run.
  // BuildVocabulary is shared with the streaming linker's epoch refresh,
  // which must reproduce this id space exactly.
  vocabulary_ = BuildVocabulary(token_sets);
  record_token_ids_.resize(n);
  record_vectors_.resize(n);
  const TfIdfVectorizer vectorizer(&vocabulary_);
  ParallelFor(pool(), n, [&](size_t r) {
    std::vector<int32_t>& ids = record_token_ids_[r];
    ids.reserve(token_sets[r].size());
    for (const std::string& token : token_sets[r]) {
      ids.push_back(vocabulary_.GetId(token));
    }
    std::sort(ids.begin(), ids.end());
    // Raw (non-set) tokens would weight repeats; the record text token
    // multiset is what TF-IDF should see.
    record_vectors_[r] = vectorizer.Vectorize(raw_tokens[r]);
  });
  record_group_ = dataset_->RecordToGroup();
  prepare_seconds_ = prepare_timer.ElapsedSeconds();
  return Status::Ok();
}

ThreadPool* LinkageEngine::pool() {
  if (pool_ == nullptr && config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }
  return pool_.get();
}

double LinkageEngine::DefaultRecordSimilarity(int32_t a, int32_t b) const {
  // Token-less records carry no evidence of co-reference and score 0 (the
  // mathematical "empty == empty -> 1" convention would link every group
  // containing a blank record); for everything else Vectorize already
  // L2-normalized, so the cosine is the plain dot product — the same value
  // BuildSimilarityGraphBatched's scatter-dot computes, bit for bit.
  return PrenormalizedCosineSimilarity(record_vectors_[static_cast<size_t>(a)],
                                       record_vectors_[static_cast<size_t>(b)]);
}

std::vector<std::pair<int32_t, int32_t>> LinkageEngine::GenerateCandidates(
    size_t* record_pairs) {
  switch (config_.candidates) {
    case CandidateMethod::kAllPairs:
      return AllGroupPairs(dataset_->num_groups());
    case CandidateMethod::kRecordJoin:
      return GroupCandidatesFromRecordJoin(
          record_token_ids_, record_group_, static_cast<int32_t>(vocabulary_.size()),
          dataset_->num_groups(), config_.candidate_jaccard, record_pairs);
    case CandidateMethod::kMinHash:
      return GroupCandidatesFromMinHash(
          record_token_ids_, record_group_,
          static_cast<size_t>(std::max(config_.minhash_bands, 1)),
          static_cast<size_t>(std::max(config_.minhash_rows, 1)), record_pairs);
    case CandidateMethod::kSortedNeighborhood: {
      std::vector<std::string> labels;
      labels.reserve(dataset_->groups.size());
      for (const Group& group : dataset_->groups) labels.push_back(group.label);
      return SortedNeighborhoodPairs(
          labels, static_cast<size_t>(std::max(config_.neighborhood_window, 0)));
    }
    case CandidateMethod::kLabelBlocking: {
      std::vector<std::string> labels;
      labels.reserve(dataset_->groups.size());
      for (const Group& group : dataset_->groups) labels.push_back(group.label);
      return GroupCandidatesFromLabelBlocking(config_.blocking, labels);
    }
    case CandidateMethod::kBlocking: {
      std::vector<std::string> texts;
      texts.reserve(dataset_->records.size());
      for (const Record& record : dataset_->records) texts.push_back(record.text);
      return GroupCandidatesFromBlocking(config_.blocking, texts, record_group_,
                                         dataset_->num_groups(), record_pairs);
    }
  }
  return {};
}

std::vector<ScoredPair> LinkageEngine::ScoreCandidates(GroupMeasureKind measure) {
  const auto candidates = GenerateCandidates(/*record_pairs=*/nullptr);
  const double edge_threshold = measure == GroupMeasureKind::kBinaryJaccard
                                    ? config_.binary_cutoff
                                    : config_.theta;
  std::vector<ScoredPair> scored;
  scored.reserve(candidates.size());
  std::vector<double> scratch;
  for (const auto& [g1, g2] : candidates) {
    const BipartiteGraph graph = BuildSimilarityGraphBatched(
        *dataset_, g1, g2, record_vectors_, scratch, edge_threshold);
    if (graph.edges().empty()) continue;
    scored.push_back({g1, g2,
                      EvaluateGroupMeasure(measure, graph, dataset_->GroupSize(g1),
                                           dataset_->GroupSize(g2))});
  }
  return scored;
}

LinkageResult LinkageEngine::Run() {
  // The default similarity scores through the batched kernel path; the
  // std::function is only kept for code paths that still score per pair.
  return RunInternal(
      [this](int32_t a, int32_t b) { return DefaultRecordSimilarity(a, b); },
      &record_vectors_);
}

LinkageResult LinkageEngine::Run(const RecordSimFn& sim) {
  return RunInternal(sim, /*vectors=*/nullptr);
}

void LinkageEngine::FillRunFacts(bool edge_join, RunReport& report) const {
  report.strategy = edge_join ? "edge-join" : "per-pair";
  // The edge join replaces candidate generation wholesale, so the
  // configured candidate method never runs under that strategy.
  report.candidate_method =
      edge_join ? "edge-join" : CandidateMethodName(config_.candidates);
  report.measure = GroupMeasureKindName(config_.measure);
  report.kernel = SimdLevelName(ActiveSimdLevel());
  report.threads = config_.num_threads;
  report.records = static_cast<int64_t>(dataset_->records.size());
  report.groups = static_cast<int64_t>(dataset_->num_groups());
  StageStats& prepare = report.AddStage("prepare", prepare_seconds_);
  prepare.AddCounter("records", static_cast<int64_t>(dataset_->records.size()));
  prepare.AddCounter("groups", static_cast<int64_t>(dataset_->num_groups()));
  prepare.AddCounter("vocabulary", static_cast<int64_t>(vocabulary_.size()));
}

namespace {

// Stamps the context's final resilience state into the report (and the
// open "linkage.run" trace span + registry) after the stages finished.
void FinishResilienceFacts(const ExecutionContext& ctx, RunReport* report) {
  report->degraded = ctx.degraded();
  report->stop_reason = ctx.stop_reason_name();
  if (report->degraded) {
    TagCurrentSpan("degraded", "true");
    if (!report->stop_reason.empty()) {
      TagCurrentSpan("stop_reason", report->stop_reason);
    }
    static Counter& degraded_runs =
        MetricsRegistry::Default().CounterRef("engine.degraded_runs");
    degraded_runs.Increment();
  }
}

}  // namespace

LinkageResult LinkageEngine::RunInternal(const RecordSimFn& sim,
                                         const std::vector<SparseVector>* vectors) {
  GL_TRACE_SPAN("linkage.run");
  static Counter& runs = MetricsRegistry::Default().CounterRef("engine.runs");
  runs.Increment();

  // Every run carries a context; with the default config (no deadline,
  // no budgets, token never cancelled, no faults armed) every check in
  // the hot paths reduces to one relaxed atomic load.
  ExecutionContext ctx(config_.deadline_ms, config_.cancellation,
                       config_.max_candidate_pairs, config_.max_matcher_cost);

  // The edge join accumulates over the TF-IDF postings, so only the
  // default similarity (the one passing its vectors) can take it.
  const bool edge_join = vectors != nullptr && config_.use_edge_join &&
                         config_.measure == GroupMeasureKind::kBm;
  LinkageResult result;
  RunReport& report = result.mutable_report();
  FillRunFacts(edge_join, report);

  if (edge_join) {
    // Global edge join replaces both candidate generation and per-pair
    // graph construction; it appends its join/bucket/score stages. Its
    // postings are built here, so Create and the per-pair path never pay
    // for them.
    const WeightedPostings postings =
        WeightedPostings::Transpose(record_vectors_, vocabulary_.size());
    std::vector<std::vector<int32_t>> group_records;
    group_records.reserve(dataset_->groups.size());
    for (const Group& group : dataset_->groups) group_records.push_back(group.record_ids);
    const InMemoryPostings corpus(postings, record_group_, group_records);
    result.linked_pairs =
        EdgeJoinLink(corpus, record_vectors_, config_.Ladder(), &report, pool(), &ctx)
            .value();  // In-RAM reads cannot fail.
    FinishClustering(result);
    FinishResilienceFacts(ctx, &report);
    return result;
  }

  WallTimer timer;
  size_t record_pairs = 0;
  std::vector<std::pair<int32_t, int32_t>> candidates;
  {
    GL_TRACE_SPAN("linkage.candidates");
    candidates = GenerateCandidates(&record_pairs);
  }
  report.AddStage("candidates", timer.ElapsedSeconds())
      .AddCounter("record_pairs", static_cast<int64_t>(record_pairs))
      .AddCounter("group_pairs", static_cast<int64_t>(candidates.size()));

  timer.Reset();
  StageStats& score = report.AddStage("score");
  {
    GL_TRACE_SPAN("linkage.score");
    if (config_.measure == GroupMeasureKind::kBm) {
      result.linked_pairs = FilterRefineLink(*dataset_, sim, candidates,
                                             config_.Ladder(), &score, pool(),
                                             &ctx, vectors);
    } else {
      // Baseline measures: direct evaluation per candidate. The binary
      // Jaccard baseline builds its graph at the (stricter) equality cutoff.
      const double edge_threshold =
          config_.measure == GroupMeasureKind::kBinaryJaccard
              ? config_.binary_cutoff
              : config_.theta;
      // Baseline measures have no UB ranking, so the candidate cap sheds
      // the list tail — still deterministic (depends only on the list).
      const size_t cap = ctx.EffectiveCandidateCap(candidates.size());
      const size_t shed = candidates.size() - cap;
      size_t skipped = 0;
      int64_t empty_graphs = 0;
      std::vector<double> scratch;
      for (size_t i = 0; i < cap; ++i) {
        if (ctx.StopRequested()) {
          skipped = cap - i;
          break;
        }
        const auto [g1, g2] = candidates[i];
        const BipartiteGraph graph =
            vectors != nullptr
                ? BuildSimilarityGraphBatched(*dataset_, g1, g2, *vectors, scratch,
                                              edge_threshold)
                : BuildSimilarityGraph(*dataset_, g1, g2, sim, edge_threshold);
        if (graph.edges().empty()) {
          ++empty_graphs;
          continue;
        }
        if (EvaluateGroupMeasure(config_.measure, graph, dataset_->GroupSize(g1),
                                 dataset_->GroupSize(g2)) >= config_.group_threshold) {
          result.linked_pairs.emplace_back(g1, g2);
        }
      }
      // The score stage's key set of a BM run, with the bound rungs at 0:
      // a baseline measure has no bounds.
      score.AddCounter("candidates", static_cast<int64_t>(candidates.size()))
          .AddCounter("empty_graphs", empty_graphs)
          .AddCounter("ub_pruned", 0)
          .AddCounter("lb_accepted", 0)
          .AddCounter("refined", 0)
          .AddCounter("linked", static_cast<int64_t>(result.linked_pairs.size()));
      if (shed > 0) score.AddCounter("shed_candidates", static_cast<int64_t>(shed));
      if (skipped > 0) score.AddCounter("skipped", static_cast<int64_t>(skipped));
      score.AddTiming("graphs", 0.0).AddTiming("bounds", 0.0).AddTiming("refine", 0.0);
      if (shed > 0 || skipped > 0) ctx.NoteDegraded();
    }
  }
  score.seconds = timer.ElapsedSeconds();
  FinishClustering(result);
  FinishResilienceFacts(ctx, &report);
  return result;
}

void LinkageEngine::FinishClustering(LinkageResult& result) const {
  GL_TRACE_SPAN("linkage.cluster");
  WallTimer timer;
  UnionFind clusters(static_cast<size_t>(dataset_->num_groups()));
  for (const auto& [g1, g2] : result.linked_pairs) {
    clusters.Union(static_cast<size_t>(g1), static_cast<size_t>(g2));
  }
  result.group_cluster = clusters.ComponentLabels();
  result.num_clusters = clusters.num_sets();

  RunReport& report = result.mutable_report();
  report.links = static_cast<int64_t>(result.linked_pairs.size());
  report.clusters = static_cast<int64_t>(result.num_clusters);
  StageStats& cluster = report.AddStage("cluster", timer.ElapsedSeconds());
  cluster.AddCounter("links", report.links);
  cluster.AddCounter("clusters", report.clusters);
}

Result<LinkageResult> RunGroupLinkage(const Dataset& dataset,
                                      const LinkageConfig& config) {
  GL_ASSIGN_OR_RETURN(LinkageEngine engine,
                      LinkageEngine::Create(&dataset, config));
  return engine.Run();
}

}  // namespace grouplink
