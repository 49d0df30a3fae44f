#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/accumulate.h"
#include "core/edge_join.h"
#include "core/snapshot.h"
#include "text/tokenizer.h"

namespace grouplink {
namespace {

// A record's tokens sorted by string, repeats kept and adjacent: the order
// every per-record token list of the linker is held in.
std::vector<std::string> SortedTokens(const std::string& text) {
  std::vector<std::string> tokens = Tokenize(text);
  std::sort(tokens.begin(), tokens.end());
  return tokens;
}

struct IncrementalMetrics {
  Counter& groups_added;
  Counter& batches;
  Counter& candidates_scored;
  Counter& postings_scanned;
  Counter& links;
  Counter& refreshes;
  Counter& refresh_rescored_pairs;
  Counter& removals;
  Counter& merges;
  Counter& oov_tokens;
  Counter& degraded_arrivals;
  Counter& degraded_refreshes;
  Gauge& oov_ratio;
  Histogram& candidates_per_arrival;
  Histogram& arrival_seconds;
  Histogram& refresh_seconds;

  static IncrementalMetrics& Get() {
    auto& registry = MetricsRegistry::Default();
    static IncrementalMetrics metrics{
        registry.CounterRef("incremental.groups_added"),
        registry.CounterRef("incremental.batches"),
        registry.CounterRef("incremental.candidates_scored"),
        registry.CounterRef("incremental.postings_scanned"),
        registry.CounterRef("incremental.links"),
        registry.CounterRef("incremental.refreshes"),
        registry.CounterRef("incremental.refresh_rescored_pairs"),
        registry.CounterRef("incremental.removals"),
        registry.CounterRef("incremental.merges"),
        registry.CounterRef("incremental.oov_tokens"),
        registry.CounterRef("incremental.degraded_arrivals"),
        registry.CounterRef("incremental.degraded_refreshes"),
        registry.GaugeRef("incremental.oov_ratio"),
        registry.HistogramRef("incremental.candidates_per_arrival",
                              {0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
        registry.HistogramRef("incremental.arrival_seconds"),
        registry.HistogramRef("incremental.refresh_seconds")};
    return metrics;
  }
};

}  // namespace

Status StreamingConfig::Validate() const {
  if (refresh_every_n_groups < 0) {
    return Status::InvalidArgument("refresh_every_n_groups must be >= 0");
  }
  // NaN fails every range comparison, so it is rejected explicitly.
  if (!std::isfinite(refresh_on_oov_ratio) || refresh_on_oov_ratio < 0.0 ||
      refresh_on_oov_ratio > 1.0) {
    return Status::InvalidArgument("refresh_on_oov_ratio must be in [0, 1]");
  }
  return Status::Ok();
}

bool StreamingConfig::WantsRefresh(int32_t groups_since_refresh,
                                   double oov_ratio) const {
  return (refresh_every_n_groups > 0 && groups_since_refresh >= refresh_every_n_groups) ||
         (refresh_on_oov_ratio > 0.0 && oov_ratio > refresh_on_oov_ratio);
}

Status ValidateStreamingConfigs(const LinkageConfig& config,
                                const StreamingConfig& streaming) {
  if (Status s = config.Validate(); !s.ok()) {
    return Status::InvalidArgument("LinkageConfig: " + s.message());
  }
  if (Status s = streaming.Validate(); !s.ok()) {
    return Status::InvalidArgument("StreamingConfig: " + s.message());
  }
  return Status::Ok();
}

Result<IncrementalLinker> IncrementalLinker::Create(
    const Dataset& seed, const LinkageConfig& config,
    const StreamingConfig& streaming) {
  // Validate through the unified entry point so Create's error messages
  // name the offending struct; Initialize checks the dataset.
  GL_RETURN_IF_ERROR(ValidateStreamingConfigs(config, streaming));
  IncrementalLinker linker(config, streaming);
  GL_RETURN_IF_ERROR(linker.Initialize(seed));
  return linker;
}

std::unique_ptr<IncrementalLinker> IncrementalLinker::Clone() const {
  // Deep copy of every piece of linker state. The thread pool is the one
  // deliberate exception: pools are not copyable, and the clone lazily
  // builds its own on first parallel use — so clone and original can run
  // on different threads with zero shared mutable state.
  std::unique_ptr<IncrementalLinker> clone(new IncrementalLinker(config_, streaming_));
  clone->record_token_ids_ = record_token_ids_;
  clone->record_vectors_ = record_vectors_;
  clone->record_group_ = record_group_;
  clone->group_records_ = group_records_;
  clone->group_labels_ = group_labels_;
  clone->group_alive_ = group_alive_;
  clone->num_alive_groups_ = num_alive_groups_;
  clone->index_vocab_ = index_vocab_;
  clone->epoch_vocab_ = epoch_vocab_;
  clone->epoch_id_ = epoch_id_;
  clone->postings_ = postings_;
  clone->linked_pairs_ = linked_pairs_;
  clone->clusters_ = clusters_;
  clone->epoch_ = epoch_;
  clone->groups_since_refresh_ = groups_since_refresh_;
  clone->oov_since_refresh_ = oov_since_refresh_;
  clone->tokens_since_refresh_ = tokens_since_refresh_;
  return clone;
}

Result<std::unique_ptr<IncrementalLinker>> IncrementalLinker::FromSnapshot(
    const CorpusSnapshot& snapshot, const StreamingConfig& streaming) {
  GL_RETURN_IF_ERROR(
      ValidateStreamingConfigs(snapshot.engine_config(), streaming));
  GL_CHECK(snapshot.CheckConsistency())
      << "FromSnapshot requires a sealed, consistent snapshot";
  // The snapshot's config is already normalized (it came off a linker);
  // the constructor's normalization is idempotent on it.
  std::unique_ptr<IncrementalLinker> linker(
      new IncrementalLinker(snapshot.engine_config(), streaming));
  linker->record_token_ids_ = snapshot.record_token_ids();
  linker->record_vectors_ = snapshot.record_vectors();
  linker->record_group_ = snapshot.record_group();
  linker->group_records_ = snapshot.group_records();
  linker->group_labels_ = snapshot.group_labels();
  linker->group_alive_ = snapshot.group_alive();
  linker->num_alive_groups_ = snapshot.num_alive_groups();
  linker->index_vocab_ = snapshot.index_vocab();
  linker->epoch_vocab_ = snapshot.epoch_vocab();
  linker->epoch_id_ = VocabularyIdMap(linker->index_vocab_, linker->epoch_vocab_);
  linker->postings_ = snapshot.postings();
  linker->linked_pairs_ = snapshot.linked_pairs();
  linker->epoch_ = snapshot.epoch();
  linker->RebuildClusters();
  return linker;
}

IncrementalLinker::IncrementalLinker(const LinkageConfig& config,
                                     const StreamingConfig& streaming)
    : config_(config), streaming_(streaming) {
  // Normalize to a batch configuration whose output a refreshed linker
  // reproduces through an independent code path. Refresh runs the exact
  // edge join, so any candidate scheme that covers every group pair with
  // a θ-edge gives the same links per pair; token blocking is one (an
  // edge needs a shared word token), unlike the default Jaccard record
  // join. BM is the measure the arrival path scores, and the linker
  // tokenizes words.
  config_.candidates = CandidateMethod::kBlocking;
  config_.blocking = BlockingScheme::kToken;
  config_.measure = GroupMeasureKind::kBm;
  config_.representation = RecordRepresentation::kWordTokens;
  config_.use_edge_join = false;
}

ThreadPool* IncrementalLinker::pool() {
  if (pool_ == nullptr && config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }
  return pool_.get();
}

std::vector<int32_t> IncrementalLinker::ToIndexIds(
    const std::vector<std::string>& sorted_tokens) {
  std::vector<int32_t> ids(sorted_tokens.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = i > 0 && sorted_tokens[i] == sorted_tokens[i - 1]
                 ? ids[i - 1]
                 : index_vocab_.GetOrInsertId(sorted_tokens[i]);
  }
  epoch_id_.resize(index_vocab_.size(), Vocabulary::kUnknownToken);
  return ids;
}

Status IncrementalLinker::Initialize(const Dataset& dataset) {
  GL_TRACE_SPAN("incremental.initialize");
  GL_RETURN_IF_ERROR(dataset.Validate());

  const size_t n = dataset.records.size();
  std::vector<std::vector<std::string>> tokens(n);
  ParallelFor(pool(), n, [&](size_t r) { tokens[r] = SortedTokens(dataset.records[r].text); });
  // Id assignment is a serial pass in record-id order: index token ids
  // depend on first-seen order.
  record_token_ids_.resize(n);
  for (size_t r = 0; r < n; ++r) record_token_ids_[r] = ToIndexIds(tokens[r]);
  record_group_ = dataset.RecordToGroup();

  const size_t num_seed_groups = dataset.groups.size();
  group_records_.reserve(num_seed_groups);
  group_labels_.reserve(num_seed_groups);
  for (const Group& group : dataset.groups) {
    group_records_.push_back(group.record_ids);
    group_labels_.push_back(group.label);
  }
  group_alive_.assign(num_seed_groups, 1);
  num_alive_groups_ = static_cast<int32_t>(num_seed_groups);

  Refresh();  // Builds epoch statistics, vectors, and the seed link set.
  return Status::Ok();
}

IncrementalLinker::AddResult IncrementalLinker::AddGroup(
    const std::string& label, const std::vector<std::string>& record_texts) {
  std::vector<AddResult> results = AddGroups({{label, record_texts}});
  return std::move(results.front());
}

std::vector<IncrementalLinker::AddResult> IncrementalLinker::AddGroups(
    const std::vector<GroupArrival>& batch) {
  if (batch.empty()) return {};
  GL_TRACE_SPAN("incremental.add_batch");
  WallTimer timer;
  auto& metrics = IncrementalMetrics::Get();

  // Arrival scoring is frozen to one epoch: nothing below may advance it
  // until the explicit policy-triggered Refresh at the end.
  [[maybe_unused]] const int64_t arrival_epoch = epoch_;

  const size_t batch_size = batch.size();
  size_t batch_records = 0;
  for (const GroupArrival& arrival : batch) {
    GL_CHECK(!arrival.record_texts.empty()) << "groups must have records";
    batch_records += arrival.record_texts.size();
  }

  // Phase A (parallel, pure): tokenize every arriving record into
  // per-record slots; nothing here depends on ids.
  std::vector<std::vector<std::vector<std::string>>> tokens(batch_size);
  {
    std::vector<std::pair<size_t, size_t>> flat;  // (arrival, record)
    flat.reserve(batch_records);
    for (size_t k = 0; k < batch_size; ++k) {
      tokens[k].resize(batch[k].record_texts.size());
      for (size_t i = 0; i < batch[k].record_texts.size(); ++i) flat.emplace_back(k, i);
    }
    ParallelFor(pool(), flat.size(), [&](size_t f) {
      const auto [k, i] = flat[f];
      tokens[k][i] = SortedTokens(batch[k].record_texts[i]);
    });
  }

  // Phase B (serial, batch order): assign group/record ids, map every
  // token to its index id (absorbing new tokens immediately), count each
  // distinct token the epoch lacks as OOV. Everything id-dependent
  // happens here, so the outcome is fixed by arrival order alone — never
  // by thread scheduling.
  std::vector<AddResult> results(batch_size);
  std::vector<int32_t> first_record(batch_size);
  const int32_t base_group = num_groups();
  for (size_t k = 0; k < batch_size; ++k) {
    const int32_t group = base_group + static_cast<int32_t>(k);
    results[k].group_index = group;
    first_record[k] = static_cast<int32_t>(record_token_ids_.size());
    std::vector<int32_t> records;
    records.reserve(tokens[k].size());
    for (const std::vector<std::string>& record_tokens : tokens[k]) {
      const int32_t r = static_cast<int32_t>(record_token_ids_.size());
      std::vector<int32_t> ids = ToIndexIds(record_tokens);
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i > 0 && ids[i] == ids[i - 1]) continue;  // Same token.
        ++tokens_since_refresh_;
        if (epoch_id_[static_cast<size_t>(ids[i])] == Vocabulary::kUnknownToken) {
          ++oov_since_refresh_;
          ++results[k].oov_tokens;
        }
      }
      record_token_ids_.push_back(std::move(ids));
      record_group_.push_back(group);
      records.push_back(r);
    }
    group_records_.push_back(std::move(records));
    group_labels_.push_back(batch[k].label);
    group_alive_.push_back(1);
    ++num_alive_groups_;
    GL_CHECK_EQ(clusters_.AddElement(), static_cast<size_t>(group));
    metrics.oov_tokens.Increment(static_cast<uint64_t>(results[k].oov_tokens));
  }
  groups_since_refresh_ += static_cast<int32_t>(batch_size);
  metrics.groups_added.Increment(batch_size);
  metrics.batches.Increment();

  // Phase C (parallel, pure): vectorize the new records against the
  // frozen epoch statistics.
  record_vectors_.resize(record_token_ids_.size());
  {
    const TfIdfVectorizer vectorizer(&epoch_vocab_);
    const size_t first = static_cast<size_t>(first_record[0]);
    ParallelFor(pool(), record_token_ids_.size() - first, [&](size_t i) {
      const size_t r = first + i;
      record_vectors_[r] = vectorizer.Vectorize(record_token_ids_[r], epoch_id_);
    });
    // Serial, in record-id order, so every list stays ascending and
    // phase D reads the same postings at any thread count.
    for (size_t r = first; r < record_vectors_.size(); ++r) {
      postings_.Append(static_cast<int32_t>(r), record_vectors_[r]);
    }
  }

  // Phase D (parallel, pure): each arrival accumulates its records over
  // the postings and decides links into its own slot. The record-id
  // cutoff (this arrival's first record) restricts it to the prior corpus
  // plus *earlier* batch arrivals, so every cross-arrival pair is scored
  // exactly once — by the later group — and the batch result matches
  // adding the groups one at a time.
  //
  // This is the one phase the batch's ExecutionContext governs: phases
  // A-C are unconditional (skipping them would leave the token ids or the
  // vectors inconsistent), while a skipped scoring pass only costs links
  // — which the next Refresh() recovers.
  ExecutionContext ctx(config_.deadline_ms, config_.cancellation,
                       config_.max_candidate_pairs, config_.max_matcher_cost);
  std::vector<std::vector<int32_t>> linked(batch_size);
  std::vector<char> scored(batch_size, 0);
  const InMemoryPostings corpus(postings_, record_group_, group_records_);
  const FilterRefineConfig ladder = config_.Ladder();
  ParallelFor(
      pool(), batch_size,
      [&](size_t k) {
        const int32_t group = results[k].group_index;
        const std::span<const SparseVector> probe(
            record_vectors_.data() + first_record[k],
            group_records_[static_cast<size_t>(group)].size());
        // Every earlier group precedes `group`, so it is the left side.
        AccumulateOutcome outcome =
            AccumulateAndDecide(corpus, probe, {group, first_record[k]}, ladder, &ctx)
                .value();  // In-RAM reads cannot fail.
        results[k].candidates = outcome.candidates;
        results[k].postings_scanned = outcome.postings_scanned;
        results[k].degraded = outcome.degraded;
        linked[k] = std::move(outcome.linked);
        scored[k] = 1;
      },
      &ctx);
  // Arrivals whose scoring pass never ran (stop request or injected task
  // failure) contribute no links; their group state is already complete.
  for (size_t k = 0; k < batch_size; ++k) {
    if (!scored[k]) {
      results[k].degraded = true;
      ctx.NoteDegraded();
    }
  }

  // Phase E (serial, batch order): merge links, maintain the sorted
  // linked-pairs invariant and the incremental union-find.
  const size_t old_size = linked_pairs_.size();
  size_t scored_candidates = 0;
  size_t postings_scanned = 0;
  size_t degraded_arrivals = 0;
  for (size_t k = 0; k < batch_size; ++k) {
    scored_candidates += results[k].candidates;
    postings_scanned += results[k].postings_scanned;
    if (results[k].degraded) ++degraded_arrivals;
    metrics.candidates_per_arrival.Observe(static_cast<double>(results[k].candidates));
    for (const int32_t other : linked[k]) {
      linked_pairs_.emplace_back(other, results[k].group_index);
      clusters_.Union(static_cast<size_t>(other),
                      static_cast<size_t>(results[k].group_index));
    }
    results[k].linked_to = std::move(linked[k]);
  }
  std::sort(linked_pairs_.begin() + static_cast<ptrdiff_t>(old_size),
            linked_pairs_.end());
  std::inplace_merge(linked_pairs_.begin(),
                     linked_pairs_.begin() + static_cast<ptrdiff_t>(old_size),
                     linked_pairs_.end());
  metrics.candidates_scored.Increment(scored_candidates);
  metrics.postings_scanned.Increment(postings_scanned);
  metrics.links.Increment(linked_pairs_.size() - old_size);
  if (degraded_arrivals > 0) {
    metrics.degraded_arrivals.Increment(degraded_arrivals);
    TagCurrentSpan("degraded_arrivals", std::to_string(degraded_arrivals));
  }
  metrics.oov_ratio.Set(EpochOovRatio());
  metrics.arrival_seconds.Observe(timer.ElapsedSeconds());

  GL_DCHECK_EQ(epoch_, arrival_epoch);
  if (streaming_.WantsRefresh(groups_since_refresh_, EpochOovRatio())) {
    for (AddResult& result : results) result.triggered_refresh = true;
    Refresh();
    GL_DCHECK_EQ(epoch_, arrival_epoch + 1);
  }
  return results;
}

void IncrementalLinker::RemoveGroup(int32_t group) {
  GL_CHECK(IsAlive(group)) << "RemoveGroup requires a live group";
  GL_TRACE_SPAN("incremental.remove");
  const size_t g = static_cast<size_t>(group);
  for (const int32_t r : group_records_[g]) {
    postings_.Erase(r, record_vectors_[static_cast<size_t>(r)]);
    // Free the per-record state; dead record ids are never reused.
    record_vectors_[static_cast<size_t>(r)] = SparseVector();
    record_token_ids_[static_cast<size_t>(r)] = std::vector<int32_t>();
  }
  group_records_[g].clear();
  group_alive_[g] = 0;
  --num_alive_groups_;
  EraseLinksInvolving(group);
  RebuildClusters();
  IncrementalMetrics::Get().removals.Increment();
}

IncrementalLinker::AddResult IncrementalLinker::MergeGroups(int32_t into,
                                                            int32_t from) {
  GL_CHECK(IsAlive(into)) << "MergeGroups requires a live target group";
  GL_CHECK(IsAlive(from)) << "MergeGroups requires a live source group";
  GL_CHECK_NE(into, from);
  GL_TRACE_SPAN("incremental.merge");
  auto& metrics = IncrementalMetrics::Get();

  // The merged group is a different comparison unit than either input, so
  // its old links are discarded and it is rescored like an arrival.
  EraseLinksInvolving(into);
  EraseLinksInvolving(from);

  std::vector<int32_t>& target = group_records_[static_cast<size_t>(into)];
  std::vector<int32_t>& source = group_records_[static_cast<size_t>(from)];
  for (const int32_t r : source) record_group_[static_cast<size_t>(r)] = into;
  target.insert(target.end(), source.begin(), source.end());
  std::sort(target.begin(), target.end());
  source.clear();
  group_alive_[static_cast<size_t>(from)] = 0;  // Its records live on in `into`.
  --num_alive_groups_;

  // The merged group is the probe: it accumulates against every record
  // (its own skipped), unconstrained. Each graph keeps the (lo, hi)
  // orientation of the pair, so a later group gets the transposed graph.
  std::vector<SparseVector> probe;
  probe.reserve(target.size());
  for (const int32_t r : target) probe.push_back(record_vectors_[static_cast<size_t>(r)]);
  const InMemoryPostings corpus(postings_, record_group_, group_records_);
  AccumulateOutcome outcome =
      AccumulateAndDecide(corpus, probe, {into, ProbePlacement::kNone}, config_.Ladder(),
                          /*ctx=*/nullptr)
          .value();  // In-RAM reads cannot fail.
  AddResult result;
  result.group_index = into;
  result.candidates = outcome.candidates;
  result.postings_scanned = outcome.postings_scanned;
  result.linked_to = std::move(outcome.linked);
  const size_t old_size = linked_pairs_.size();
  for (const int32_t other : result.linked_to) {
    linked_pairs_.emplace_back(std::min(other, into), std::max(other, into));
  }
  std::sort(linked_pairs_.begin() + static_cast<ptrdiff_t>(old_size),
            linked_pairs_.end());
  std::inplace_merge(linked_pairs_.begin(),
                     linked_pairs_.begin() + static_cast<ptrdiff_t>(old_size),
                     linked_pairs_.end());
  RebuildClusters();
  metrics.merges.Increment();
  metrics.candidates_scored.Increment(result.candidates);
  metrics.postings_scanned.Increment(result.postings_scanned);
  metrics.links.Increment(result.linked_to.size());
  return result;
}

void IncrementalLinker::Refresh() {
  GL_TRACE_SPAN("incremental.refresh");
  WallTimer timer;
  auto& metrics = IncrementalMetrics::Get();
  // Epoch contract: only Refresh advances the epoch, by exactly one —
  // arrivals between refreshes are all scored against one frozen epoch.
  [[maybe_unused]] const int64_t entry_epoch = epoch_;
  GL_DCHECK_GE(entry_epoch, 0);

  // Epoch ids in first-seen order over live records in record-id order,
  // each record's distinct tokens (its runs) in string order: the order
  // ToTokenSet hands BuildVocabulary in the batch engine's Prepare for a
  // dataset holding these records in arrival order, so the id space (and
  // every downstream vector) is bitwise identical.
  const size_t n = record_token_ids_.size();
  epoch_id_.assign(index_vocab_.size(), Vocabulary::kUnknownToken);
  std::vector<std::string> epoch_tokens;
  std::vector<int64_t> document_frequencies;
  int64_t num_documents = 0;
  for (size_t r = 0; r < n; ++r) {
    // A record is live iff its group is: a removal keeps the record's
    // group, and a merge moves the record to the surviving group.
    if (group_alive_[static_cast<size_t>(record_group_[r])] == 0) continue;
    ++num_documents;
    const std::vector<int32_t>& ids = record_token_ids_[r];
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0 && ids[i] == ids[i - 1]) continue;  // Same token.
      int32_t& epoch_id = epoch_id_[static_cast<size_t>(ids[i])];
      if (epoch_id == Vocabulary::kUnknownToken) {
        epoch_id = static_cast<int32_t>(epoch_tokens.size());
        epoch_tokens.push_back(index_vocab_.TokenOf(ids[i]));
        document_frequencies.push_back(0);
      }
      ++document_frequencies[static_cast<size_t>(epoch_id)];
    }
  }
  epoch_vocab_ = Vocabulary::Restore(std::move(epoch_tokens),
                                     std::move(document_frequencies), num_documents);
  // Dead records hold no token ids, so they get empty vectors.
  record_vectors_.resize(n);
  {
    const TfIdfVectorizer vectorizer(&epoch_vocab_);
    ParallelFor(pool(), n, [&](size_t r) {
      record_vectors_[r] = vectorizer.Vectorize(record_token_ids_[r], epoch_id_);
    });
  }
  postings_ = WeightedPostings::Transpose(record_vectors_, epoch_vocab_.size());

  // Rescore every group pair with a θ-edge through the batch edge join
  // over the fresh postings. Refresh gets its own context (the deadline
  // clock restarts here): a degraded refresh still leaves a consistent,
  // subset-valid link set, and with no limits and no faults armed it
  // reproduces the batch engine exactly.
  ExecutionContext ctx(config_.deadline_ms, config_.cancellation,
                       config_.max_candidate_pairs, config_.max_matcher_cost);
  RunReport report;
  const InMemoryPostings corpus(postings_, record_group_, group_records_);
  linked_pairs_ =
      EdgeJoinLink(corpus, record_vectors_, config_.Ladder(), &report, pool(), &ctx)
          .value();  // In-RAM reads cannot fail.
  RebuildClusters();

  ++epoch_;
  GL_DCHECK_EQ(epoch_, entry_epoch + 1);
  groups_since_refresh_ = 0;
  oov_since_refresh_ = 0;
  tokens_since_refresh_ = 0;
  metrics.refreshes.Increment();
  metrics.refresh_rescored_pairs.Increment(
      static_cast<uint64_t>(report.StageCounter("bucket", "group_pairs")));
  if (ctx.degraded()) metrics.degraded_refreshes.Increment();
  metrics.oov_ratio.Set(0.0);
  metrics.refresh_seconds.Observe(timer.ElapsedSeconds());
}

void IncrementalLinker::EraseLinksInvolving(int32_t group) {
  linked_pairs_.erase(
      std::remove_if(linked_pairs_.begin(), linked_pairs_.end(),
                     [group](const std::pair<int32_t, int32_t>& pair) {
                       return pair.first == group || pair.second == group;
                     }),
      linked_pairs_.end());
}

void IncrementalLinker::RebuildClusters() {
  clusters_ = UnionFind(static_cast<size_t>(num_groups()));
  for (const auto& [g1, g2] : linked_pairs_) {
    clusters_.Union(static_cast<size_t>(g1), static_cast<size_t>(g2));
  }
}

std::vector<size_t> IncrementalLinker::ClusterLabels() const {
  return clusters_.ComponentLabels();
}

bool IncrementalLinker::IsAlive(int32_t group) const {
  return group >= 0 && group < num_groups() &&
         group_alive_[static_cast<size_t>(group)] != 0;
}

double IncrementalLinker::EpochOovRatio() const {
  if (tokens_since_refresh_ == 0) return 0.0;
  return static_cast<double>(oov_since_refresh_) /
         static_cast<double>(tokens_since_refresh_);
}

}  // namespace grouplink
