#include "core/snapshot.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "text/tokenizer.h"

namespace grouplink {
namespace {

struct SnapshotMetrics {
  Counter& captured;
  Counter& retired;
  Gauge& live;

  static SnapshotMetrics& Get() {
    auto& registry = MetricsRegistry::Default();
    static SnapshotMetrics metrics{registry.CounterRef("snapshot.captured"),
                                   registry.CounterRef("snapshot.retired"),
                                   registry.GaugeRef("snapshot.live")};
    return metrics;
  }
};

// The token index over each record's distinct ids: its runs, sorted by id.
InvertedIndex BuildTokenIndex(const std::vector<std::vector<int32_t>>& record_token_ids) {
  InvertedIndex index;
  std::vector<int32_t> document;
  for (const std::vector<int32_t>& ids : record_token_ids) {
    document.assign(ids.begin(), ids.end());
    document.erase(std::unique(document.begin(), document.end()), document.end());
    std::sort(document.begin(), document.end());
    index.AddDocument(document);
  }
  return index;
}

}  // namespace

std::shared_ptr<const CorpusSnapshot> CorpusSnapshot::Capture(
    const IncrementalLinker& linker) {
  auto& metrics = SnapshotMetrics::Get();
  // The deleter is how retired epochs report their reclamation: the
  // live gauge tracks epochs still referenced somewhere (current + any
  // held by in-flight readers), the retired counter the total reclaimed.
  std::shared_ptr<CorpusSnapshot> snapshot(
      new CorpusSnapshot(), [&metrics](CorpusSnapshot* s) {
        delete s;
        metrics.retired.Increment();
        metrics.live.Add(-1.0);
      });

  snapshot->config_ = linker.config_;
  snapshot->epoch_ = linker.epoch_;
  snapshot->index_vocab_ = linker.index_vocab_;
  snapshot->epoch_vocab_ = linker.epoch_vocab_;
  snapshot->idf_table_ = snapshot->epoch_vocab_.IdfTable();
  snapshot->record_vectors_ = linker.record_vectors_;
  snapshot->postings_ = linker.postings_;
  snapshot->record_group_ = linker.record_group_;
  snapshot->record_token_ids_ = linker.record_token_ids_;
  snapshot->token_index_ = BuildTokenIndex(snapshot->record_token_ids_);
  snapshot->group_records_ = linker.group_records_;
  snapshot->group_labels_ = linker.group_labels_;
  snapshot->group_alive_ = linker.group_alive_;
  snapshot->num_alive_groups_ = linker.num_alive_groups_;
  snapshot->linked_pairs_ = linker.linked_pairs_;
  snapshot->cluster_labels_ = linker.ClusterLabels();
  // Last write: the seal. Anything observing an unsealed snapshot went
  // around the publication barrier.
  snapshot->seal_ = kSealed;

  metrics.captured.Increment();
  metrics.live.Add(1.0);
  return snapshot;
}

Result<std::shared_ptr<const CorpusSnapshot>> CorpusSnapshot::FromParts(
    Parts parts) {
  auto& metrics = SnapshotMetrics::Get();
  // Same deleter contract as Capture: a recovered epoch participates in
  // the snapshot.live / snapshot.retired reclamation accounting.
  std::shared_ptr<CorpusSnapshot> snapshot(
      new CorpusSnapshot(), [&metrics](CorpusSnapshot* s) {
        delete s;
        metrics.retired.Increment();
        metrics.live.Add(-1.0);
      });
  snapshot->config_ = std::move(parts.config);
  snapshot->epoch_ = parts.epoch;
  snapshot->index_vocab_ = std::move(parts.index_vocab);
  snapshot->epoch_vocab_ = std::move(parts.epoch_vocab);
  snapshot->idf_table_ = snapshot->epoch_vocab_.IdfTable();
  snapshot->record_vectors_ = std::move(parts.record_vectors);
  const size_t num_tokens = snapshot->epoch_vocab_.size();
  for (const SparseVector& vector : snapshot->record_vectors_) {
    if (!vector.empty() && static_cast<size_t>(vector.ids.back()) >= num_tokens) {
      return Status::DataLoss("recovered vector names a token outside the epoch vocabulary");
    }
  }
  snapshot->postings_ = WeightedPostings::Transpose(snapshot->record_vectors_, num_tokens);
  snapshot->record_group_ = std::move(parts.record_group);
  snapshot->record_token_ids_ = std::move(parts.record_token_ids);
  snapshot->token_index_ = BuildTokenIndex(snapshot->record_token_ids_);
  snapshot->group_records_ = std::move(parts.group_records);
  snapshot->group_labels_ = std::move(parts.group_labels);
  snapshot->group_alive_ = std::move(parts.group_alive);
  snapshot->num_alive_groups_ = parts.num_alive_groups;
  snapshot->linked_pairs_ = std::move(parts.linked_pairs);
  snapshot->cluster_labels_ = std::move(parts.cluster_labels);
  snapshot->seal_ = kSealed;
  if (!snapshot->CheckConsistency()) {
    return Status::DataLoss(
        "recovered snapshot failed the consistency check: the store decoded "
        "cleanly but does not describe a valid epoch");
  }
  metrics.captured.Increment();
  metrics.live.Add(1.0);
  return std::shared_ptr<const CorpusSnapshot>(std::move(snapshot));
}

CorpusSnapshot::QueryResult CorpusSnapshot::LinkQuery(
    const GroupArrival& group, const QueryOptions& options) const {
  GL_CHECK_EQ(seal_, kSealed) << "LinkQuery on an unsealed snapshot";
  // Reads from RAM cannot fail, so the Result always holds an answer.
  return RunLinkQuery(*this, group, options).value();
}

Result<CorpusSnapshot::QueryResult> RunLinkQuery(
    const QueryCorpus& corpus, const GroupArrival& group,
    const CorpusSnapshot::QueryOptions& options) {
  GL_CHECK(!group.record_texts.empty()) << "groups must have records";
  const LinkageConfig& config = corpus.engine_config();

  CorpusSnapshot::QueryResult result;
  result.epoch = corpus.epoch();

  // Probe preparation mirrors the arrival path (AddGroups phases A-C) on
  // the frozen epoch: tokenize, count the tokens the epoch vocabulary
  // lacks, vectorize against it with the epoch's IDF column. Unseen tokens
  // carry no weight, so they reach no posting.
  const Vocabulary& epoch_vocab = corpus.epoch_vocab();
  const size_t probe_size = group.record_texts.size();
  std::vector<SparseVector> probe_vectors(probe_size);
  const TfIdfVectorizer vectorizer(&epoch_vocab, corpus.idf_table());
  for (size_t i = 0; i < probe_size; ++i) {
    const std::vector<std::string> raw = Tokenize(group.record_texts[i]);
    for (const std::string& token : ToTokenSet(raw)) {
      if (epoch_vocab.GetId(token) == Vocabulary::kUnknownToken) {
        ++result.oov_tokens;
      }
    }
    probe_vectors[i] = vectorizer.Vectorize(raw);
  }

  ExecutionContext ctx(options.deadline_ms, options.cancellation,
                       options.max_candidate_pairs, options.max_matcher_cost);

  // The probe is outside the corpus: every group is the left side, the
  // probe the right — the arrival path's orientation.
  GL_ASSIGN_OR_RETURN(AccumulateOutcome outcome,
                      AccumulateAndDecide(corpus, probe_vectors, ProbePlacement{},
                                          config.Ladder(), &ctx));
  result.linked_to = std::move(outcome.linked);
  result.candidates = outcome.candidates;
  result.postings_scanned = outcome.postings_scanned;
  result.degraded = ctx.degraded();
  return result;
}

bool CorpusSnapshot::CheckConsistency() const {
  if (seal_ != kSealed) return false;
  const size_t n_records = record_vectors_.size();
  const size_t n_groups = group_records_.size();
  if (record_group_.size() != n_records) return false;
  if (record_token_ids_.size() != n_records) return false;
  // The index is a per-record document index: ids align with record ids.
  if (static_cast<size_t>(token_index_.num_documents()) != n_records) return false;
  if (group_labels_.size() != n_groups) return false;
  if (group_alive_.size() != n_groups) return false;
  if (cluster_labels_.size() != n_groups) return false;
  int32_t alive = 0;
  for (const char a : group_alive_) alive += a != 0 ? 1 : 0;
  if (alive != num_alive_groups_) return false;
  for (const int32_t g : record_group_) {
    if (g < 0 || static_cast<size_t>(g) >= n_groups) return false;
  }
  // Each listed record names its group back, once; every record with a
  // vector — a posting — is listed by a live group, so accumulation can
  // place every edge it finds, and so is every record with token ids, so
  // the token index holds live records only.
  std::vector<char> listed(n_records, 0);
  for (size_t g = 0; g < n_groups; ++g) {
    for (const int32_t r : group_records_[g]) {
      if (r < 0 || static_cast<size_t>(r) >= n_records) return false;
      const size_t record = static_cast<size_t>(r);
      if (listed[record] != 0 || static_cast<size_t>(record_group_[record]) != g) {
        return false;
      }
      listed[record] = 1;
    }
  }
  for (size_t r = 0; r < n_records; ++r) {
    if ((!record_vectors_[r].empty() || !record_token_ids_[r].empty()) &&
        (listed[r] == 0 || group_alive_[static_cast<size_t>(record_group_[r])] == 0)) {
      return false;
    }
  }
  std::pair<int32_t, int32_t> prev{-1, -1};
  for (const auto& pair : linked_pairs_) {
    if (pair.first >= pair.second) return false;
    if (pair <= prev) return false;  // Sorted, no duplicates.
    if (!IsAlive(pair.first) || !IsAlive(pair.second)) return false;
    prev = pair;
  }
  return true;
}

}  // namespace grouplink
