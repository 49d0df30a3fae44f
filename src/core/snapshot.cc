#include "core/snapshot.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/filter_refine.h"
#include "matching/bipartite_graph.h"
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
  snapshot->token_index_ = linker.token_index_;
  snapshot->epoch_vocab_ = linker.epoch_vocab_;
  snapshot->record_vectors_ = linker.record_vectors_;
  snapshot->record_group_ = linker.record_group_;
  // Raw occurrences re-encoded as index-vocab ids: every raw token of a
  // live record was absorbed into the index vocabulary at arrival, so the
  // lookup never misses; tombstoned records have empty raw tokens.
  snapshot->record_token_ids_.resize(linker.record_raw_tokens_.size());
  for (size_t r = 0; r < linker.record_raw_tokens_.size(); ++r) {
    std::vector<int32_t>& ids = snapshot->record_token_ids_[r];
    ids.reserve(linker.record_raw_tokens_[r].size());
    for (const std::string& token : linker.record_raw_tokens_[r]) {
      const int32_t id = linker.index_vocab_.GetId(token);
      GL_DCHECK_NE(id, Vocabulary::kUnknownToken);
      ids.push_back(id);
    }
  }
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
  snapshot->token_index_ = std::move(parts.token_index);
  snapshot->epoch_vocab_ = std::move(parts.epoch_vocab);
  snapshot->record_vectors_ = std::move(parts.record_vectors);
  snapshot->record_group_ = std::move(parts.record_group);
  snapshot->record_token_ids_ = std::move(parts.record_token_ids);
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

Result<std::vector<int32_t>> CorpusSnapshot::CandidateGroups(
    const std::vector<std::vector<int32_t>>& probe_token_ids) const {
  std::vector<int32_t> groups;
  for (const std::vector<int32_t>& ids : probe_token_ids) {
    for (const int32_t doc : token_index_.DocumentsSharingToken(ids)) {
      const int32_t g = record_group_[static_cast<size_t>(doc)];
      if (!group_alive_[static_cast<size_t>(g)]) continue;
      groups.push_back(g);
    }
  }
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  return groups;
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
  // the frozen epoch: tokenize, map tokens into the index id space for
  // candidate generation, vectorize against the epoch vocabulary. Tokens
  // the index has never seen cannot match any posting (an arrival would
  // have absorbed them with empty postings), so dropping them here yields
  // the identical candidate set.
  const Vocabulary& index_vocab = corpus.index_vocab();
  const Vocabulary& epoch_vocab = corpus.epoch_vocab();
  const size_t probe_size = group.record_texts.size();
  std::vector<std::vector<int32_t>> probe_ids(probe_size);
  std::vector<SparseVector> probe_vectors(probe_size);
  const TfIdfVectorizer vectorizer(&epoch_vocab);
  for (size_t i = 0; i < probe_size; ++i) {
    const std::vector<std::string> raw = Tokenize(group.record_texts[i]);
    const std::vector<std::string> set = ToTokenSet(raw);
    for (const std::string& token : set) {
      const int32_t id = index_vocab.GetId(token);
      if (id != Vocabulary::kUnknownToken) probe_ids[i].push_back(id);
      if (epoch_vocab.GetId(token) == Vocabulary::kUnknownToken) {
        ++result.oov_tokens;
      }
    }
    std::sort(probe_ids[i].begin(), probe_ids[i].end());
    probe_vectors[i] = vectorizer.Vectorize(raw);
  }

  ExecutionContext ctx;
  if (options.deadline_ms > 0.0) ctx.SetDeadline(options.deadline_ms);
  ctx.SetCancellation(options.cancellation);
  ctx.SetMaxCandidatePairs(options.max_candidate_pairs);
  ctx.SetMaxMatcherCost(options.max_matcher_cost);

  GL_ASSIGN_OR_RETURN(std::vector<int32_t> candidates,
                      corpus.CandidateGroups(probe_ids));
  const size_t cap = ctx.EffectiveCandidateCap(candidates.size());
  if (cap < candidates.size()) {
    candidates.resize(cap);
    ctx.NoteDegraded();
  }
  result.candidates = candidates.size();

  const FilterRefineConfig ladder = config.Ladder();
  const int32_t size_right = static_cast<int32_t>(probe_size);
  SparseVector scratch;
  for (const int32_t g : candidates) {
    if (ctx.StopRequested()) {
      ctx.NoteDegraded();
      break;
    }
    // The corpus group is the left side, the probe the right — the same
    // orientation as the arrival path's DecideLink(other, new_group).
    const std::vector<int32_t>& left = corpus.GroupRecords(g);
    const int32_t size_left = static_cast<int32_t>(left.size());
    BipartiteGraph graph(size_left, size_right);
    for (size_t i = 0; i < left.size(); ++i) {
      GL_ASSIGN_OR_RETURN(const SparseVector* corpus_vector,
                          corpus.RecordVector(left[i], &scratch));
      for (size_t j = 0; j < probe_size; ++j) {
        const double s =
            PrenormalizedCosineSimilarity(*corpus_vector, probe_vectors[j]);
        if (s >= config.theta) {
          graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
        }
      }
    }
    if (DecideGraphLinked(graph, size_left, size_right, ladder, &ctx)) {
      result.linked_to.push_back(g);
    }
  }
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
  for (const std::vector<int32_t>& records : group_records_) {
    for (const int32_t r : records) {
      if (r < 0 || static_cast<size_t>(r) >= n_records) return false;
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
