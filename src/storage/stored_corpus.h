#ifndef GROUPLINK_STORAGE_STORED_CORPUS_H_
#define GROUPLINK_STORAGE_STORED_CORPUS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/snapshot.h"
#include "storage/buffer_manager.h"
#include "storage/snapshot_store.h"
#include "storage/store_format.h"

namespace grouplink {
namespace storage {

/// Out-of-core LinkQuery serving directly from a store file: the big
/// per-record data — the weighted posting lists — stays on disk and is
/// paged in through a fixed-budget BufferManager, so a corpus much larger
/// than the buffer pool can be served. Only the compact metadata
/// (dictionaries, group structure, the per-record norms, directories) and
/// the epoch IDF column are resident.
///
/// Decision-procedure contract: LinkQuery here answers bit-identically
/// to CorpusSnapshot::LinkQuery over the same epoch, by construction:
/// both run the one pipeline (RunLinkQuery) over the QueryCorpus
/// interface, and this class only supplies the reads — the same posting
/// lists, each weight rebuilt as (tf * idf) / norm, the expression
/// TfIdfVectorizer evaluates, so bit for bit the in-RAM one (Persist
/// checks every list before it writes). The differential suite
/// (tests/storage_differential_test.cc) remains the proof, across thread
/// counts, buffer budgets down to a pathologically tiny pool, and
/// admission-control options.
///
/// A query fetches each distinct probe token's list once, in ascending
/// token id (store order), and keeps the decoded lists of its probe in
/// per-thread buffers that later queries reuse: that is the transient
/// decode memory of a paged query.
///
/// Thread safety: every method is const over immutable resident state;
/// the buffer pool is internally synchronized. Any number of threads
/// may query concurrently. Queries pin at most one page at a time, so
/// even a one-frame pool makes progress.
class StoredCorpus final : public QueryCorpus {
 public:
  /// Opens the store at `path`, loading resident metadata and building
  /// a buffer pool of `options.buffer_pool_pages` frames
  /// (`options.page_bytes` is ignored — the store dictates it).
  /// Errors: NotFound, DataLoss, IoError.
  [[nodiscard]] static Result<std::unique_ptr<StoredCorpus>> Open(
      const std::string& path, const StorageOptions& options = {});

  /// Links `group` against the stored corpus; see the class contract.
  /// Paged reads can fail (corruption discovered lazily, pool
  /// exhaustion), hence the Result the in-RAM path does not need.
  [[nodiscard]] Result<CorpusSnapshot::QueryResult> LinkQuery(
      const GroupArrival& group,
      const CorpusSnapshot::QueryOptions& options = {}) const;

  [[nodiscard]] int64_t epoch() const override { return meta_.epoch; }
  [[nodiscard]] int32_t num_records() const {
    return static_cast<int32_t>(meta_.num_records);
  }
  [[nodiscard]] int32_t num_groups() const {
    return static_cast<int32_t>(meta_.num_groups);
  }
  [[nodiscard]] const LinkageConfig& engine_config() const override {
    return meta_.config;
  }
  /// Buffer-pool counters since Open (per-budget bench rows).
  [[nodiscard]] BufferStats buffer_stats() const { return buffer_->stats(); }
  [[nodiscard]] size_t pool_pages() const { return buffer_->pool_pages(); }

  // QueryCorpus, served through the buffer pool: the lists are read in one
  // pass in store order, each page pinned once, and decoded into
  // out->decoded, their record ids and norms checked (DataLoss).
  [[nodiscard]] const Vocabulary& epoch_vocab() const override {
    return epoch_vocab_;
  }
  [[nodiscard]] std::span<const double> idf_table() const override {
    return idf_table_;
  }
  [[nodiscard]] Status FetchPostings(std::span<const int32_t> tokens,
                                     FetchedPostings* out) const override;
  [[nodiscard]] const std::vector<int32_t>& record_group() const override {
    return meta_.record_group;
  }
  [[nodiscard]] const std::vector<int32_t>& GroupRecords(int32_t g) const override {
    return meta_.group_records[static_cast<size_t>(g)];
  }

 private:
  StoredCorpus() = default;

  // Resident metadata (immutable after Open).
  MetaData meta_;
  Vocabulary epoch_vocab_;
  std::vector<double> idf_table_;           // epoch_vocab_.IdfTable().
  std::vector<uint64_t> postings_offsets_;  // Prefix sums, size |epoch vocab|+1.

  // Paged data plumbing. The BufferManager is internally synchronized;
  // reaching it through const methods is safe by its contract.
  std::shared_ptr<const PageFile> file_;
  std::unique_ptr<BufferManager> buffer_;
  SegmentReader postings_reader_;
};

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_STORED_CORPUS_H_
