#ifndef GROUPLINK_STORAGE_SNAPSHOT_STORE_H_
#define GROUPLINK_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/snapshot.h"
#include "storage/page.h"

namespace grouplink {
namespace storage {

/// Knobs of the persistent tier.
struct StorageOptions {
  /// On-disk page size. Must lie in [kMinPageBytes, kMaxPageBytes];
  /// smaller pages mean finer-grained buffer budgets (and more checksum
  /// overhead), larger pages amortize I/O. 4 KiB matches the common
  /// filesystem block.
  uint32_t page_bytes = 4096;
  /// Buffer-pool frame budget of a StoredCorpus opened over the store.
  size_t buffer_pool_pages = 64;
};

/// Serializes sealed CorpusSnapshots into paged, checksummed store files
/// and recovers them (DESIGN.md §12).
///
/// Durability protocol — write-new-then-rename:
///   1. The whole store is built at `path + ".tmp"`: header page,
///      segment pages, then the seal page *last*.
///   2. fsync of the tmp file, then rename(2) onto `path`, then fsync of
///      the directory. Readers only ever observe the complete old store
///      or the complete new store.
///   3. Recovery trusts nothing: the header, the seal, and every page
///      checksum are verified before any byte is interpreted, and the
///      rebuilt snapshot must pass CheckConsistency. A crash at any
///      instant therefore yields either the previous consistent store or
///      a clean error — never a silently different link set
///      (tests/storage_recovery_test.cc sweeps every injection site).
class SnapshotStore {
 public:
  /// Writes `snapshot` to `path` under the protocol above. On failure the
  /// published store (if any) is untouched; a partial `path + ".tmp"` may
  /// remain, exactly as a crash would leave it — the next Persist
  /// truncates it, and Load never looks at it.
  [[nodiscard]] static Status Persist(const CorpusSnapshot& snapshot,
                                      const std::string& path,
                                      const StorageOptions& options = {});

  /// Recovers the snapshot stored at `path`. Checksum-verifies every page
  /// of the file (recovery reads it all anyway, and a full scan turns any
  /// corruption into a deterministic Status::DataLoss). The TF-IDF
  /// vectors are rebuilt by transposing the stored weighted postings, and
  /// the inverted index from the persisted per-record token sets through
  /// the exact AddDocument/RemoveDocument sequence of the original, so
  /// the recovered snapshot answers every query bit-identically. A store
  /// of another format version is DataLoss.
  /// Errors: NotFound (no store), DataLoss (corruption or a store that
  /// decodes into an inconsistent epoch), IoError.
  [[nodiscard]] static Result<std::shared_ptr<const CorpusSnapshot>> Load(
      const std::string& path);
};

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_SNAPSHOT_STORE_H_
