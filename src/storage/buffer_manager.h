#ifndef GROUPLINK_STORAGE_BUFFER_MANAGER_H_
#define GROUPLINK_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace grouplink {
namespace storage {

/// Buffer-pool counters of one BufferManager instance (the storage.*
/// process metrics aggregate across instances; these are per-pool, which
/// is what the per-budget bench rows report).
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

class BufferManager;

/// RAII pin on one verified page. While a handle lives, its frame cannot
/// be evicted, so payload() stays valid and immutable. Move-only; the
/// destructor unpins.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  [[nodiscard]] const uint8_t* payload() const { return payload_; }
  [[nodiscard]] uint32_t payload_len() const { return payload_len_; }
  [[nodiscard]] PageType type() const { return type_; }
  [[nodiscard]] bool valid() const { return manager_ != nullptr; }

 private:
  friend class BufferManager;
  PageHandle(BufferManager* manager, size_t frame, const uint8_t* payload,
             uint32_t payload_len, PageType type)
      : manager_(manager), frame_(frame), payload_(payload),
        payload_len_(payload_len), type_(type) {}
  void Release();

  BufferManager* manager_ = nullptr;
  size_t frame_ = 0;
  const uint8_t* payload_ = nullptr;
  uint32_t payload_len_ = 0;
  PageType type_ = PageType::kSegment;
};

/// Fixed-budget page cache over one immutable PageFile: ref-counted
/// frames, clock (second-chance) eviction, checksum verification on
/// every disk read. The page budget is the out-of-core contract — a
/// StoredCorpus touches at most `pool_pages` pages of RAM for paged
/// data no matter how large the store is.
///
/// Thread safety: fully internally synchronized; any number of threads
/// may Pin/unpin concurrently. v1 keeps one global mutex and performs
/// the miss I/O under it — correctness first; the differential and TSan
/// stress suites pin the behavior so a later lock split can't drift.
///
/// Eviction: clock hand over the frames; pinned frames are skipped,
/// recently-hit frames get a second chance. When every frame is pinned,
/// Pin returns FailedPrecondition("buffer pool exhausted") instead of
/// blocking — callers hold at most one pin at a time (SegmentReader's
/// contract), so a pool of >= num_threads frames can never see it.
class BufferManager {
 public:
  /// `num_pages` bounds the valid page-id range; `pool_pages` (>= 1) is
  /// the frame budget.
  BufferManager(std::shared_ptr<const PageFile> file, uint32_t page_bytes,
                uint64_t num_pages, size_t pool_pages);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pins `page_id`, reading and checksum-verifying it on a miss.
  /// Errors: OutOfRange (bad page id), DataLoss (checksum/format),
  /// IoError (read failure), FailedPrecondition (all frames pinned).
  [[nodiscard]] Result<PageHandle> Pin(uint64_t page_id);

  [[nodiscard]] size_t pool_pages() const { return pool_pages_; }
  [[nodiscard]] uint32_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] uint64_t num_pages() const { return num_pages_; }
  [[nodiscard]] BufferStats stats() const;

 private:
  friend class PageHandle;

  struct Frame {
    uint64_t page_id = 0;
    int64_t pins = 0;
    bool valid = false;
    bool referenced = false;  // Clock second-chance bit.
    PageType type = PageType::kSegment;
    uint32_t payload_len = 0;
    std::vector<uint8_t> data;  // page_bytes once loaded.
  };

  void Unpin(size_t frame_index);
  /// Clock sweep for an unpinned victim; pool_pages_ marks failure.
  size_t FindVictimLocked() GL_REQUIRES(mu_);

  const std::shared_ptr<const PageFile> file_;
  const uint32_t page_bytes_;
  const uint64_t num_pages_;
  const size_t pool_pages_;  // == frames_.size(), fixed at construction.

  mutable Mutex mu_;
  std::vector<Frame> frames_ GL_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, size_t> page_map_ GL_GUARDED_BY(mu_);
  size_t clock_hand_ GL_GUARDED_BY(mu_) = 0;
  BufferStats stats_ GL_GUARDED_BY(mu_);
};

/// Byte-addressed view of one segment (a logical byte stream spanning
/// whole pages, each page holding PagePayloadCapacity(page_bytes) bytes
/// except possibly the last). Reads pin one page at a time through the
/// buffer manager — never more — which is what makes the tiny-pool
/// configurations of the differential suite deadlock-free by design.
class SegmentReader {
 public:
  SegmentReader() = default;
  SegmentReader(BufferManager* buffer, uint64_t first_page, uint64_t length);

  /// Copies `[offset, offset + n)` of the segment into `out`.
  [[nodiscard]] Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const;

  [[nodiscard]] uint64_t length() const { return length_; }

 private:
  BufferManager* buffer_ = nullptr;
  uint64_t first_page_ = 0;
  uint64_t length_ = 0;
};

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_BUFFER_MANAGER_H_
