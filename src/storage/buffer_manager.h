#ifndef GROUPLINK_STORAGE_BUFFER_MANAGER_H_
#define GROUPLINK_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <memory>
#include <span>
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
/// may Pin/unpin concurrently. One mutex guards the frame table, and a
/// miss reads and checksums its page outside it: the miss maps its
/// victim frame as *loading*, pinned by the loader, so no other Pin can
/// evict it or see its bytes. A Pin of a page that is still loading
/// waits for that one read; the loader waits on nothing, so no wait
/// cycle can form. A failed read unmaps and frees its frame, and each
/// waiter then does its own miss.
///
/// Eviction: clock hand over the frames; pinned frames are skipped,
/// recently-hit frames get a second chance. When every frame is pinned,
/// Pin returns FailedPrecondition("buffer pool exhausted") at once
/// instead of blocking — callers hold at most one pin at a time
/// (SegmentReader's contract), so a pool of >= num_threads frames can
/// never see it.
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
  [[nodiscard]] Result<PageHandle> Pin(uint64_t page_id) GL_EXCLUDES(mu_);

  [[nodiscard]] size_t pool_pages() const { return pool_pages_; }
  [[nodiscard]] uint32_t page_bytes() const { return page_bytes_; }
  [[nodiscard]] uint64_t num_pages() const { return num_pages_; }
  [[nodiscard]] BufferStats stats() const;

 private:
  friend class PageHandle;

  struct Frame {
    uint64_t page_id = 0;
    int64_t pins = 0;
    bool valid = false;       // Mapped and verified.
    bool loading = false;     // Mapped; its loader is reading it unlocked.
    bool referenced = false;  // Clock second-chance bit.
    PageType type = PageType::kSegment;
    uint32_t payload_len = 0;
    std::vector<uint8_t> data;  // page_bytes once loaded.
  };

  void Unpin(size_t frame_index) GL_EXCLUDES(mu_);
  /// Clock sweep for an unpinned victim; pool_pages_ marks failure.
  size_t FindVictimLocked() GL_REQUIRES(mu_);
  /// Reads and verifies `page_id` into the loading frame `victim`, whose
  /// bytes start at `bytes`, then publishes or frees the frame.
  Result<PageHandle> LoadUnlocked(uint64_t page_id, size_t victim, uint8_t* bytes)
      GL_EXCLUDES(mu_);

  const std::shared_ptr<const PageFile> file_;
  const uint32_t page_bytes_;
  const uint64_t num_pages_;
  const size_t pool_pages_;  // == frames_.size(), fixed at construction.

  mutable Mutex mu_;
  /// Signalled whenever a load ends, verified or failed.
  CondVar load_done_;
  std::vector<Frame> frames_ GL_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, size_t> page_map_ GL_GUARDED_BY(mu_);
  size_t clock_hand_ GL_GUARDED_BY(mu_) = 0;
  BufferStats stats_ GL_GUARDED_BY(mu_);
};

/// `n` bytes of a segment from byte `offset`.
struct ByteRange {
  uint64_t offset = 0;
  size_t n = 0;
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

  /// Copies `ranges`, which ascend and do not overlap, back to back into
  /// `out` in one ascending pass: each page they span is pinned once, and
  /// its pin is released before the next page is pinned.
  [[nodiscard]] Status ReadRanges(std::span<const ByteRange> ranges, uint8_t* out) const;

  /// Copies `[offset, offset + n)` of the segment into `out`.
  [[nodiscard]] Status ReadAt(uint64_t offset, size_t n, uint8_t* out) const {
    const ByteRange range{offset, n};
    return ReadRanges({&range, 1}, out);
  }

  [[nodiscard]] uint64_t length() const { return length_; }

 private:
  BufferManager* buffer_ = nullptr;
  uint64_t first_page_ = 0;
  uint64_t length_ = 0;
};

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_BUFFER_MANAGER_H_
