#include "storage/buffer_manager.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"

namespace grouplink {
namespace storage {
namespace {

struct StorageMetrics {
  Counter& pages_read;
  Counter& buffer_hits;
  Counter& evictions;

  static StorageMetrics& Get() {
    auto& registry = MetricsRegistry::Default();
    static StorageMetrics metrics{registry.CounterRef("storage.pages_read"),
                                  registry.CounterRef("storage.buffer_hits"),
                                  registry.CounterRef("storage.evictions")};
    return metrics;
  }
};

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    frame_ = other.frame_;
    payload_ = other.payload_;
    payload_len_ = other.payload_len_;
    type_ = other.type_;
    other.manager_ = nullptr;
    other.payload_ = nullptr;
  }
  return *this;
}

void PageHandle::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(frame_);
    manager_ = nullptr;
    payload_ = nullptr;
  }
}

BufferManager::BufferManager(std::shared_ptr<const PageFile> file,
                             uint32_t page_bytes, uint64_t num_pages,
                             size_t pool_pages)
    : file_(std::move(file)), page_bytes_(page_bytes), num_pages_(num_pages),
      pool_pages_(pool_pages) {
  GL_CHECK_GE(pool_pages, 1u);
  MutexLock lock(&mu_);
  frames_.resize(pool_pages);
  page_map_.reserve(pool_pages);
}

size_t BufferManager::FindVictimLocked() {
  // Clock sweep: first pass clears second-chance bits, so after at most
  // two revolutions every unpinned frame has been offered. An invalid
  // (never-loaded) frame is always a free victim.
  const size_t n = pool_pages_;
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& frame = frames_[clock_hand_];
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    if (frame.pins > 0) continue;
    if (frame.valid && frame.referenced) {
      frame.referenced = false;
      continue;
    }
    return index;
  }
  return n;
}

Result<PageHandle> BufferManager::Pin(uint64_t page_id) {
  if (page_id >= num_pages_) {
    return Status::OutOfRange("page id " + std::to_string(page_id) +
                              " out of range (store has " +
                              std::to_string(num_pages_) + " pages)");
  }
  size_t victim = 0;
  uint8_t* bytes = nullptr;
  {
    MutexLock lock(&mu_);
    for (auto it = page_map_.find(page_id); it != page_map_.end();
         it = page_map_.find(page_id)) {
      Frame& frame = frames_[it->second];
      if (frame.loading) {
        // Another Pin is reading this page. Wait for that read to end, then
        // look again: a failed read has unmapped the page.
        load_done_.Wait(&mu_);
        continue;
      }
      ++frame.pins;
      frame.referenced = true;
      ++stats_.hits;
      StorageMetrics::Get().buffer_hits.Increment();
      return PageHandle(this, it->second, frame.data.data() + kPageHeaderBytes,
                        frame.payload_len, frame.type);
    }

    victim = FindVictimLocked();
    if (victim == pool_pages_) {
      return Status::FailedPrecondition(
          "buffer pool exhausted: all " + std::to_string(pool_pages_) +
          " frames pinned");
    }
    Frame& frame = frames_[victim];
    if (frame.valid) {
      page_map_.erase(frame.page_id);
      frame.valid = false;
      ++stats_.evictions;
      StorageMetrics::Get().evictions.Increment();
    }
    // Map the page as loading, pinned by this Pin: no other Pin evicts the
    // frame or reads its bytes until LoadUnlocked publishes or frees it.
    frame.page_id = page_id;
    frame.pins = 1;
    frame.loading = true;
    frame.data.resize(page_bytes_);
    bytes = frame.data.data();
    page_map_.emplace(page_id, victim);
  }
  return LoadUnlocked(page_id, victim, bytes);
}

Result<PageHandle> BufferManager::LoadUnlocked(uint64_t page_id, size_t victim,
                                               uint8_t* bytes) {
  // The disk read and the checksum run without the pool lock, on the
  // frame this Pin alone owns until it publishes it.
  Result<PageView> view = [&]() -> Result<PageView> {
    GL_RETURN_IF_ERROR(file_->ReadAt(page_id * static_cast<uint64_t>(page_bytes_),
                                     page_bytes_, bytes));
    return VerifyPageFrame(bytes, page_bytes_, page_id);
  }();

  MutexLock lock(&mu_);
  Frame& frame = frames_[victim];
  frame.loading = false;
  load_done_.SignalAll();
  if (!view.ok()) {
    page_map_.erase(page_id);
    frame.pins = 0;
    return view.status();
  }
  ++stats_.misses;
  StorageMetrics::Get().pages_read.Increment();
  frame.valid = true;
  frame.referenced = true;
  frame.type = view->type;
  frame.payload_len = view->payload_len;
  return PageHandle(this, victim, bytes + kPageHeaderBytes, frame.payload_len,
                    frame.type);
}

void BufferManager::Unpin(size_t frame_index) {
  MutexLock lock(&mu_);
  Frame& frame = frames_[frame_index];
  GL_DCHECK_GT(frame.pins, 0);
  --frame.pins;
}

BufferStats BufferManager::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

SegmentReader::SegmentReader(BufferManager* buffer, uint64_t first_page,
                             uint64_t length)
    : buffer_(buffer), first_page_(first_page), length_(length) {}

Status SegmentReader::ReadRanges(std::span<const ByteRange> ranges,
                                 uint8_t* out) const {
  PageHandle handle;
  uint64_t pinned = 0;
  uint64_t previous_end = 0;
  for (const ByteRange& range : ranges) {
    if (range.n == 0) continue;
    GL_CHECK(buffer_ != nullptr);
    GL_DCHECK_GE(range.offset, previous_end) << "ranges must ascend and not overlap";
    const uint64_t cap = PagePayloadCapacity(buffer_->page_bytes());
    if (range.offset + range.n > length_ || range.offset + range.n < range.offset) {
      return Status::DataLoss("segment read past end (offset " +
                              std::to_string(range.offset) + " + " +
                              std::to_string(range.n) + " > " +
                              std::to_string(length_) + ")");
    }
    previous_end = range.offset + range.n;
    for (size_t done = 0; done < range.n;) {
      const uint64_t at = range.offset + done;
      const uint64_t page = first_page_ + at / cap;
      const uint64_t within = at % cap;
      if (!handle.valid() || page != pinned) {
        // At most one page is pinned per reader: release before pinning.
        handle = PageHandle();
        GL_ASSIGN_OR_RETURN(handle, buffer_->Pin(page));
        pinned = page;
        if (handle.type() != PageType::kSegment) {
          return Status::DataLoss("segment page has wrong type at page " +
                                  std::to_string(page));
        }
      }
      if (within >= handle.payload_len()) {
        return Status::DataLoss("segment page underflow at page " +
                                std::to_string(page));
      }
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(handle.payload_len() - within, range.n - done));
      std::memcpy(out, handle.payload() + within, take);
      out += take;
      done += take;
    }
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace grouplink
