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
  MutexLock lock(&mu_);
  const auto it = page_map_.find(page_id);
  if (it != page_map_.end()) {
    Frame& frame = frames_[it->second];
    ++frame.pins;
    frame.referenced = true;
    ++stats_.hits;
    StorageMetrics::Get().buffer_hits.Increment();
    return PageHandle(this, it->second, frame.data.data() + kPageHeaderBytes,
                      frame.payload_len, frame.type);
  }

  const size_t victim = FindVictimLocked();
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

  // Miss path: disk read + checksum verification under the pool lock
  // (v1 simplification, see class comment).
  frame.data.resize(page_bytes_);
  const Status read_status = file_->ReadAt(
      page_id * static_cast<uint64_t>(page_bytes_), page_bytes_, frame.data.data());
  if (!read_status.ok()) return read_status;
  Result<PageView> view = VerifyPageFrame(frame.data.data(), page_bytes_, page_id);
  if (!view.ok()) return view.status();

  ++stats_.misses;
  StorageMetrics::Get().pages_read.Increment();
  frame.page_id = page_id;
  frame.pins = 1;
  frame.valid = true;
  frame.referenced = true;
  frame.type = view->type;
  frame.payload_len = view->payload_len;
  page_map_.emplace(page_id, victim);
  return PageHandle(this, victim, frame.data.data() + kPageHeaderBytes,
                    frame.payload_len, frame.type);
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

Status SegmentReader::ReadAt(uint64_t offset, size_t n, uint8_t* out) const {
  if (n == 0) return Status::Ok();
  GL_CHECK(buffer_ != nullptr);
  if (offset + n > length_ || offset + n < offset) {
    return Status::DataLoss("segment read past end (offset " +
                            std::to_string(offset) + " + " + std::to_string(n) +
                            " > " + std::to_string(length_) + ")");
  }
  const uint64_t cap = PagePayloadCapacity(buffer_->page_bytes());
  size_t done = 0;
  while (done < n) {
    const uint64_t at = offset + done;
    const uint64_t page = first_page_ + at / cap;
    const uint64_t within = at % cap;
    GL_ASSIGN_OR_RETURN(const PageHandle handle, buffer_->Pin(page));
    if (handle.type() != PageType::kSegment) {
      return Status::DataLoss("segment page has wrong type at page " +
                              std::to_string(page));
    }
    if (within >= handle.payload_len()) {
      return Status::DataLoss("segment page underflow at page " +
                              std::to_string(page));
    }
    const size_t take = static_cast<size_t>(
        std::min<uint64_t>(handle.payload_len() - within, n - done));
    std::memcpy(out + done, handle.payload() + within, take);
    done += take;
    // The handle unpins here: at most one page is pinned per reader.
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace grouplink
