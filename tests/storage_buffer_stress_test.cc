// Buffer-manager concurrency stress suite, registered in the TSan CI
// job: many threads hammering a 4-frame pool with pins, overlapping
// segment reads, and deliberate pool exhaustion. Every read must return
// verified bytes identical to the file, stats must balance, and a
// fully-pinned pool must fail cleanly with FailedPrecondition rather
// than deadlock. Concurrent pins of one page still being read must read
// it once, or each fail cleanly when it is corrupt. Every wait is
// bounded (RunTogether), so a lost wake-up fails the suite instead of
// hanging it.
#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"
#include "support/run_together.h"

namespace grouplink {
namespace storage {
namespace {

constexpr uint32_t kPageBytes = kMinPageBytes;

/// Writes a store-shaped file of `num_pages` sealed segment pages whose
/// payload bytes are a deterministic function of (page, offset), so any
/// reader thread can verify any byte it gets back.
uint8_t ExpectedByte(uint64_t page, size_t offset) {
  return static_cast<uint8_t>((page * 131 + offset * 7 + 3) & 0xff);
}

std::string WriteFixtureFile(uint64_t num_pages) {
  const std::string path = ::testing::TempDir() + "/buffer_stress.pages";
  auto writer = PageWriter::Create(path);
  GL_CHECK(writer.ok());
  const uint32_t capacity = PagePayloadCapacity(kPageBytes);
  std::vector<uint8_t> frame(kPageBytes);
  for (uint64_t page = 0; page < num_pages; ++page) {
    std::fill(frame.begin(), frame.end(), 0);
    for (size_t i = 0; i < capacity; ++i) {
      frame[kPageHeaderBytes + i] = ExpectedByte(page, i);
    }
    SealPageFrame(page, PageType::kSegment, capacity, frame.data(), kPageBytes);
    GL_CHECK((*writer)->Append(frame.data(), kPageBytes).ok());
  }
  GL_CHECK((*writer)->Close().ok());
  return path;
}

struct Fixture {
  explicit Fixture(uint64_t num_pages, size_t pool_pages)
      : path(WriteFixtureFile(num_pages)) {
    auto opened = PageFile::Open(path);
    GL_CHECK(opened.ok());
    file = std::move(*opened);
    buffer = std::make_unique<BufferManager>(file, kPageBytes, num_pages,
                                             pool_pages);
  }
  ~Fixture() { GL_CHECK(RemoveFile(path).ok()); }

  std::string path;
  std::shared_ptr<const PageFile> file;
  std::unique_ptr<BufferManager> buffer;
};

TEST(BufferStressTest, ManyThreadsFourFramesEveryByteVerified) {
  constexpr uint64_t kNumPages = 64;
  constexpr int kThreads = 8;
  constexpr int kPinsPerThread = 400;
  Fixture fixture(kNumPages, 4);

  std::atomic<int> bad_bytes{0};
  std::atomic<int> errors{0};
  std::atomic<uint64_t> successful_pins{0};
  RunTogether(kThreads, [&](int t) {
    // Deterministic per-thread page walk with plenty of cross-thread
    // overlap; far more distinct pages than frames, so eviction churns
    // constantly under contention.
    uint64_t state = static_cast<uint64_t>(t) * 2654435761u + 1;
    for (int i = 0; i < kPinsPerThread; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t page = (state >> 33) % kNumPages;
      // 8 threads each briefly holding one pin can transiently exceed
      // the 4-frame budget; exhaustion is the documented clean-failure
      // mode (see ExhaustedPoolFailsCleanlyAndRecovers), so retry it.
      // Anything else — I/O error, corruption — is a real failure.
      auto handle = fixture.buffer->Pin(page);
      int spins = 0;
      while (!handle.ok() &&
             handle.status().code() == StatusCode::kFailedPrecondition &&
             ++spins < 10000) {
        std::this_thread::yield();
        handle = fixture.buffer->Pin(page);
      }
      if (!handle.ok()) {
        ++errors;
        continue;
      }
      ++successful_pins;
      const size_t probe = static_cast<size_t>(state % handle->payload_len());
      if (handle->payload()[probe] != ExpectedByte(page, probe) ||
          handle->payload_len() != PagePayloadCapacity(kPageBytes)) {
        ++bad_bytes;
      }
    }
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(bad_bytes.load(), 0);
  EXPECT_EQ(successful_pins.load(),
            static_cast<uint64_t>(kThreads) * kPinsPerThread);

  // Every successful pin is exactly one hit or one miss; an exhausted
  // attempt counts neither.
  const BufferStats stats = fixture.buffer->stats();
  EXPECT_EQ(stats.hits + stats.misses, successful_pins.load());
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Pool budget is a hard ceiling regardless of contention.
  EXPECT_EQ(fixture.buffer->pool_pages(), 4u);
}

TEST(BufferStressTest, ConcurrentSegmentReadersSeeTheWholeStream) {
  // Segment readers spanning many pages, read at misaligned offsets from
  // several threads at once. Each reader holds at most one pin, so one
  // frame per reader is the pool BufferManager's contract guarantees
  // never to exhaust; 6 frames over 32 pages still evict constantly.
  constexpr uint64_t kNumPages = 32;
  constexpr int kReaders = 6;
  Fixture fixture(kNumPages, kReaders);
  const uint32_t capacity = PagePayloadCapacity(kPageBytes);
  const uint64_t length = static_cast<uint64_t>(kNumPages) * capacity;
  const SegmentReader reader(fixture.buffer.get(), 0, length);

  std::atomic<int> failures{0};
  RunTogether(kReaders, [&](int t) {
    // Each thread scans the stream with its own misaligned stride.
    const size_t n = 97 + static_cast<size_t>(t) * 13;
    std::vector<uint8_t> got(n);
    for (uint64_t offset = static_cast<uint64_t>(t) * 31; offset + n <= length;
         offset += 211) {
      if (!reader.ReadAt(offset, n, got.data()).ok()) {
        ++failures;
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t pos = offset + i;
        if (got[i] != ExpectedByte(pos / capacity, pos % capacity)) {
          ++failures;
          break;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(fixture.buffer->stats().evictions, 0u);
}

TEST(BufferStressTest, ExhaustedPoolFailsCleanlyAndRecovers) {
  constexpr uint64_t kNumPages = 8;
  Fixture fixture(kNumPages, 4);

  std::vector<PageHandle> pins;
  for (uint64_t page = 0; page < 4; ++page) {
    auto handle = fixture.buffer->Pin(page);
    ASSERT_TRUE(handle.ok());
    pins.push_back(std::move(*handle));
  }
  // Every frame pinned: the fifth distinct page must fail cleanly, not
  // block, not evict a pinned frame.
  const auto exhausted = fixture.buffer->Pin(5);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kFailedPrecondition);
  // A pinned page is still re-pinnable (shared pin, no new frame).
  const auto repin = fixture.buffer->Pin(2);
  EXPECT_TRUE(repin.ok());

  pins.clear();  // Unpin everything; the pool must recover.
  const auto after = fixture.buffer->Pin(5);
  EXPECT_TRUE(after.ok());
}

TEST(BufferStressTest, OutOfRangeAndCorruptPagesFailUnderConcurrency) {
  constexpr uint64_t kNumPages = 8;
  Fixture fixture(kNumPages, 4);
  std::atomic<int> wrong_code{0};
  RunTogether(4, [&](int) {
    for (int i = 0; i < 100; ++i) {
      const auto bad = fixture.buffer->Pin(kNumPages + 1);
      if (bad.ok() || bad.status().code() != StatusCode::kOutOfRange) {
        ++wrong_code;
      }
      const auto good = fixture.buffer->Pin(static_cast<uint64_t>(i) % kNumPages);
      if (!good.ok()) ++wrong_code;
    }
  });
  EXPECT_EQ(wrong_code.load(), 0);
}

TEST(BufferStressTest, ConcurrentPinsOfOneColdPageReadItOnce) {
  // 8 threads pin the same cold page at once: one of them reads it, the
  // others wait for that read (or arrive after it) and hit. Each round
  // races on a page no round has read, so most rounds see waiters.
  constexpr uint64_t kNumPages = 16;
  constexpr size_t kPoolPages = 4;
  constexpr int kThreads = 8;
  Fixture fixture(kNumPages, kPoolPages);
  std::atomic<int> failed_pins{0};
  std::atomic<int> bad_bytes{0};
  for (uint64_t page = 0; page < kNumPages; ++page) {
    const BufferStats before = fixture.buffer->stats();
    RunTogether(kThreads, [&](int) {
      const auto handle = fixture.buffer->Pin(page);
      if (!handle.ok()) {
        ++failed_pins;
        return;
      }
      for (size_t i = 0; i < handle->payload_len(); ++i) {
        if (handle->payload()[i] != ExpectedByte(page, i)) ++bad_bytes;
      }
      if (handle->payload_len() != PagePayloadCapacity(kPageBytes)) ++bad_bytes;
    });
    const BufferStats after = fixture.buffer->stats();
    EXPECT_EQ(after.misses - before.misses, 1u) << "page " << page;
    EXPECT_EQ(after.hits - before.hits, static_cast<uint64_t>(kThreads - 1))
        << "page " << page;
  }
  EXPECT_EQ(failed_pins.load(), 0);
  EXPECT_EQ(bad_bytes.load(), 0);
  EXPECT_EQ(fixture.buffer->stats().evictions, kNumPages - kPoolPages);
}

TEST(BufferStressTest, ConcurrentPinsOfOneCorruptPageEachFailAndFreeTheFrame) {
  // The same on a page whose checksum no longer matches, on a one-frame
  // pool: every pin is DataLoss, a failed read counts as no miss, and the
  // frame is free again afterwards, so a good page still pins.
  constexpr uint64_t kNumPages = 8;
  constexpr uint64_t kPage = 5;
  constexpr int kThreads = 8;
  Fixture fixture(kNumPages, 1);
  {
    // Flip one payload bit on disk; the open PageFile reads the new bytes.
    std::fstream file(fixture.path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const auto at = static_cast<std::streamoff>(kPage * kPageBytes + kPageHeaderBytes + 9);
    file.seekg(at);
    const char byte = static_cast<char>(file.get() ^ 0x10);
    file.seekp(at);
    file.put(byte);
    ASSERT_TRUE(file.good());
  }
  std::atomic<int> wrong_code{0};
  RunTogether(kThreads, [&](int) {
    const auto handle = fixture.buffer->Pin(kPage);
    if (handle.ok() || handle.status().code() != StatusCode::kDataLoss) ++wrong_code;
  });
  EXPECT_EQ(wrong_code.load(), 0);
  BufferStats stats = fixture.buffer->stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);

  const auto good = fixture.buffer->Pin(kPage + 1);
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_EQ(good->payload()[0], ExpectedByte(kPage + 1, 0));
  stats = fixture.buffer->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
