// Buffer-manager concurrency stress suite, registered in the TSan CI
// job: many threads hammering a 4-frame pool with pins, overlapping
// segment reads, and deliberate pool exhaustion. Every read must return
// verified bytes identical to the file, stats must balance, and a
// fully-pinned pool must fail cleanly with FailedPrecondition rather
// than deadlock.
#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/page.h"
#include "storage/page_file.h"

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
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
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
  }
  for (std::thread& thread : threads) thread.join();
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
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
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
  }
  for (std::thread& thread : threads) thread.join();
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
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        const auto bad = fixture.buffer->Pin(kNumPages + 1);
        if (bad.ok() || bad.status().code() != StatusCode::kOutOfRange) {
          ++wrong_code;
        }
        const auto good = fixture.buffer->Pin(static_cast<uint64_t>(i) % kNumPages);
        if (!good.ok()) ++wrong_code;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_code.load(), 0);
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
