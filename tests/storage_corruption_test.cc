// Corruption suite: any bit flip, anywhere in a persisted store — header
// page, dictionary pages, posting pages, the seal, the checksum fields
// themselves, even the zero padding — must turn Load into a clean
// Status::DataLoss. A corrupted store must never decode into a silently
// different link set. Truncation at any page boundary or mid-page is
// equally fatal.
#include "storage/snapshot_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"
#include "storage/store_format.h"
#include "storage/stored_corpus.h"

namespace grouplink {
namespace storage {
namespace {

LinkageConfig TestConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

Dataset MakeCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 5;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return GenerateBibliographic(config);
}

std::string StorePath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GL_CHECK(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GL_CHECK(out.good()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  GL_CHECK(out.good()) << path;
}

class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Dataset dataset = MakeCorpus(15, 29);
    auto linker = IncrementalLinker::Create(dataset, TestConfig());
    GL_CHECK(linker.ok());
    snapshot_ = CorpusSnapshot::Capture(*linker);
    path_ = StorePath("corruption.glsnap");
    StorageOptions options;
    options.page_bytes = 512;
    GL_CHECK(SnapshotStore::Persist(*snapshot_, path_, options).ok());
    clean_ = ReadAll(path_);
    GL_CHECK_EQ(clean_.size() % 512, 0u);
  }

  void TearDown() override { GL_CHECK(RemoveFile(path_).ok()); }

  /// Loads the store with one bit flipped at `byte`:`bit` and demands a
  /// clean DataLoss.
  void ExpectFlipIsFatal(size_t byte, int bit) {
    std::vector<uint8_t> bytes = clean_;
    bytes[byte] ^= static_cast<uint8_t>(1u << bit);
    WriteAll(path_, bytes);
    const auto loaded = SnapshotStore::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << byte << " bit " << bit
                              << " silently decoded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "byte " << byte << " bit " << bit << ": "
        << loaded.status().message();
  }

  std::shared_ptr<const CorpusSnapshot> snapshot_;
  std::string path_;
  std::vector<uint8_t> clean_;
};

TEST_F(StorageCorruptionTest, CleanStoreLoadsAsAControl) {
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ((*loaded)->epoch(), snapshot_->epoch());
  EXPECT_EQ((*loaded)->linked_pairs(), snapshot_->linked_pairs());
}

TEST_F(StorageCorruptionTest, HeaderPageFlipsAreDataLoss) {
  // Magic, version, page_bytes, num_pages, the segment directory, the
  // header checksum itself, and the header padding.
  for (const size_t byte : {0u, 4u, 16u, 18u, 24u, 28u, 36u, 60u, 100u, 511u}) {
    ExpectFlipIsFatal(byte, static_cast<int>(byte) % 8);
  }
}

TEST_F(StorageCorruptionTest, DictionaryAndPostingPageFlipsAreDataLoss) {
  // Pages 1..num_pages-2 hold the segments (meta, dictionaries, posting
  // lists, record token ids). Flip a bit in the payload, the page
  // header, and the padding of several of them.
  const size_t num_pages = clean_.size() / 512;
  ASSERT_GT(num_pages, 3u);
  for (size_t page = 1; page + 1 < num_pages; page += (num_pages > 9 ? 3 : 1)) {
    const size_t base = page * 512;
    ExpectFlipIsFatal(base + 0, 7);    // Stored checksum.
    ExpectFlipIsFatal(base + 5, 2);    // Page id field.
    ExpectFlipIsFatal(base + 40, 1);   // Payload.
    ExpectFlipIsFatal(base + 511, 6);  // Final padding/payload byte.
  }
}

TEST_F(StorageCorruptionTest, SealPageFlipsAreDataLoss) {
  const size_t seal_base = clean_.size() - 512;
  ExpectFlipIsFatal(seal_base + 0, 0);   // Seal checksum.
  ExpectFlipIsFatal(seal_base + 16, 3);  // Seal magic.
  ExpectFlipIsFatal(seal_base + 24, 5);  // Sealed num_pages.
  ExpectFlipIsFatal(seal_base + 500, 4); // Seal padding.
}

TEST_F(StorageCorruptionTest, EveryStridedBitFlipAcrossTheFileIsFatal) {
  // A pseudo-exhaustive sweep: one flipped bit every 97 bytes, rotating
  // through bit positions, covering every page and every field class the
  // targeted tests above might have missed — the weighted postings
  // segment, the only copy of the TF-IDF weights, included.
  auto file = PageFile::Open(path_);
  ASSERT_TRUE(file.ok());
  const auto info = ReadStoreInfo(**file);
  ASSERT_TRUE(info.ok());
  const size_t postings_begin = info->segments[kPostings].first_page * 512;
  const size_t postings_end = postings_begin + info->PagesOf(kPostings) * 512;
  int flips = 0;
  int postings_flips = 0;
  for (size_t byte = 0; byte < clean_.size(); byte += 97) {
    ExpectFlipIsFatal(byte, static_cast<int>((byte / 97) % 8));
    ++flips;
    if (byte >= postings_begin && byte < postings_end) ++postings_flips;
  }
  EXPECT_GT(flips, 20);
  EXPECT_GT(postings_flips, 0);
}

TEST_F(StorageCorruptionTest, StoreOfTheFormerFormatVersionIsDataLoss) {
  // Stores of the former versions must fail cleanly, not be read as the
  // current layout: version 1 (unweighted postings plus a per-record
  // vectors segment), version 2 (the deleted edge-join threshold in the
  // config metadata), version 3 (raw weight bits in every posting, no
  // record norms) and version 4 (a per-record index token set segment and
  // a tombstone bitmap). Set the header's version field and re-seal the
  // header page, so the version is the only thing wrong.
  for (const uint8_t version : {uint8_t{1}, uint8_t{2}, uint8_t{3}, uint8_t{4}}) {
    std::vector<uint8_t> bytes = clean_;
    const size_t version_at = kPageHeaderBytes + sizeof(kFileMagic);
    bytes[version_at] = version;
    bytes[version_at + 1] = bytes[version_at + 2] = bytes[version_at + 3] = 0;
    const uint32_t payload_len = static_cast<uint32_t>(bytes[12]) |
                                 static_cast<uint32_t>(bytes[13]) << 8 |
                                 static_cast<uint32_t>(bytes[14]) << 16 |
                                 static_cast<uint32_t>(bytes[15]) << 24;
    SealPageFrame(0, PageType::kHeader, payload_len, bytes.data(), 512);
    WriteAll(path_, bytes);
    const auto loaded = SnapshotStore::Load(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("unsupported store version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status().message();
    const auto opened = StoredCorpus::Open(path_);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  }
}

TEST_F(StorageCorruptionTest, RecordTokenIdsOutOfTokenOrderAreDataLoss) {
  // Every checksum holds, but one record's token ids are reversed: the
  // writer reads each run of ids as one token and its length as the tf, so
  // ids out of token-string order must not load.
  auto file = PageFile::Open(path_);
  ASSERT_TRUE(file.ok());
  const auto info = ReadStoreInfo(**file);
  ASSERT_TRUE(info.ok());
  const auto segment = ReadWholeSegment(**file, *info, kRawTokens);
  ASSERT_TRUE(segment.ok());

  ByteReader reader(segment->data(), segment->size());
  std::vector<std::vector<int32_t>> records(static_cast<size_t>(*reader.ReadCount()));
  for (std::vector<int32_t>& ids : records) {
    ids.resize(static_cast<size_t>(*reader.ReadCount()));
    for (int32_t& id : ids) id = static_cast<int32_t>(*reader.ReadCount());
  }
  ASSERT_TRUE(reader.AtEnd());
  const auto reversed = std::find_if(records.begin(), records.end(), [](const auto& ids) {
    return !ids.empty() && ids.front() != ids.back();
  });
  ASSERT_NE(reversed, records.end());
  std::reverse(reversed->begin(), reversed->end());
  // The same varints in another order: the segment keeps its length, so
  // only its pages change.
  std::vector<uint8_t> rewritten;
  PutVarint(rewritten, records.size());
  for (const std::vector<int32_t>& ids : records) {
    PutVarint(rewritten, ids.size());
    for (const int32_t id : ids) PutVarint(rewritten, static_cast<uint64_t>(id));
  }
  ASSERT_EQ(rewritten.size(), segment->size());

  std::vector<uint8_t> bytes = clean_;
  const uint64_t cap = PagePayloadCapacity(512);
  uint64_t page = info->segments[kRawTokens].first_page;
  for (uint64_t done = 0; done < rewritten.size(); ++page) {
    const uint64_t take = std::min<uint64_t>(cap, rewritten.size() - done);
    uint8_t* frame = bytes.data() + page * 512;
    std::memcpy(frame + kPageHeaderBytes, rewritten.data() + done, take);
    SealPageFrame(static_cast<uint32_t>(page), PageType::kSegment,
                  static_cast<uint32_t>(take), frame, 512);
    done += take;
  }
  WriteAll(path_, bytes);
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("out of token order"), std::string::npos)
      << loaded.status().message();
}

TEST_F(StorageCorruptionTest, TruncationIsDataLoss) {
  // Dropping the seal page, cutting mid-page, a single-page stub, and an
  // empty file must all fail cleanly.
  for (const size_t keep :
       {clean_.size() - 512, clean_.size() - 100, size_t{512}, size_t{0}}) {
    std::vector<uint8_t> bytes(clean_.begin(),
                               clean_.begin() + static_cast<long>(keep));
    WriteAll(path_, bytes);
    const auto loaded = SnapshotStore::Load(path_);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "kept " << keep << " bytes: " << loaded.status().message();
  }
}

TEST_F(StorageCorruptionTest, ExtraTrailingPagesAreDataLoss) {
  // A store with garbage appended after the seal: the sealed page count
  // no longer matches the file size.
  std::vector<uint8_t> bytes = clean_;
  bytes.insert(bytes.end(), 512, 0xab);
  WriteAll(path_, bytes);
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageCorruptionTest, ForeignFileIsDataLossNotACrash) {
  // A well-formed-looking file of the right granularity but alien
  // content (e.g. another tool's output dropped at the store path).
  std::vector<uint8_t> alien(4096, 0x5a);
  WriteAll(path_, alien);
  const auto loaded = SnapshotStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
