// Unit suite of the storage tier's byte and page codecs: varint /
// fixed-width / delta round trips, ByteReader's rejection of truncated
// or malformed input, CRC32 properties (the sliced kernel against the
// bytewise table), page frame seal/verify, the meta and posting-list
// codecs of format 4, and Vocabulary::Restore bit-identity.
#include "storage/page.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "storage/store_format.h"
#include "text/vocabulary.h"

namespace grouplink {
namespace storage {
namespace {

TEST(ByteCodecTest, VarintRoundTripsBoundaryValues) {
  const std::vector<uint64_t> values = {
      0,       1,        127,        128,        16383,
      16384,   (1u << 21) - 1,       1ull << 32, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<uint64_t>::max()};
  std::vector<uint8_t> bytes;
  for (const uint64_t v : values) PutVarint(bytes, v);
  ByteReader reader(bytes.data(), bytes.size());
  for (const uint64_t v : values) {
    const auto decoded = reader.ReadVarint();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, FixedWidthAndDoubleAreBitExact) {
  std::vector<uint8_t> bytes;
  PutFixed32(bytes, 0xdeadbeefu);
  PutFixed64(bytes, 0x0123456789abcdefull);
  const double values[] = {0.0, -0.0, 1.5, -3.25e300, 5e-324,
                           std::numeric_limits<double>::infinity()};
  for (const double v : values) PutDouble(bytes, v);
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(*reader.ReadFixed32(), 0xdeadbeefu);
  EXPECT_EQ(*reader.ReadFixed64(), 0x0123456789abcdefull);
  for (const double v : values) {
    const auto decoded = reader.ReadDouble();
    ASSERT_TRUE(decoded.ok());
    // Bit comparison, not value comparison: -0.0 must stay -0.0.
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &*decoded, sizeof(v));
    EXPECT_EQ(got_bits, want_bits);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, StringRoundTrip) {
  std::vector<uint8_t> bytes;
  PutString(bytes, "");
  PutString(bytes, std::string("with\0nul", 8));
  ByteReader reader(bytes.data(), bytes.size());
  EXPECT_EQ(*reader.ReadString(), "");
  EXPECT_EQ(*reader.ReadString(), std::string("with\0nul", 8));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, TruncatedAndMalformedInputIsDataLoss) {
  std::vector<uint8_t> bytes;
  PutVarint(bytes, 300);
  {
    ByteReader truncated(bytes.data(), 1);  // Continuation byte cut off.
    EXPECT_EQ(truncated.ReadVarint().status().code(), StatusCode::kDataLoss);
  }
  {
    ByteReader empty(bytes.data(), 0);
    EXPECT_EQ(empty.ReadFixed32().status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(empty.ReadDouble().status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(empty.ReadString().status().code(), StatusCode::kDataLoss);
  }
  {
    // A string whose claimed length exceeds the remaining bytes.
    std::vector<uint8_t> lying;
    PutVarint(lying, 1000);
    lying.push_back('x');
    ByteReader reader(lying.data(), lying.size());
    EXPECT_EQ(reader.ReadString().status().code(), StatusCode::kDataLoss);
  }
}

TEST(Crc32Test, DetectsEveryFlippedBitInASmallFrame) {
  std::vector<uint8_t> data(64, 0xa5);
  const uint32_t clean = Crc32(data.data(), data.size());
  for (size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(data.data(), data.size()), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(Crc32(data.data(), data.size()), clean);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const std::string text = "group linkage storage tier";
  const auto* bytes = reinterpret_cast<const uint8_t*>(text.data());
  const uint32_t whole = Crc32(bytes, text.size());
  const uint32_t chained = Crc32(bytes + 10, text.size() - 10, Crc32(bytes, 10));
  EXPECT_EQ(chained, whole);
}

/// The one-byte-per-step CRC-32 the sliced kernel must equal.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedKernelEqualsTheBytewiseTable) {
  // Every length through two 1 KiB pages, from unaligned starts and under
  // chained seeds, so every tail length meets every alignment.
  std::vector<uint8_t> data(2100 + 8);
  uint32_t state = 12345;
  for (uint8_t& byte : data) {
    state = state * 1103515245u + 12345u;
    byte = static_cast<uint8_t>(state >> 16);
  }
  EXPECT_EQ(Crc32(data.data(), 0), 0u);
  EXPECT_EQ(BytewiseCrc32(reinterpret_cast<const uint8_t*>("123456789"), 9, 0),
            0xCBF43926u);  // The IEEE check value.
  for (const size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    for (const uint32_t seed : {0u, 1u, 0xdeadbeefu, 0xFFFFFFFFu}) {
      for (size_t length = 0; length <= 2100; ++length) {
        const uint8_t* at = data.data() + offset;
        ASSERT_EQ(Crc32(at, length, seed), BytewiseCrc32(at, length, seed))
            << "offset " << offset << " seed " << seed << " length " << length;
      }
    }
  }
}

TEST(PageFrameTest, SealThenVerifyRoundTrips) {
  const uint32_t page_bytes = kMinPageBytes;
  std::vector<uint8_t> frame(page_bytes, 0);
  const std::string payload = "payload bytes";
  std::memcpy(frame.data() + kPageHeaderBytes, payload.data(), payload.size());
  SealPageFrame(7, PageType::kSegment, static_cast<uint32_t>(payload.size()),
                frame.data(), page_bytes);
  const auto view = VerifyPageFrame(frame.data(), page_bytes, 7);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->type, PageType::kSegment);
  EXPECT_EQ(view->payload_len, payload.size());
  EXPECT_EQ(std::memcmp(view->payload, payload.data(), payload.size()), 0);
}

TEST(PageFrameTest, VerifyRejectsCorruptionWrongIdAndBadBounds) {
  const uint32_t page_bytes = kMinPageBytes;
  std::vector<uint8_t> frame(page_bytes, 0);
  SealPageFrame(3, PageType::kSegment, 10, frame.data(), page_bytes);

  // Wrong expected page id: a page read from the wrong offset.
  EXPECT_EQ(VerifyPageFrame(frame.data(), page_bytes, 4).status().code(),
            StatusCode::kDataLoss);

  // Any single flipped bit — in the payload, the header fields, or the
  // zero padding — must fail verification.
  for (const size_t offset : {4u, 9u, 13u, 20u, page_bytes - 1}) {
    frame[offset] ^= 0x40;
    EXPECT_EQ(VerifyPageFrame(frame.data(), page_bytes, 3).status().code(),
              StatusCode::kDataLoss)
        << "offset " << offset;
    frame[offset] ^= 0x40;
  }
  EXPECT_TRUE(VerifyPageFrame(frame.data(), page_bytes, 3).ok());

  // A payload length beyond capacity with a matching checksum: the
  // bounds check itself must reject it. SealPageFrame refuses to build
  // such a frame, so forge the field and re-checksum by hand.
  const uint32_t lying_len = page_bytes;
  frame[12] = static_cast<uint8_t>(lying_len);
  frame[13] = static_cast<uint8_t>(lying_len >> 8);
  frame[14] = static_cast<uint8_t>(lying_len >> 16);
  frame[15] = static_cast<uint8_t>(lying_len >> 24);
  const uint32_t crc = Crc32(frame.data() + 4, page_bytes - 4);
  frame[0] = static_cast<uint8_t>(crc);
  frame[1] = static_cast<uint8_t>(crc >> 8);
  frame[2] = static_cast<uint8_t>(crc >> 16);
  frame[3] = static_cast<uint8_t>(crc >> 24);
  EXPECT_EQ(VerifyPageFrame(frame.data(), page_bytes, 3).status().code(),
            StatusCode::kDataLoss);
}

TEST(VocabularyRestoreTest, RestoredVocabularyIsBitIdentical) {
  Vocabulary original;
  original.AddDocument({"rakesh", "agrawal"});
  original.AddDocument({"data", "mining", "agrawal"});
  original.AddDocument({"data", "linkage"});

  std::vector<std::string> tokens;
  std::vector<int64_t> dfs;
  for (size_t id = 0; id < original.size(); ++id) {
    tokens.push_back(original.TokenOf(static_cast<int32_t>(id)));
    dfs.push_back(original.DocumentFrequencyOf(static_cast<int32_t>(id)));
  }
  const Vocabulary restored =
      Vocabulary::Restore(tokens, dfs, original.num_documents());

  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.num_documents(), original.num_documents());
  for (size_t id = 0; id < original.size(); ++id) {
    const int32_t i = static_cast<int32_t>(id);
    EXPECT_EQ(restored.TokenOf(i), original.TokenOf(i));
    EXPECT_EQ(restored.DocumentFrequencyOf(i), original.DocumentFrequencyOf(i));
    // IDF must be the same *bits* (it feeds TF-IDF weights).
    EXPECT_EQ(restored.IdfOf(i), original.IdfOf(i));
    EXPECT_EQ(restored.GetId(original.TokenOf(i)), i);
  }
  EXPECT_EQ(restored.GetId("never-seen"), Vocabulary::kUnknownToken);
}

TEST(MetaCodecTest, MetaRoundTripsEveryField) {
  MetaData meta;
  meta.config.theta = 0.375;
  meta.config.group_threshold = 0.21;
  meta.config.num_threads = 4;
  meta.config.use_lower_bound_accept = false;
  meta.config.max_candidate_pairs = 123456789;
  meta.epoch = 17;
  meta.num_records = 5;
  meta.num_groups = 3;
  meta.num_alive_groups = 2;
  meta.record_group = {0, 0, 1, 2, 2};
  meta.record_norm = {1.5, 0.0, 1.0 / 3.0, 2.75, 0.0};
  meta.group_alive = {1, 1, 0};
  meta.group_labels = {"ullman", "garcia-molina", ""};
  // Group 0 lists its records descending: group order is kept as is.
  meta.group_records = {{1, 0}, {2}, {3, 4}};
  meta.linked_pairs = {{0, 1}};
  meta.cluster_labels = {0, 0, 2};

  std::vector<uint8_t> bytes;
  EncodeMeta(meta, bytes);
  MetaData decoded;
  ASSERT_TRUE(DecodeMeta(bytes, &decoded).ok());

  EXPECT_EQ(decoded.config.theta, meta.config.theta);
  EXPECT_EQ(decoded.config.group_threshold, meta.config.group_threshold);
  EXPECT_EQ(decoded.config.num_threads, meta.config.num_threads);
  EXPECT_EQ(decoded.config.use_lower_bound_accept,
            meta.config.use_lower_bound_accept);
  EXPECT_EQ(decoded.config.max_candidate_pairs, meta.config.max_candidate_pairs);
  EXPECT_EQ(decoded.epoch, meta.epoch);
  EXPECT_EQ(decoded.num_records, meta.num_records);
  EXPECT_EQ(decoded.record_group, meta.record_group);
  ASSERT_EQ(decoded.record_norm.size(), meta.record_norm.size());
  for (size_t r = 0; r < meta.record_norm.size(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded.record_norm[r]),
              std::bit_cast<uint64_t>(meta.record_norm[r]));
  }
  EXPECT_EQ(decoded.group_alive, meta.group_alive);
  EXPECT_EQ(decoded.group_labels, meta.group_labels);
  EXPECT_EQ(decoded.group_records, meta.group_records);
  EXPECT_EQ(decoded.linked_pairs, meta.linked_pairs);
  EXPECT_EQ(decoded.cluster_labels, meta.cluster_labels);

  // Trailing garbage after a well-formed meta must be rejected.
  bytes.push_back(0);
  EXPECT_EQ(DecodeMeta(bytes, &decoded).code(), StatusCode::kDataLoss);
}

/// Two groups over five records; group 1 lists its records descending.
MetaData TwoGroupMeta() {
  MetaData meta;
  meta.num_records = 5;
  meta.num_groups = 2;
  meta.num_alive_groups = 2;
  meta.record_group = {0, 0, 1, 1, 1};
  meta.record_norm = {1.0, 1.0, 1.0, 1.0, 1.0};
  meta.group_alive = {1, 1};
  meta.group_labels = {"a", "b"};
  meta.group_records = {{0, 1}, {4, 3, 2}};
  meta.cluster_labels = {0, 1};
  return meta;
}

StatusCode DecodeMetaCode(const MetaData& meta) {
  std::vector<uint8_t> bytes;
  EncodeMeta(meta, bytes);
  MetaData decoded;
  return DecodeMeta(bytes, &decoded).code();
}

TEST(MetaCodecTest, DescendingGroupRecordsRoundTrip) {
  const MetaData meta = TwoGroupMeta();
  std::vector<uint8_t> bytes;
  EncodeMeta(meta, bytes);
  MetaData decoded;
  ASSERT_TRUE(DecodeMeta(bytes, &decoded).ok());
  EXPECT_EQ(decoded.group_records, meta.group_records);
}

TEST(MetaCodecTest, GroupRecordOutOfRangeOrRepeatedIsDataLoss) {
  // A well-formed encoding whose group list names record 9 of 5: the
  // paged reader would index the record arrays past their end.
  MetaData meta = TwoGroupMeta();
  meta.group_records[1] = {4, 3, 9};
  EXPECT_EQ(DecodeMetaCode(meta), StatusCode::kDataLoss);
  // A record listed twice, within a group and across groups.
  meta.group_records[1] = {4, 3, 3};
  EXPECT_EQ(DecodeMetaCode(meta), StatusCode::kDataLoss);
  meta.group_records[1] = {4, 3, 1};
  EXPECT_EQ(DecodeMetaCode(meta), StatusCode::kDataLoss);
  meta.group_records[1] = {4, 3, 2};  // The same meta, well formed, decodes.
  EXPECT_EQ(DecodeMetaCode(meta), StatusCode::kOk);
}

TEST(MetaCodecTest, NormCountOtherThanTheRecordCountIsDataLoss) {
  MetaData meta = TwoGroupMeta();
  meta.record_norm.pop_back();
  EXPECT_EQ(DecodeMetaCode(meta), StatusCode::kDataLoss);
  meta.record_norm.assign(6, 1.0);
  EXPECT_EQ(DecodeMetaCode(meta), StatusCode::kDataLoss);
}

// Records 0, 3, 4 and 130 (the last of 131) with tfs 1, 2, 1 and 300.
std::vector<StoredPosting> SamplePostings() {
  return {{0, 1}, {3, 2}, {4, 1}, {130, 300}};
}

std::vector<double> SampleNorms(size_t num_records) {
  std::vector<double> norms(num_records);
  for (size_t r = 0; r < num_records; ++r) norms[r] = 0.5 + 1.0 / static_cast<double>(r + 3);
  return norms;
}

TEST(PostingListCodecTest, RoundTripsRecordsAndRebuildsWeightBits) {
  constexpr double kIdf = 2.0794415416798357;  // ln(8) + 1, not a round number.
  const std::vector<double> norms = SampleNorms(131);
  for (const std::vector<StoredPosting>& list :
       {std::vector<StoredPosting>{}, SamplePostings()}) {
    std::vector<uint8_t> bytes;
    EncodePostingList(list, bytes);
    PostingList decoded = {{9, 9.0}};  // Appended to, not overwritten.
    ASSERT_TRUE(DecodePostingList(bytes.data(), bytes.size(), kIdf, norms, &decoded).ok());
    ASSERT_EQ(decoded.size(), list.size() + 1);
    EXPECT_EQ(decoded[0], (WeightedPosting{9, 9.0}));
    for (size_t i = 0; i < list.size(); ++i) {
      const size_t r = static_cast<size_t>(list[i].record);
      EXPECT_EQ(decoded[i + 1].record, list[i].record);
      // The Vectorize-then-L2Normalize expression, bit for bit.
      const double want = (static_cast<double>(list[i].tf) * kIdf) / norms[r];
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i + 1].weight),
                std::bit_cast<uint64_t>(want));
    }
    EXPECT_LE(list.size(), bytes.size());  // At most one entry per byte.
  }
  // One byte per entry of tf 1 and a small gap; a tf above 1 adds its own.
  std::vector<uint8_t> bytes;
  EncodePostingList(SamplePostings(), bytes);
  EXPECT_EQ(bytes.size(), 1u + 2u + 1u + 2u + 2u);
}

TEST(PostingListCodecTest, MalformedListsAreDataLoss) {
  const std::vector<double> norms = SampleNorms(131);
  std::vector<uint8_t> clean;
  EncodePostingList(SamplePostings(), clean);
  PostingList out;
  const auto decode = [&](const std::vector<uint8_t>& bytes,
                          std::span<const double> record_norm) {
    out.clear();
    return DecodePostingList(bytes.data(), bytes.size(), 1.5, record_norm, &out).code();
  };
  ASSERT_EQ(decode(clean, norms), StatusCode::kOk);

  // Truncated: inside the tf of record 3, and inside the tf of the last.
  for (const size_t keep : {size_t{2}, clean.size() - 1}) {
    const std::vector<uint8_t> cut(clean.begin(), clean.begin() + static_cast<long>(keep));
    EXPECT_EQ(decode(cut, norms), StatusCode::kDataLoss) << "kept " << keep;
  }

  // The tf flag set on a tf below 2.
  for (const uint64_t tf : {uint64_t{0}, uint64_t{1}}) {
    std::vector<uint8_t> flagged;
    PutVarint(flagged, 5u << 1 | 1u);
    PutVarint(flagged, tf);
    EXPECT_EQ(decode(flagged, norms), StatusCode::kDataLoss) << "tf " << tf;
  }

  // A non-ascending id: a zero gap after the first entry repeats an id.
  std::vector<uint8_t> repeated;
  PutVarint(repeated, 5u << 1);
  PutVarint(repeated, 0u << 1);
  EXPECT_EQ(decode(repeated, norms), StatusCode::kDataLoss);
  // A trailing zero byte after a well-formed list is such an entry too.
  std::vector<uint8_t> trailing = clean;
  trailing.push_back(0);
  EXPECT_EQ(decode(trailing, norms), StatusCode::kDataLoss);

  // An id at or past the record count: record 130 of 130, and of 0.
  EXPECT_EQ(decode(clean, std::span<const double>(norms).first(130)), StatusCode::kDataLoss);
  EXPECT_EQ(decode(clean, {}), StatusCode::kDataLoss);
  // A gap so large the running id would wrap.
  std::vector<uint8_t> huge;
  PutVarint(huge, 3u << 1);
  PutVarint(huge, std::numeric_limits<uint64_t>::max() & ~uint64_t{1});
  EXPECT_EQ(decode(huge, norms), StatusCode::kDataLoss);

  // A posting whose record has a norm of 0, a negative norm or NaN.
  for (const double bad : {0.0, -0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> broken = norms;
    broken[4] = bad;
    EXPECT_EQ(decode(clean, broken), StatusCode::kDataLoss) << "norm " << bad;
  }
  // A zero norm on a record the list does not name is fine.
  std::vector<double> unlisted = norms;
  unlisted[5] = 0.0;
  EXPECT_EQ(decode(clean, unlisted), StatusCode::kOk);
}

TEST(PostingListCodecTest, DirectoryCountMustMatchTheVocabulary) {
  // Three lists of 9, 0 and 18 bytes: the entry count must equal the
  // epoch vocabulary's size, and the lengths must sum to the segment.
  std::vector<uint8_t> directory;
  PutVarint(directory, 3);
  for (const uint64_t length : {9u, 0u, 18u}) PutVarint(directory, length);
  std::vector<uint64_t> offsets;
  ASSERT_TRUE(DecodeDirectory(directory, 3, 27, &offsets).ok());
  EXPECT_EQ(offsets, (std::vector<uint64_t>{0, 9, 9, 27}));
  EXPECT_EQ(DecodeDirectory(directory, 2, 27, &offsets).code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeDirectory(directory, 4, 27, &offsets).code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeDirectory(directory, 3, 26, &offsets).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
