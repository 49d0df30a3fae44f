#ifndef GROUPLINK_STORAGE_STORE_FORMAT_H_
#define GROUPLINK_STORAGE_STORE_FORMAT_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/linkage_engine.h"
#include "index/weighted_postings.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "text/vocabulary.h"

namespace grouplink {
namespace storage {

/// Internal layout contract shared by SnapshotStore (persist + full
/// recovery) and StoredCorpus (paged probes). Not a public API.
///
/// A store file is: page 0 = header, then each segment's pages (every
/// segment starts on a fresh page; a segment is a logical byte stream
/// filling each page's payload to capacity except possibly the last),
/// then the seal page — written last, so its presence proves the persist
/// ran to completion.

enum SegmentId : uint32_t {
  /// Engine config, epoch, group membership/liveness/labels, record ->
  /// group map, per-record norms, tombstone bitmap, link pairs, cluster
  /// labels.
  kMeta = 0,
  /// Index vocabulary: the one token dictionary holding strings. Token
  /// id i is the i-th entry (string + document frequency).
  kDictIndex = 1,
  /// Epoch vocabulary, dictionary-encoded against kDictIndex: every
  /// entry is an index-vocab id reference + df — no string is stored
  /// twice.
  kDictEpoch = 2,
  /// Per-epoch-token byte length of each weighted posting list in
  /// kPostings (prefix sums give random access).
  kPostingsDir = 3,
  /// Weighted posting lists, one per epoch token id, ascending by record.
  /// Each entry is one varint (record delta << 1) | (tf > 1), then a
  /// varint tf only when tf > 1; the first delta is from record 0. The
  /// weight is rebuilt on decode from tf, the token's epoch IDF and the
  /// record's norm (kMeta), bit for bit the in-RAM one. The only copy of
  /// the weights: recovery rebuilds the per-record vectors by transposing
  /// the decoded lists.
  kPostings = 4,
  /// Per-record sorted index token sets as passed to
  /// InvertedIndex::AddDocument — including entries of tombstoned,
  /// not-yet-compacted documents, so recovery rebuilds the exact index.
  kDocs = 5,
  /// Per-record raw token occurrences (index-vocab ids, original order,
  /// repeats kept) — what the warm-restart writer rebuild ingests.
  kRawTokens = 6,
  kNumSegments = 7,
};

/// Decoded header + seal: the structural directory of one store file.
struct StoreInfo {
  struct Segment {
    uint64_t first_page = 0;
    uint64_t length = 0;  // Logical byte length.
  };
  uint32_t page_bytes = 0;
  uint64_t num_pages = 0;
  std::array<Segment, kNumSegments> segments;

  [[nodiscard]] uint64_t PagesOf(SegmentId id) const {
    const uint64_t cap = PagePayloadCapacity(page_bytes);
    return (segments[id].length + cap - 1) / cap;
  }
};

/// Builds the header-page payload for `info`.
[[nodiscard]] std::vector<uint8_t> EncodeHeaderPayload(const StoreInfo& info);
/// Builds the seal-page payload (`epoch` is informational).
[[nodiscard]] std::vector<uint8_t> EncodeSealPayload(const StoreInfo& info,
                                                     int64_t epoch);

/// Reads and fully validates the structural shell of a store: sniffs the
/// page size, checksum-verifies the header and seal pages, and
/// cross-checks the directory against the file size. Every corruption
/// here surfaces Status::DataLoss (a missing file is NotFound).
[[nodiscard]] Result<StoreInfo> ReadStoreInfo(const PageFile& file);

/// Reads one whole segment through direct page reads, checksum-verifying
/// every page (used by full recovery, which scans the file anyway).
[[nodiscard]] Result<std::vector<uint8_t>> ReadWholeSegment(const PageFile& file,
                                                            const StoreInfo& info,
                                                            SegmentId id);

// --- Segment codecs. Encode/Decode pairs must mirror each other
// --- field-for-field; the differential suite holds them to bit-identity.

/// Decoded kMeta segment.
struct MetaData {
  LinkageConfig config;
  int64_t epoch = 0;
  int64_t num_records = 0;
  int64_t num_groups = 0;
  int32_t num_alive_groups = 0;
  std::vector<int32_t> record_group;
  /// Per record, the L2 norm of its unnormalized TF-IDF vector, which its
  /// posting weights divide by (raw IEEE-754 bits); 0 for a record with
  /// no postings.
  std::vector<double> record_norm;
  std::vector<char> record_removed;  // Index tombstones, per record.
  std::vector<char> group_alive;
  std::vector<std::string> group_labels;
  std::vector<std::vector<int32_t>> group_records;
  std::vector<std::pair<int32_t, int32_t>> linked_pairs;
  std::vector<size_t> cluster_labels;
};

void EncodeMeta(const MetaData& meta, std::vector<uint8_t>& out);
[[nodiscard]] Status DecodeMeta(const std::vector<uint8_t>& bytes, MetaData* out);

void EncodeIndexVocab(const Vocabulary& vocab, std::vector<uint8_t>& out);
[[nodiscard]] Result<Vocabulary> DecodeIndexVocab(const std::vector<uint8_t>& bytes);

/// `index_vocab` supplies the strings the epoch entries reference.
void EncodeEpochVocab(const Vocabulary& epoch_vocab, const Vocabulary& index_vocab,
                      std::vector<uint8_t>& out);
[[nodiscard]] Result<Vocabulary> DecodeEpochVocab(const std::vector<uint8_t>& bytes,
                                                  const Vocabulary& index_vocab);

/// Decodes a directory segment (per-entry byte lengths) into prefix-sum
/// offsets: out[i] is entry i's byte offset, out[count] the total. The
/// entry count must equal `expected_count` and the total
/// `expected_total`.
[[nodiscard]] Status DecodeDirectory(const std::vector<uint8_t>& bytes,
                                     size_t expected_count, uint64_t expected_total,
                                     std::vector<uint64_t>* offsets);

/// One stored posting: a record and its term frequency (>= 1) for the
/// list's token.
struct StoredPosting {
  int32_t record = 0;
  uint32_t tf = 0;
};

/// Appends one kPostings list; `list` ascends by record.
void EncodePostingList(std::span<const StoredPosting> list, std::vector<uint8_t>& out);
/// Decodes one whole kPostings list of `size` bytes, appending its
/// (record, weight) entries — at most one per byte — to `*out`, each
/// weight (tf * idf) / record_norm[record] — the expression
/// TfIdfVectorizer::Vectorize and L2Normalize evaluate. DataLoss unless
/// the record ids strictly ascend, each is below record_norm.size() and
/// has a finite positive norm, the tf flag marks a tf of at least 2, and
/// the entries fill the bytes exactly.
[[nodiscard]] Status DecodePostingList(const uint8_t* data, size_t size, double idf,
                                       std::span<const double> record_norm,
                                       PostingList* out);

}  // namespace storage
}  // namespace grouplink

#endif  // GROUPLINK_STORAGE_STORE_FORMAT_H_
