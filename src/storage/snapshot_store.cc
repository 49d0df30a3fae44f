#include "storage/snapshot_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/store_format.h"
#include "text/tfidf.h"

namespace grouplink {
namespace storage {
namespace {

struct StoreMetrics {
  Counter& persists;
  Counter& pages_written;
  Counter& recoveries;

  static StoreMetrics& Get() {
    auto& registry = MetricsRegistry::Default();
    static StoreMetrics metrics{registry.CounterRef("storage.persists"),
                                registry.CounterRef("storage.pages_written"),
                                registry.CounterRef("storage.recoveries")};
    return metrics;
  }
};

/// Writes one logical byte stream as consecutive segment pages: every
/// page's payload is filled to capacity except possibly the last.
Status WriteSegmentPages(PageWriter& writer, const std::vector<uint8_t>& bytes,
                         uint32_t page_bytes, uint64_t* next_page) {
  const uint64_t cap = PagePayloadCapacity(page_bytes);
  std::vector<uint8_t> frame(page_bytes);
  uint64_t done = 0;
  // A zero-length segment still occupies zero pages — the loop body never
  // runs and the directory records length 0.
  while (done < bytes.size()) {
    const uint32_t take =
        static_cast<uint32_t>(std::min<uint64_t>(cap, bytes.size() - done));
    std::memset(frame.data(), 0, frame.size());
    std::memcpy(frame.data() + kPageHeaderBytes, bytes.data() + done, take);
    SealPageFrame(static_cast<uint32_t>(*next_page), PageType::kSegment, take,
                  frame.data(), page_bytes);
    GL_RETURN_IF_ERROR(writer.Append(frame.data(), frame.size()));
    StoreMetrics::Get().pages_written.Increment();
    ++*next_page;
    done += take;
  }
  return Status::Ok();
}

/// Builds one whole page (header or seal) from its payload and appends it.
Status WriteSinglePage(PageWriter& writer, uint64_t page_id, PageType type,
                       const std::vector<uint8_t>& payload, uint32_t page_bytes) {
  GL_CHECK_LE(payload.size(), PagePayloadCapacity(page_bytes))
      << "page payload overflow";
  std::vector<uint8_t> frame(page_bytes, 0);
  std::memcpy(frame.data() + kPageHeaderBytes, payload.data(), payload.size());
  SealPageFrame(static_cast<uint32_t>(page_id), type,
                static_cast<uint32_t>(payload.size()), frame.data(), page_bytes);
  GL_RETURN_IF_ERROR(writer.Append(frame.data(), frame.size()));
  StoreMetrics::Get().pages_written.Increment();
  return Status::Ok();
}

/// The stored form of a snapshot's weighted postings: per epoch token the
/// (record, tf) entries, ascending by record, and per record the norm its
/// weights divide by. Both are derived from the raw token ids the way
/// TfIdfVectorizer::Vectorize derives the vectors.
struct StoredLists {
  std::vector<std::vector<StoredPosting>> lists;
  std::vector<double> record_norm;
};

Result<StoredLists> DeriveStoredLists(const CorpusSnapshot& snapshot) {
  const Vocabulary& epoch_vocab = snapshot.epoch_vocab();
  const Vocabulary& index_vocab = snapshot.index_vocab();
  const std::span<const double> idf = snapshot.idf_table();
  // Index-vocabulary id -> epoch id: raw ids outside the epoch carry no
  // weight, as Vectorize drops out-of-vocabulary tokens.
  std::vector<int32_t> epoch_id(index_vocab.size(), Vocabulary::kUnknownToken);
  for (size_t e = 0; e < epoch_vocab.size(); ++e) {
    const int32_t id = index_vocab.GetId(epoch_vocab.TokenOf(static_cast<int32_t>(e)));
    GL_CHECK_NE(id, Vocabulary::kUnknownToken);
    epoch_id[static_cast<size_t>(id)] = static_cast<int32_t>(e);
  }
  const size_t n_records = static_cast<size_t>(snapshot.num_records());
  StoredLists stored;
  stored.lists.resize(epoch_vocab.size());
  stored.record_norm.assign(n_records, 0.0);
  std::vector<int32_t> ids;
  SparseVector unnormalized;
  for (size_t r = 0; r < n_records; ++r) {
    ids.clear();
    for (const int32_t raw : snapshot.record_token_ids()[r]) {
      if (raw < 0 || static_cast<size_t>(raw) >= epoch_id.size()) {
        return Status::FailedPrecondition("raw token id out of the index vocabulary");
      }
      const int32_t e = epoch_id[static_cast<size_t>(raw)];
      if (e != Vocabulary::kUnknownToken) ids.push_back(e);
    }
    std::sort(ids.begin(), ids.end());
    unnormalized.weights.clear();
    for (size_t i = 0; i < ids.size();) {
      size_t j = i;
      while (j < ids.size() && ids[j] == ids[i]) ++j;
      const size_t t = static_cast<size_t>(ids[i]);
      stored.lists[t].push_back({static_cast<int32_t>(r), static_cast<uint32_t>(j - i)});
      unnormalized.weights.push_back(static_cast<double>(j - i) * idf[t]);
      i = j;
    }
    stored.record_norm[r] = L2Norm(unnormalized);
  }
  return stored;
}

/// Encodes every segment byte stream from the snapshot's frozen parts.
/// FailedPrecondition when a posting weight does not rebuild exactly from
/// the raw token ids — a store of it would answer differently.
Result<std::array<std::vector<uint8_t>, kNumSegments>> EncodeSegments(
    const CorpusSnapshot& snapshot) {
  std::array<std::vector<uint8_t>, kNumSegments> segments;
  const InvertedIndex& index = snapshot.token_index();
  const size_t n_records = static_cast<size_t>(snapshot.num_records());
  GL_ASSIGN_OR_RETURN(StoredLists stored, DeriveStoredLists(snapshot));

  // Weighted postings + directory: one list per epoch token id. They hold
  // the only copy of the TF-IDF weights, as tf plus the resident norms and
  // IDF column. Every list is decoded back and must equal the snapshot's
  // bit for bit, which the differential suite turns into link-set
  // identity; Load transposes the decoded lists back into the vectors.
  const WeightedPostings& postings = snapshot.postings();
  const size_t n_tokens = snapshot.epoch_vocab().size();
  std::vector<uint64_t> dir_lengths;
  dir_lengths.reserve(n_tokens);
  PostingList decoded;
  for (size_t t = 0; t < n_tokens; ++t) {
    const size_t before = segments[kPostings].size();
    EncodePostingList(stored.lists[t], segments[kPostings]);
    dir_lengths.push_back(segments[kPostings].size() - before);
    decoded.clear();
    const Status status =
        DecodePostingList(segments[kPostings].data() + before, dir_lengths.back(),
                          snapshot.idf_table()[t], stored.record_norm, &decoded);
    const PostingList& want = postings.List(static_cast<int32_t>(t));
    const bool same =
        status.ok() && decoded.size() == want.size() &&
        std::equal(decoded.begin(), decoded.end(), want.begin(),
                   [](const WeightedPosting& a, const WeightedPosting& b) {
                     return a.record == b.record &&
                            std::bit_cast<uint64_t>(a.weight) ==
                                std::bit_cast<uint64_t>(b.weight);
                   });
    if (!same) {
      return Status::FailedPrecondition(
          "the postings of epoch token " + std::to_string(t) +
          " do not rebuild from the raw token ids; nothing was written");
    }
  }
  PutVarint(segments[kPostingsDir], dir_lengths.size());
  for (const uint64_t length : dir_lengths) PutVarint(segments[kPostingsDir], length);

  MetaData meta;
  meta.config = snapshot.engine_config();
  meta.epoch = snapshot.epoch();
  meta.num_records = static_cast<int64_t>(n_records);
  meta.num_groups = snapshot.num_groups();
  meta.num_alive_groups = snapshot.num_alive_groups();
  meta.record_group = snapshot.record_group();
  meta.record_norm = std::move(stored.record_norm);
  meta.record_removed.resize(n_records);
  for (size_t r = 0; r < n_records; ++r) {
    meta.record_removed[r] = index.IsRemoved(static_cast<int32_t>(r)) ? 1 : 0;
  }
  meta.group_alive = snapshot.group_alive();
  meta.group_labels = snapshot.group_labels();
  meta.group_records = snapshot.group_records();
  meta.linked_pairs = snapshot.linked_pairs();
  meta.cluster_labels = snapshot.cluster_labels();
  EncodeMeta(meta, segments[kMeta]);

  EncodeIndexVocab(snapshot.index_vocab(), segments[kDictIndex]);
  EncodeEpochVocab(snapshot.epoch_vocab(), snapshot.index_vocab(),
                   segments[kDictEpoch]);

  // Per-record index token sets, exactly as AddDocument received them
  // (post-compaction tombstones have empty sets; replaying AddDocument
  // then RemoveDocument reproduces the index bit for bit either way).
  PutVarint(segments[kDocs], n_records);
  for (size_t r = 0; r < n_records; ++r) {
    PutDeltaVarints(segments[kDocs], index.DocumentTokens(static_cast<int32_t>(r)));
  }

  // Raw token occurrences (order and repeats preserved — these are not
  // sorted sets, so plain varints rather than deltas).
  PutVarint(segments[kRawTokens], n_records);
  for (size_t r = 0; r < n_records; ++r) {
    const std::vector<int32_t>& ids = snapshot.record_token_ids()[r];
    PutVarint(segments[kRawTokens], ids.size());
    for (const int32_t id : ids) {
      PutVarint(segments[kRawTokens], static_cast<uint64_t>(id));
    }
  }
  return segments;
}

}  // namespace

Status SnapshotStore::Persist(const CorpusSnapshot& snapshot,
                              const std::string& path,
                              const StorageOptions& options) {
  if (options.page_bytes < kMinPageBytes || options.page_bytes > kMaxPageBytes) {
    return Status::InvalidArgument(
        "page_bytes must lie in [" + std::to_string(kMinPageBytes) + ", " +
        std::to_string(kMaxPageBytes) + "], got " +
        std::to_string(options.page_bytes));
  }
  GL_CHECK(snapshot.CheckConsistency()) << "Persist requires a sealed snapshot";

  // Encoding validates the weights, so a failure here writes nothing.
  GL_ASSIGN_OR_RETURN(const auto segments, EncodeSegments(snapshot));

  StoreInfo info;
  info.page_bytes = options.page_bytes;
  uint64_t next_page = 1;  // Page 0 is the header.
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    info.segments[s].first_page = next_page;
    info.segments[s].length = segments[s].size();
    next_page += info.PagesOf(static_cast<SegmentId>(s));
  }
  info.num_pages = next_page + 1;  // + seal page.

  const std::string tmp_path = path + ".tmp";
  GL_ASSIGN_OR_RETURN(const std::unique_ptr<PageWriter> writer,
                      PageWriter::Create(tmp_path));
  // On any failure below the tmp file is left exactly as a crash at that
  // instant would leave it; the published store is untouched.
  GL_RETURN_IF_ERROR(WriteSinglePage(*writer, 0, PageType::kHeader,
                                     EncodeHeaderPayload(info), info.page_bytes));
  uint64_t page = 1;
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    GL_RETURN_IF_ERROR(
        WriteSegmentPages(*writer, segments[s], info.page_bytes, &page));
  }
  GL_CHECK_EQ(page, info.num_pages - 1) << "segment layout drifted";
  GL_RETURN_IF_ERROR(WriteSinglePage(*writer, info.num_pages - 1, PageType::kSeal,
                                     EncodeSealPayload(info, snapshot.epoch()),
                                     info.page_bytes));
  GL_RETURN_IF_ERROR(writer->Sync());
  GL_RETURN_IF_ERROR(writer->Close());
  GL_RETURN_IF_ERROR(AtomicReplace(tmp_path, path));
  StoreMetrics::Get().persists.Increment();
  return Status::Ok();
}

Result<std::shared_ptr<const CorpusSnapshot>> SnapshotStore::Load(
    const std::string& path) {
  GL_ASSIGN_OR_RETURN(const std::unique_ptr<PageFile> file, PageFile::Open(path));
  GL_ASSIGN_OR_RETURN(const StoreInfo info, ReadStoreInfo(*file));

  // ReadWholeSegment checksum-verifies every page it touches; together
  // the segment reads cover the whole file, so any flipped bit anywhere
  // surfaces as DataLoss here, deterministically.
  std::array<std::vector<uint8_t>, kNumSegments> segments;
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    GL_ASSIGN_OR_RETURN(segments[s],
                        ReadWholeSegment(*file, info, static_cast<SegmentId>(s)));
  }

  MetaData meta;
  GL_RETURN_IF_ERROR(DecodeMeta(segments[kMeta], &meta));
  CorpusSnapshot::Parts parts;
  parts.config = meta.config;
  GL_RETURN_IF_ERROR(parts.config.Validate());
  parts.epoch = meta.epoch;
  GL_ASSIGN_OR_RETURN(parts.index_vocab, DecodeIndexVocab(segments[kDictIndex]));
  GL_ASSIGN_OR_RETURN(parts.epoch_vocab,
                      DecodeEpochVocab(segments[kDictEpoch], parts.index_vocab));
  const size_t n_records = static_cast<size_t>(meta.num_records);
  const size_t n_tokens = parts.index_vocab.size();

  // TF-IDF vectors, by transposing the weighted postings: list t, walked
  // in ascending t, appends token t to each of its records, so every
  // vector comes back id-sorted and bit-identical.
  {
    std::vector<uint64_t> offsets;
    GL_RETURN_IF_ERROR(DecodeDirectory(segments[kPostingsDir], parts.epoch_vocab.size(),
                                       segments[kPostings].size(), &offsets));
    const std::vector<double> idf = parts.epoch_vocab.IdfTable();
    parts.record_vectors.resize(n_records);
    PostingList list;
    for (size_t t = 0; t + 1 < offsets.size(); ++t) {
      list.clear();
      GL_RETURN_IF_ERROR(DecodePostingList(segments[kPostings].data() + offsets[t],
                                           offsets[t + 1] - offsets[t], idf[t],
                                           meta.record_norm, &list));
      for (const WeightedPosting& entry : list) {
        SparseVector& vector = parts.record_vectors[static_cast<size_t>(entry.record)];
        vector.ids.push_back(static_cast<int32_t>(t));
        vector.weights.push_back(entry.weight);
      }
    }
  }

  // Inverted index, rebuilt through the exact mutation sequence of the
  // original: AddDocument in id order, then the tombstones.
  {
    ByteReader reader(segments[kDocs].data(), segments[kDocs].size());
    GL_ASSIGN_OR_RETURN(const int64_t count, reader.ReadCount());
    if (static_cast<size_t>(count) != n_records) {
      return Status::DataLoss("docs segment record count mismatch");
    }
    std::vector<int32_t> token_ids;
    for (size_t r = 0; r < n_records; ++r) {
      GL_RETURN_IF_ERROR(reader.ReadDeltaVarints(&token_ids));
      for (const int32_t id : token_ids) {
        if (static_cast<size_t>(id) >= n_tokens) {
          return Status::DataLoss("document token id out of vocabulary range");
        }
      }
      parts.token_index.AddDocument(token_ids);
    }
    if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in docs segment");
    if (meta.record_removed.size() != n_records) {
      return Status::DataLoss("tombstone bitmap size mismatch");
    }
    for (size_t r = 0; r < n_records; ++r) {
      if (meta.record_removed[r] != 0) {
        parts.token_index.RemoveDocument(static_cast<int32_t>(r));
      }
    }
  }

  // Raw token occurrences.
  {
    ByteReader reader(segments[kRawTokens].data(), segments[kRawTokens].size());
    GL_ASSIGN_OR_RETURN(const int64_t count, reader.ReadCount());
    if (static_cast<size_t>(count) != n_records) {
      return Status::DataLoss("raw-tokens segment record count mismatch");
    }
    parts.record_token_ids.resize(n_records);
    for (size_t r = 0; r < n_records; ++r) {
      GL_ASSIGN_OR_RETURN(const int64_t n_ids, reader.ReadCount());
      if (static_cast<uint64_t>(n_ids) > reader.remaining()) {
        return Status::DataLoss("implausible raw token count");
      }
      std::vector<int32_t>& ids = parts.record_token_ids[r];
      ids.resize(static_cast<size_t>(n_ids));
      for (int32_t& id : ids) {
        GL_ASSIGN_OR_RETURN(const int64_t raw, reader.ReadCount());
        if (static_cast<size_t>(raw) >= n_tokens) {
          return Status::DataLoss("raw token id out of vocabulary range");
        }
        id = static_cast<int32_t>(raw);
      }
    }
    if (!reader.AtEnd()) {
      return Status::DataLoss("trailing bytes in raw-tokens segment");
    }
  }

  // Group structure (DecodeMeta range-checked its record ids; FromParts'
  // CheckConsistency covers the remaining invariants).
  parts.record_group = std::move(meta.record_group);
  parts.group_records = std::move(meta.group_records);
  parts.group_labels = std::move(meta.group_labels);
  parts.group_alive = std::move(meta.group_alive);
  parts.num_alive_groups = meta.num_alive_groups;
  parts.linked_pairs = std::move(meta.linked_pairs);
  parts.cluster_labels = std::move(meta.cluster_labels);

  GL_ASSIGN_OR_RETURN(std::shared_ptr<const CorpusSnapshot> snapshot,
                      CorpusSnapshot::FromParts(std::move(parts)));
  StoreMetrics::Get().recoveries.Increment();
  return snapshot;
}

}  // namespace storage
}  // namespace grouplink
