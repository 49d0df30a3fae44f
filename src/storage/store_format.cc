#include "storage/store_format.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace grouplink {
namespace storage {
namespace {

constexpr uint32_t kHeaderFixedBytes = 8 + 4 + 4 + 8 + 4;  // magic..segment count.

Status BadStore(const std::string& what) {
  return Status::DataLoss("corrupt snapshot store: " + what);
}

/// Enum round trip: stored as varint, restored with a range guard so a
/// (checksum-evading) corrupt value can never reach a switch.
template <typename E>
Status DecodeEnum(ByteReader& reader, E* out) {
  GL_ASSIGN_OR_RETURN(const uint64_t raw, reader.ReadVarint());
  if (raw > 15) return BadStore("enum value out of range");
  *out = static_cast<E>(raw);
  return Status::Ok();
}

void PutBitmap(const std::vector<char>& bits, std::vector<uint8_t>& out) {
  const size_t n_bytes = (bits.size() + 7) / 8;
  size_t start = out.size();
  out.resize(start + n_bytes, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] != 0) out[start + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
}

Status ReadBitmap(ByteReader& reader, size_t count, std::vector<char>* out) {
  const size_t n_bytes = (count + 7) / 8;
  std::vector<uint8_t> raw(n_bytes);
  GL_RETURN_IF_ERROR(reader.ReadBytes(n_bytes, raw.data()));
  out->assign(count, 0);
  for (size_t i = 0; i < count; ++i) {
    (*out)[i] = (raw[i / 8] >> (i % 8)) & 1u;
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodeHeaderPayload(const StoreInfo& info) {
  std::vector<uint8_t> payload(kFileMagic, kFileMagic + sizeof(kFileMagic));
  PutFixed32(payload, kFormatVersion);
  PutFixed32(payload, info.page_bytes);
  PutFixed64(payload, info.num_pages);
  PutFixed32(payload, kNumSegments);
  for (const StoreInfo::Segment& segment : info.segments) {
    PutFixed64(payload, segment.first_page);
    PutFixed64(payload, segment.length);
  }
  return payload;
}

std::vector<uint8_t> EncodeSealPayload(const StoreInfo& info, int64_t epoch) {
  std::vector<uint8_t> payload;
  PutFixed64(payload, kSealMagic);
  PutFixed64(payload, info.num_pages);
  PutFixed64(payload, static_cast<uint64_t>(epoch));
  return payload;
}

Result<StoreInfo> ReadStoreInfo(const PageFile& file) {
  // Phase 1 — sniff: the page size lives at a fixed offset in the header
  // page, but the header page is page_bytes long. Read the minimum page
  // prefix every valid store has, pull the claimed page size, and sanity
  // check it against the file size before trusting it. The header page's
  // checksum (verified in phase 2, before any other field is
  // interpreted) still covers these bytes, so corruption here cannot
  // survive to phase 3.
  if (file.size_bytes() < kMinPageBytes) {
    return BadStore("file smaller than one page");
  }
  uint8_t sniff[kPageHeaderBytes + 16];
  GL_RETURN_IF_ERROR(file.ReadAt(0, sizeof(sniff), sniff));
  ByteReader sniff_reader(sniff + kPageHeaderBytes, 16);
  uint8_t magic[8];
  GL_RETURN_IF_ERROR(sniff_reader.ReadBytes(8, magic));
  if (std::memcmp(magic, kFileMagic, 8) != 0) return BadStore("bad magic");
  GL_ASSIGN_OR_RETURN(const uint32_t version, sniff_reader.ReadFixed32());
  if (version != kFormatVersion) {
    return BadStore("unsupported store version " + std::to_string(version) +
                    " (or corrupt header)");
  }
  GL_ASSIGN_OR_RETURN(const uint32_t page_bytes, sniff_reader.ReadFixed32());
  if (page_bytes < kMinPageBytes || page_bytes > kMaxPageBytes ||
      file.size_bytes() % page_bytes != 0) {
    return BadStore("implausible page size");
  }
  const uint64_t file_pages = file.size_bytes() / page_bytes;
  if (file_pages < 2) return BadStore("too few pages");

  // Phase 2 — verify the header page checksum, then parse it fully.
  std::vector<uint8_t> frame(page_bytes);
  GL_RETURN_IF_ERROR(file.ReadAt(0, page_bytes, frame.data()));
  GL_ASSIGN_OR_RETURN(const PageView header, VerifyPageFrame(frame.data(), page_bytes, 0));
  if (header.type != PageType::kHeader) return BadStore("page 0 is not a header");
  if (header.payload_len < kHeaderFixedBytes) return BadStore("header too short");
  StoreInfo info;
  info.page_bytes = page_bytes;
  ByteReader reader(header.payload, header.payload_len);
  GL_RETURN_IF_ERROR(reader.ReadBytes(8, magic));
  GL_ASSIGN_OR_RETURN(const uint32_t version2, reader.ReadFixed32());
  (void)version2;  // Verified in phase 1; re-read to keep offsets aligned.
  GL_ASSIGN_OR_RETURN(const uint32_t page_bytes2, reader.ReadFixed32());
  if (page_bytes2 != page_bytes) return BadStore("header page size mismatch");
  GL_ASSIGN_OR_RETURN(info.num_pages, reader.ReadFixed64());
  if (info.num_pages != file_pages) return BadStore("page count mismatch");
  GL_ASSIGN_OR_RETURN(const uint32_t segment_count, reader.ReadFixed32());
  if (segment_count != kNumSegments) return BadStore("segment count mismatch");
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    GL_ASSIGN_OR_RETURN(info.segments[s].first_page, reader.ReadFixed64());
    GL_ASSIGN_OR_RETURN(info.segments[s].length, reader.ReadFixed64());
  }

  // Phase 3 — directory consistency: segments tile pages [1, n-1).
  uint64_t expect_page = 1;
  for (uint32_t s = 0; s < kNumSegments; ++s) {
    if (info.segments[s].first_page != expect_page) {
      return BadStore("segment directory is not contiguous");
    }
    expect_page += info.PagesOf(static_cast<SegmentId>(s));
  }
  if (expect_page + 1 != info.num_pages) return BadStore("directory/page-count mismatch");

  // Phase 4 — the seal page, written last: its absence or corruption
  // means the persist never completed.
  GL_RETURN_IF_ERROR(
      file.ReadAt((info.num_pages - 1) * page_bytes, page_bytes, frame.data()));
  GL_ASSIGN_OR_RETURN(const PageView seal,
                      VerifyPageFrame(frame.data(), page_bytes, info.num_pages - 1));
  if (seal.type != PageType::kSeal) return BadStore("unsealed store (no seal page)");
  ByteReader seal_reader(seal.payload, seal.payload_len);
  GL_ASSIGN_OR_RETURN(const uint64_t seal_magic, seal_reader.ReadFixed64());
  if (seal_magic != kSealMagic) return BadStore("bad seal sentinel");
  GL_ASSIGN_OR_RETURN(const uint64_t seal_pages, seal_reader.ReadFixed64());
  if (seal_pages != info.num_pages) return BadStore("seal page count mismatch");
  return info;
}

Result<std::vector<uint8_t>> ReadWholeSegment(const PageFile& file,
                                              const StoreInfo& info, SegmentId id) {
  const StoreInfo::Segment& segment = info.segments[id];
  const uint64_t cap = PagePayloadCapacity(info.page_bytes);
  std::vector<uint8_t> bytes;
  bytes.reserve(static_cast<size_t>(segment.length));
  std::vector<uint8_t> frame(info.page_bytes);
  uint64_t remaining = segment.length;
  for (uint64_t p = 0; remaining > 0; ++p) {
    const uint64_t page_id = segment.first_page + p;
    GL_RETURN_IF_ERROR(
        file.ReadAt(page_id * info.page_bytes, info.page_bytes, frame.data()));
    GL_ASSIGN_OR_RETURN(const PageView view,
                        VerifyPageFrame(frame.data(), info.page_bytes, page_id));
    if (view.type != PageType::kSegment) return BadStore("expected segment page");
    const uint64_t expect = std::min<uint64_t>(cap, remaining);
    if (view.payload_len != expect) return BadStore("segment page length mismatch");
    bytes.insert(bytes.end(), view.payload, view.payload + view.payload_len);
    remaining -= expect;
  }
  return bytes;
}

void EncodeMeta(const MetaData& meta, std::vector<uint8_t>& out) {
  const LinkageConfig& config = meta.config;
  PutDouble(out, config.theta);
  PutDouble(out, config.group_threshold);
  PutDouble(out, config.binary_cutoff);
  PutDouble(out, config.candidate_jaccard);
  PutDouble(out, config.deadline_ms);
  PutVarint(out, static_cast<uint64_t>(config.measure));
  PutVarint(out, static_cast<uint64_t>(config.representation));
  PutVarint(out, static_cast<uint64_t>(config.candidates));
  PutVarint(out, static_cast<uint64_t>(config.blocking));
  PutVarint(out, static_cast<uint64_t>(config.neighborhood_window));
  PutVarint(out, static_cast<uint64_t>(config.minhash_bands));
  PutVarint(out, static_cast<uint64_t>(config.minhash_rows));
  PutVarint(out, static_cast<uint64_t>(config.num_threads));
  PutVarint(out, config.use_filter_refine ? 1 : 0);
  PutVarint(out, config.use_upper_bound_filter ? 1 : 0);
  PutVarint(out, config.use_lower_bound_accept ? 1 : 0);
  PutVarint(out, config.use_edge_join ? 1 : 0);
  PutVarint(out, static_cast<uint64_t>(config.max_candidate_pairs));
  PutVarint(out, static_cast<uint64_t>(config.max_matcher_cost));

  PutVarint(out, static_cast<uint64_t>(meta.epoch));
  PutVarint(out, static_cast<uint64_t>(meta.num_records));
  PutVarint(out, static_cast<uint64_t>(meta.num_groups));
  PutVarint(out, static_cast<uint64_t>(meta.num_alive_groups));
  for (const int32_t g : meta.record_group) {
    PutVarint(out, static_cast<uint64_t>(g));
  }
  PutVarint(out, meta.record_norm.size());
  for (const double norm : meta.record_norm) PutDouble(out, norm);
  PutBitmap(meta.group_alive, out);
  for (const std::string& label : meta.group_labels) PutString(out, label);
  // A group keeps its own record order, so ids are plain varints.
  for (const std::vector<int32_t>& records : meta.group_records) {
    PutVarint(out, records.size());
    for (const int32_t r : records) PutVarint(out, static_cast<uint64_t>(r));
  }
  PutVarint(out, meta.linked_pairs.size());
  for (const auto& [g1, g2] : meta.linked_pairs) {
    PutVarint(out, static_cast<uint64_t>(g1));
    PutVarint(out, static_cast<uint64_t>(g2));
  }
  for (const size_t label : meta.cluster_labels) PutVarint(out, label);
}

Status DecodeMeta(const std::vector<uint8_t>& bytes, MetaData* out) {
  ByteReader reader(bytes.data(), bytes.size());
  LinkageConfig& config = out->config;
  GL_ASSIGN_OR_RETURN(config.theta, reader.ReadDouble());
  GL_ASSIGN_OR_RETURN(config.group_threshold, reader.ReadDouble());
  GL_ASSIGN_OR_RETURN(config.binary_cutoff, reader.ReadDouble());
  GL_ASSIGN_OR_RETURN(config.candidate_jaccard, reader.ReadDouble());
  GL_ASSIGN_OR_RETURN(config.deadline_ms, reader.ReadDouble());
  GL_RETURN_IF_ERROR(DecodeEnum(reader, &config.measure));
  GL_RETURN_IF_ERROR(DecodeEnum(reader, &config.representation));
  GL_RETURN_IF_ERROR(DecodeEnum(reader, &config.candidates));
  GL_RETURN_IF_ERROR(DecodeEnum(reader, &config.blocking));
  GL_ASSIGN_OR_RETURN(int64_t value, reader.ReadCount());
  config.neighborhood_window = static_cast<int32_t>(value);
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.minhash_bands = static_cast<int32_t>(value);
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.minhash_rows = static_cast<int32_t>(value);
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.num_threads = static_cast<int32_t>(value);
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.use_filter_refine = value != 0;
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.use_upper_bound_filter = value != 0;
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.use_lower_bound_accept = value != 0;
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  config.use_edge_join = value != 0;
  GL_ASSIGN_OR_RETURN(config.max_candidate_pairs, reader.ReadCount());
  GL_ASSIGN_OR_RETURN(config.max_matcher_cost, reader.ReadCount());

  GL_ASSIGN_OR_RETURN(out->epoch, reader.ReadCount());
  GL_ASSIGN_OR_RETURN(out->num_records, reader.ReadCount());
  GL_ASSIGN_OR_RETURN(out->num_groups, reader.ReadCount());
  GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
  out->num_alive_groups = static_cast<int32_t>(value);
  // A corrupt count would drive the per-record loops into huge
  // allocations; every entry below is at least one byte.
  if (static_cast<uint64_t>(out->num_records) > bytes.size() ||
      static_cast<uint64_t>(out->num_groups) > bytes.size()) {
    return BadStore("implausible record/group count");
  }
  const size_t n_records = static_cast<size_t>(out->num_records);
  const size_t n_groups = static_cast<size_t>(out->num_groups);
  out->record_group.resize(n_records);
  for (size_t r = 0; r < n_records; ++r) {
    GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
    if (value >= out->num_groups) return BadStore("record_group out of range");
    out->record_group[r] = static_cast<int32_t>(value);
  }
  GL_ASSIGN_OR_RETURN(const int64_t n_norms, reader.ReadCount());
  if (n_norms != out->num_records) return BadStore("record norm count mismatch");
  out->record_norm.resize(n_records);
  for (double& norm : out->record_norm) {
    GL_ASSIGN_OR_RETURN(norm, reader.ReadDouble());
  }
  GL_RETURN_IF_ERROR(ReadBitmap(reader, n_groups, &out->group_alive));
  out->group_labels.resize(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    GL_ASSIGN_OR_RETURN(out->group_labels[g], reader.ReadString());
  }
  out->group_records.resize(n_groups);
  std::vector<char> listed(n_records, 0);
  for (size_t g = 0; g < n_groups; ++g) {
    GL_ASSIGN_OR_RETURN(const int64_t size, reader.ReadCount());
    if (static_cast<uint64_t>(size) > reader.remaining()) {
      return BadStore("implausible group size");
    }
    std::vector<int32_t>& records = out->group_records[g];
    records.resize(static_cast<size_t>(size));
    for (int32_t& r : records) {
      GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
      if (value >= out->num_records) return BadStore("group_records out of range");
      if (listed[static_cast<size_t>(value)] != 0) {
        return BadStore("group_records lists a record twice");
      }
      listed[static_cast<size_t>(value)] = 1;
      r = static_cast<int32_t>(value);
    }
  }
  GL_ASSIGN_OR_RETURN(const int64_t n_pairs, reader.ReadCount());
  if (static_cast<uint64_t>(n_pairs) > bytes.size()) {
    return BadStore("implausible pair count");
  }
  out->linked_pairs.resize(static_cast<size_t>(n_pairs));
  for (auto& [g1, g2] : out->linked_pairs) {
    GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
    g1 = static_cast<int32_t>(value);
    GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
    g2 = static_cast<int32_t>(value);
  }
  out->cluster_labels.resize(n_groups);
  for (size_t g = 0; g < n_groups; ++g) {
    GL_ASSIGN_OR_RETURN(value, reader.ReadCount());
    out->cluster_labels[g] = static_cast<size_t>(value);
  }
  if (!reader.AtEnd()) return BadStore("trailing bytes in meta segment");
  return Status::Ok();
}

void EncodeIndexVocab(const Vocabulary& vocab, std::vector<uint8_t>& out) {
  PutVarint(out, static_cast<uint64_t>(vocab.num_documents()));
  PutVarint(out, vocab.size());
  for (size_t id = 0; id < vocab.size(); ++id) {
    PutString(out, vocab.TokenOf(static_cast<int32_t>(id)));
    PutVarint(out,
              static_cast<uint64_t>(vocab.DocumentFrequencyOf(static_cast<int32_t>(id))));
  }
}

Result<Vocabulary> DecodeIndexVocab(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes.data(), bytes.size());
  GL_ASSIGN_OR_RETURN(const int64_t num_documents, reader.ReadCount());
  GL_ASSIGN_OR_RETURN(const int64_t size, reader.ReadCount());
  if (static_cast<uint64_t>(size) > bytes.size()) {
    return BadStore("implausible vocabulary size");
  }
  std::vector<std::string> tokens(static_cast<size_t>(size));
  std::vector<int64_t> dfs(static_cast<size_t>(size));
  for (int64_t id = 0; id < size; ++id) {
    GL_ASSIGN_OR_RETURN(tokens[static_cast<size_t>(id)], reader.ReadString());
    GL_ASSIGN_OR_RETURN(dfs[static_cast<size_t>(id)], reader.ReadCount());
  }
  if (!reader.AtEnd()) return BadStore("trailing bytes in dictionary segment");
  return Vocabulary::Restore(std::move(tokens), std::move(dfs), num_documents);
}

void EncodeEpochVocab(const Vocabulary& epoch_vocab, const Vocabulary& index_vocab,
                      std::vector<uint8_t>& out) {
  PutVarint(out, static_cast<uint64_t>(epoch_vocab.num_documents()));
  PutVarint(out, epoch_vocab.size());
  for (size_t id = 0; id < epoch_vocab.size(); ++id) {
    const int32_t index_id =
        index_vocab.GetId(epoch_vocab.TokenOf(static_cast<int32_t>(id)));
    // Every epoch token came from a live record whose tokens the index
    // absorbed at arrival, so the reference always resolves.
    GL_CHECK_NE(index_id, Vocabulary::kUnknownToken);
    PutVarint(out, static_cast<uint64_t>(index_id));
    PutVarint(out, static_cast<uint64_t>(
                       epoch_vocab.DocumentFrequencyOf(static_cast<int32_t>(id))));
  }
}

Result<Vocabulary> DecodeEpochVocab(const std::vector<uint8_t>& bytes,
                                    const Vocabulary& index_vocab) {
  ByteReader reader(bytes.data(), bytes.size());
  GL_ASSIGN_OR_RETURN(const int64_t num_documents, reader.ReadCount());
  GL_ASSIGN_OR_RETURN(const int64_t size, reader.ReadCount());
  if (static_cast<uint64_t>(size) > bytes.size()) {
    return BadStore("implausible vocabulary size");
  }
  std::vector<std::string> tokens(static_cast<size_t>(size));
  std::vector<int64_t> dfs(static_cast<size_t>(size));
  for (int64_t id = 0; id < size; ++id) {
    GL_ASSIGN_OR_RETURN(const int64_t index_id, reader.ReadCount());
    if (static_cast<uint64_t>(index_id) >= index_vocab.size()) {
      return BadStore("epoch dictionary reference out of range");
    }
    tokens[static_cast<size_t>(id)] =
        index_vocab.TokenOf(static_cast<int32_t>(index_id));
    GL_ASSIGN_OR_RETURN(dfs[static_cast<size_t>(id)], reader.ReadCount());
  }
  if (!reader.AtEnd()) return BadStore("trailing bytes in dictionary segment");
  return Vocabulary::Restore(std::move(tokens), std::move(dfs), num_documents);
}

Status DecodeDirectory(const std::vector<uint8_t>& bytes, size_t expected_count,
                       uint64_t expected_total, std::vector<uint64_t>* offsets) {
  ByteReader reader(bytes.data(), bytes.size());
  GL_ASSIGN_OR_RETURN(const int64_t count, reader.ReadCount());
  if (static_cast<uint64_t>(count) != expected_count) {
    return BadStore("directory entry count mismatch");
  }
  if (static_cast<uint64_t>(count) > bytes.size()) {
    return BadStore("implausible directory size");
  }
  offsets->assign(static_cast<size_t>(count) + 1, 0);
  uint64_t total = 0;
  for (int64_t i = 0; i < count; ++i) {
    GL_ASSIGN_OR_RETURN(const uint64_t length, reader.ReadVarint());
    total += length;
    (*offsets)[static_cast<size_t>(i) + 1] = total;
  }
  if (!reader.AtEnd()) return BadStore("trailing bytes in directory segment");
  if (total != expected_total) return BadStore("directory/segment length mismatch");
  return Status::Ok();
}

void EncodePostingList(std::span<const StoredPosting> list, std::vector<uint8_t>& out) {
  int32_t prev = 0;
  for (size_t i = 0; i < list.size(); ++i) {
    const StoredPosting& entry = list[i];
    GL_DCHECK(i == 0 ? entry.record >= 0 : entry.record > prev);
    GL_DCHECK_GE(entry.tf, 1u);
    const uint64_t delta = static_cast<uint64_t>(entry.record - prev);
    PutVarint(out, delta << 1 | (entry.tf > 1 ? 1u : 0u));
    if (entry.tf > 1) PutVarint(out, entry.tf);
    prev = entry.record;
  }
}

Status DecodePostingList(const uint8_t* data, size_t size, double idf,
                         std::span<const double> record_norm, PostingList* out) {
  ByteReader reader(data, size);
  uint64_t record = 0;
  for (bool first = true; !reader.AtEnd(); first = false) {
    GL_ASSIGN_OR_RETURN(const uint64_t head, reader.ReadVarint());
    const uint64_t delta = head >> 1;
    if (delta == 0 && !first) return BadStore("posting list ids do not ascend");
    // record < record_norm.size() held before this step, so no wrap.
    record += delta;
    if (record >= record_norm.size()) {
      return BadStore("posting references a record out of range");
    }
    uint64_t tf = 1;
    if ((head & 1u) != 0) {
      GL_ASSIGN_OR_RETURN(tf, reader.ReadVarint());
      if (tf < 2) return BadStore("posting tf flag set with tf < 2");
    }
    const double norm = record_norm[static_cast<size_t>(record)];
    if (!(norm > 0.0) || !std::isfinite(norm)) {
      return BadStore("posting references a record without a positive norm");
    }
    out->push_back({static_cast<int32_t>(record), (static_cast<double>(tf) * idf) / norm});
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace grouplink
