#include "storage/stored_corpus.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace grouplink {
namespace storage {

Result<std::unique_ptr<StoredCorpus>> StoredCorpus::Open(
    const std::string& path, const StorageOptions& options) {
  GL_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> opened, PageFile::Open(path));
  std::shared_ptr<const PageFile> file = std::move(opened);
  GL_ASSIGN_OR_RETURN(const StoreInfo info, ReadStoreInfo(*file));

  std::unique_ptr<StoredCorpus> corpus(new StoredCorpus());
  corpus->file_ = file;

  // Resident metadata: everything except the postings segment, whose
  // bytes stay on disk behind the buffer pool.
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> meta_bytes,
                      ReadWholeSegment(*file, info, kMeta));
  GL_RETURN_IF_ERROR(DecodeMeta(meta_bytes, &corpus->meta_));
  GL_RETURN_IF_ERROR(corpus->meta_.config.Validate());
  // The index dictionary only supplies the epoch dictionary's strings.
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> dict_bytes,
                      ReadWholeSegment(*file, info, kDictIndex));
  GL_ASSIGN_OR_RETURN(const Vocabulary index_vocab, DecodeIndexVocab(dict_bytes));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> epoch_dict_bytes,
                      ReadWholeSegment(*file, info, kDictEpoch));
  GL_ASSIGN_OR_RETURN(corpus->epoch_vocab_,
                      DecodeEpochVocab(epoch_dict_bytes, index_vocab));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> postings_dir,
                      ReadWholeSegment(*file, info, kPostingsDir));
  GL_RETURN_IF_ERROR(DecodeDirectory(postings_dir, corpus->epoch_vocab_.size(),
                                     info.segments[kPostings].length,
                                     &corpus->postings_offsets_));
  corpus->idf_table_ = corpus->epoch_vocab_.IdfTable();

  corpus->buffer_ = std::make_unique<BufferManager>(
      file, info.page_bytes, info.num_pages, options.buffer_pool_pages);
  corpus->postings_reader_ =
      SegmentReader(corpus->buffer_.get(), info.segments[kPostings].first_page,
                    info.segments[kPostings].length);
  return corpus;
}

Status StoredCorpus::FetchPostings(std::span<const int32_t> tokens,
                                   FetchedPostings* out) const {
  // The lists' byte ranges ascend with the token ids, so one read copies
  // them all back to back into a per-thread buffer, pinning each page
  // once. Its last pin is released before the lists are decoded.
  thread_local std::vector<ByteRange> ranges;
  thread_local std::vector<uint8_t> bytes;
  ranges.clear();
  uint64_t total_bytes = 0;
  for (const int32_t token : tokens) {
    const size_t t = static_cast<size_t>(token);
    const uint64_t begin = postings_offsets_[t];
    ranges.push_back({begin, static_cast<size_t>(postings_offsets_[t + 1] - begin)});
    total_bytes += ranges.back().n;
  }
  bytes.resize(static_cast<size_t>(total_bytes));
  GL_RETURN_IF_ERROR(postings_reader_.ReadRanges(ranges, bytes.data()));

  // Every entry takes at least one byte, so reserving the lists' byte
  // count up front keeps each list's span valid while later lists append.
  // The decoded weights are bit for bit the in-RAM ones, so every
  // accumulated similarity equals the in-RAM one.
  out->lists.clear();
  out->decoded.clear();
  out->decoded.reserve(static_cast<size_t>(total_bytes));
  const uint8_t* list_bytes = bytes.data();
  for (size_t i = 0; i < tokens.size(); ++i) {
    const size_t first = out->decoded.size();
    GL_RETURN_IF_ERROR(DecodePostingList(list_bytes, ranges[i].n,
                                         idf_table_[static_cast<size_t>(tokens[i])],
                                         meta_.record_norm, &out->decoded));
    list_bytes += ranges[i].n;
    out->lists.emplace_back(out->decoded.data() + first, out->decoded.size() - first);
  }
  GL_DCHECK_LE(out->decoded.size(), total_bytes) << "a decoded list outgrew the reserve";
  return Status::Ok();
}

Result<CorpusSnapshot::QueryResult> StoredCorpus::LinkQuery(
    const GroupArrival& group, const CorpusSnapshot::QueryOptions& options) const {
  return RunLinkQuery(*this, group, options);
}

}  // namespace storage
}  // namespace grouplink
