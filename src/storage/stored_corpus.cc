#include "storage/stored_corpus.h"

#include <algorithm>
#include <utility>

#include "text/tfidf.h"

namespace grouplink {
namespace storage {

Result<std::unique_ptr<StoredCorpus>> StoredCorpus::Open(
    const std::string& path, const StorageOptions& options) {
  GL_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> opened, PageFile::Open(path));
  std::shared_ptr<const PageFile> file = std::move(opened);
  GL_ASSIGN_OR_RETURN(const StoreInfo info, ReadStoreInfo(*file));

  std::unique_ptr<StoredCorpus> corpus(new StoredCorpus());
  corpus->file_ = file;

  // Resident metadata: everything except the postings and vectors
  // segments, whose bytes stay on disk behind the buffer pool.
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> meta_bytes,
                      ReadWholeSegment(*file, info, kMeta));
  GL_RETURN_IF_ERROR(DecodeMeta(meta_bytes, &corpus->meta_));
  GL_RETURN_IF_ERROR(corpus->meta_.config.Validate());
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> dict_bytes,
                      ReadWholeSegment(*file, info, kDictIndex));
  GL_ASSIGN_OR_RETURN(corpus->index_vocab_, DecodeIndexVocab(dict_bytes));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> epoch_dict_bytes,
                      ReadWholeSegment(*file, info, kDictEpoch));
  GL_ASSIGN_OR_RETURN(corpus->epoch_vocab_,
                      DecodeEpochVocab(epoch_dict_bytes, corpus->index_vocab_));
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> postings_dir,
                      ReadWholeSegment(*file, info, kPostingsDir));
  GL_RETURN_IF_ERROR(DecodeDirectory(postings_dir, info.segments[kPostings].length,
                                     &corpus->postings_offsets_));
  if (corpus->postings_offsets_.size() != corpus->index_vocab_.size() + 1) {
    return Status::DataLoss("postings directory entry count mismatch");
  }
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> vectors_dir,
                      ReadWholeSegment(*file, info, kVectorsDir));
  GL_RETURN_IF_ERROR(DecodeDirectory(vectors_dir, info.segments[kVectors].length,
                                     &corpus->vectors_offsets_));
  if (corpus->vectors_offsets_.size() !=
      static_cast<size_t>(corpus->meta_.num_records) + 1) {
    return Status::DataLoss("vectors directory entry count mismatch");
  }

  corpus->buffer_ = std::make_unique<BufferManager>(
      file, info.page_bytes, info.num_pages, options.buffer_pool_pages);
  corpus->postings_reader_ =
      SegmentReader(corpus->buffer_.get(), info.segments[kPostings].first_page,
                    info.segments[kPostings].length);
  corpus->vectors_reader_ =
      SegmentReader(corpus->buffer_.get(), info.segments[kVectors].first_page,
                    info.segments[kVectors].length);
  return corpus;
}

Result<std::vector<int32_t>> StoredCorpus::CandidateGroups(
    const std::vector<std::vector<int32_t>>& probe_token_ids) const {
  // Same candidate set as CorpusSnapshot::CandidateGroups: per probe
  // record, documents sharing any token (tombstones excluded), mapped to
  // their live groups; the final sort+unique makes per-list duplicate
  // hits harmless, exactly as in the in-RAM path.
  std::vector<int32_t> groups;
  std::vector<int32_t> postings;
  for (const std::vector<int32_t>& ids : probe_token_ids) {
    for (const int32_t token : ids) {
      const size_t t = static_cast<size_t>(token);
      const uint64_t begin = postings_offsets_[t];
      const size_t n_bytes = static_cast<size_t>(postings_offsets_[t + 1] - begin);
      if (n_bytes == 0) continue;  // Token with an empty posting list.
      GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                          postings_reader_.ReadAt(begin, n_bytes));
      ByteReader reader(bytes.data(), bytes.size());
      GL_RETURN_IF_ERROR(reader.ReadDeltaVarints(&postings));
      if (!reader.AtEnd()) {
        return Status::DataLoss("trailing bytes in posting list");
      }
      for (const int32_t doc : postings) {
        if (static_cast<size_t>(doc) >= static_cast<size_t>(meta_.num_records)) {
          return Status::DataLoss("posting references a record out of range");
        }
        if (meta_.record_removed[static_cast<size_t>(doc)] != 0) continue;
        const int32_t g = meta_.record_group[static_cast<size_t>(doc)];
        if (meta_.group_alive[static_cast<size_t>(g)] == 0) continue;
        groups.push_back(g);
      }
    }
  }
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  return groups;
}

Result<const SparseVector*> StoredCorpus::RecordVector(int32_t r,
                                                       SparseVector* scratch) const {
  const size_t index = static_cast<size_t>(r);
  const uint64_t begin = vectors_offsets_[index];
  const size_t n_bytes = static_cast<size_t>(vectors_offsets_[index + 1] - begin);
  scratch->ids.clear();
  scratch->weights.clear();
  if (n_bytes == 0) return scratch;  // Tombstoned record: empty vector.
  // The one paged read per corpus record; weights are the exact stored
  // bits, so every similarity equals the in-RAM one.
  GL_ASSIGN_OR_RETURN(const std::vector<uint8_t> bytes,
                      vectors_reader_.ReadAt(begin, n_bytes));
  ByteReader reader(bytes.data(), bytes.size());
  GL_RETURN_IF_ERROR(reader.ReadDeltaVarints(&scratch->ids));
  scratch->weights.resize(scratch->ids.size());
  for (double& w : scratch->weights) {
    GL_ASSIGN_OR_RETURN(w, reader.ReadDouble());
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in record vector");
  }
  return scratch;
}

Result<CorpusSnapshot::QueryResult> StoredCorpus::LinkQuery(
    const GroupArrival& group, const CorpusSnapshot::QueryOptions& options) const {
  return RunLinkQuery(*this, group, options);
}

}  // namespace storage
}  // namespace grouplink
