#ifndef GROUPLINK_INDEX_INVERTED_INDEX_H_
#define GROUPLINK_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <vector>

namespace grouplink {

/// Token-id -> posting-list index over a corpus of documents, where a
/// document is a sorted, deduplicated vector of token ids. Posting lists
/// are sorted by document id (documents are appended in id order).
///
/// This is the data structure behind blocking and set-similarity joins:
/// it turns "which documents share a token with d?" into posting-list
/// lookups instead of all-pairs comparisons.
///
/// Thread safety (shared-read contract): the class does no internal
/// synchronization. Every `const` member — Postings,
/// DocumentsSharingToken, num_documents, PostingsAreSorted — only reads
/// the index, so any number of threads may call them concurrently
/// *provided no thread is inside AddDocument*, which grows the posting
/// table. CorpusSnapshot builds its index once at capture, after which all
/// access is const and lock-free.
class InvertedIndex {
 public:
  /// Adds a document and returns its id (sequential from 0).
  /// `token_ids` must be sorted and unique; enforced with GL_DCHECK.
  int32_t AddDocument(const std::vector<int32_t>& token_ids);

  /// Documents containing `token` (empty list if none).
  [[nodiscard]] const std::vector<int32_t>& Postings(int32_t token) const;

  [[nodiscard]] int32_t num_documents() const { return num_documents_; }

  /// Returns document ids sharing at least one token with `token_ids`,
  /// sorted and deduplicated (includes the probe document itself if it was
  /// added). The basic token-blocking primitive.
  [[nodiscard]] std::vector<int32_t> DocumentsSharingToken(const std::vector<int32_t>& token_ids) const;

  /// Contract predicate: every posting list is sorted by document id with
  /// no duplicates. Always true for a correctly maintained index (ids are
  /// appended in order); exposed so tests can assert it directly.
  [[nodiscard]] bool PostingsAreSorted() const;

 private:
  /// Dense token-id-indexed posting table (token ids come from a
  /// Vocabulary, so the id space is compact): direct indexing instead of
  /// hashing on every probe. Grown on demand by AddDocument.
  std::vector<std::vector<int32_t>> postings_;
  int32_t num_documents_ = 0;
  std::vector<int32_t> empty_postings_;
};

}  // namespace grouplink

#endif  // GROUPLINK_INDEX_INVERTED_INDEX_H_
