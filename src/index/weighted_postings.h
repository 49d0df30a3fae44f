#ifndef GROUPLINK_INDEX_WEIGHTED_POSTINGS_H_
#define GROUPLINK_INDEX_WEIGHTED_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "text/tfidf.h"

namespace grouplink {

/// One entry of a weighted posting list: a record and its TF-IDF weight
/// for the list's token.
struct WeightedPosting {
  int32_t record = 0;
  double weight = 0.0;

  bool operator==(const WeightedPosting&) const = default;
};

/// A weighted posting list, ascending by record id.
using PostingList = std::vector<WeightedPosting>;

/// The posting lists of one token set, as one fetch returns them
/// (PostingsCorpus::FetchPostings). Reused across fetches, so a warm
/// caller allocates nothing.
struct FetchedPostings {
  /// lists[i]: the postings of the i-th token asked for.
  std::vector<std::span<const WeightedPosting>> lists;
  /// The entries of lists a corpus decoded rather than held in RAM.
  PostingList decoded;
};

/// Token id -> weighted posting list: the transpose of a corpus's
/// per-record sparse vectors. Entry (r, w) in list t means record r's
/// vector holds weight w at token t, so the lists hold exactly the
/// entries of the vectors and nothing else. This is the index that score
/// accumulation walks (core/accumulate.h): summing w_r · w_p over a
/// probe token's list, in ascending token order, reproduces
/// PrenormalizedCosineSimilarity bit for bit.
///
/// Thread safety: the same shared-read contract as InvertedIndex — const
/// members only read, mutators (Append, Erase) must not race any reader.
class WeightedPostings {
 public:
  WeightedPostings() = default;

  /// The transpose of `vectors` (record r owns vectors[r]) over
  /// `num_tokens` lists. Every vector id must be below `num_tokens`.
  [[nodiscard]] static WeightedPostings Transpose(
      const std::vector<SparseVector>& vectors, size_t num_tokens);

  /// Appends `record`'s entries. `record` must exceed every record already
  /// listed under the vector's tokens, which keeps each list ascending.
  void Append(int32_t record, const SparseVector& vector);

  /// Erases `record`'s entries; `vector` must be the vector it was
  /// appended with.
  void Erase(int32_t record, const SparseVector& vector);

  /// The list of `token` (empty past the last token).
  [[nodiscard]] const PostingList& List(int32_t token) const;
  /// Points out->lists at the lists of `tokens`, in order.
  void Fetch(std::span<const int32_t> tokens, FetchedPostings* out) const;

  [[nodiscard]] size_t num_tokens() const { return lists_.size(); }

  bool operator==(const WeightedPostings&) const = default;

 private:
  std::vector<PostingList> lists_;
  PostingList empty_;
};

}  // namespace grouplink

#endif  // GROUPLINK_INDEX_WEIGHTED_POSTINGS_H_
