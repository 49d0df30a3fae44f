#include "index/weighted_postings.h"

#include <algorithm>

#include "common/logging.h"

namespace grouplink {

WeightedPostings WeightedPostings::Transpose(const std::vector<SparseVector>& vectors,
                                             size_t num_tokens) {
  WeightedPostings postings;
  postings.lists_.resize(num_tokens);
  // Size every list exactly first: appending into doubling vectors would
  // leave up to half of each list's capacity unused.
  std::vector<size_t> sizes(num_tokens, 0);
  for (const SparseVector& vector : vectors) {
    for (const int32_t token : vector.ids) {
      GL_DCHECK_LT(static_cast<size_t>(token), num_tokens) << "vector id past num_tokens";
      ++sizes[static_cast<size_t>(token)];
    }
  }
  for (size_t t = 0; t < num_tokens; ++t) postings.lists_[t].reserve(sizes[t]);
  for (size_t r = 0; r < vectors.size(); ++r) {
    postings.Append(static_cast<int32_t>(r), vectors[r]);
  }
  return postings;
}

void WeightedPostings::Append(int32_t record, const SparseVector& vector) {
  if (vector.empty()) return;
  // Ids are sorted: the last one is the largest — one growth check.
  const size_t needed = static_cast<size_t>(vector.ids.back()) + 1;
  if (lists_.size() < needed) lists_.resize(needed);
  for (size_t k = 0; k < vector.size(); ++k) {
    PostingList& list = lists_[static_cast<size_t>(vector.ids[k])];
    GL_DCHECK(list.empty() || list.back().record < record)
        << "postings must be appended in record-id order";
    list.push_back({record, vector.weights[k]});
  }
}

void WeightedPostings::Erase(int32_t record, const SparseVector& vector) {
  for (const int32_t token : vector.ids) {
    PostingList& list = lists_[static_cast<size_t>(token)];
    const auto it = std::lower_bound(
        list.begin(), list.end(), record,
        [](const WeightedPosting& entry, int32_t r) { return entry.record < r; });
    GL_CHECK(it != list.end() && it->record == record)
        << "erasing a record the postings do not hold";
    list.erase(it);
  }
}

const PostingList& WeightedPostings::List(int32_t token) const {
  const size_t t = static_cast<size_t>(token);
  return t < lists_.size() ? lists_[t] : empty_;
}

void WeightedPostings::Fetch(std::span<const int32_t> tokens, FetchedPostings* out) const {
  out->lists.clear();
  for (const int32_t token : tokens) out->lists.emplace_back(List(token));
}

}  // namespace grouplink
