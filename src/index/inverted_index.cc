#include "index/inverted_index.h"

#include <algorithm>

#include "common/logging.h"

namespace grouplink {

int32_t InvertedIndex::AddDocument(const std::vector<int32_t>& token_ids) {
  GL_DCHECK(std::is_sorted(token_ids.begin(), token_ids.end()))
      << "document token ids must be sorted";
  GL_DCHECK(std::adjacent_find(token_ids.begin(), token_ids.end()) == token_ids.end())
      << "document token ids must be unique";
  const int32_t doc_id = num_documents_++;
  if (!token_ids.empty()) {
    GL_CHECK_GE(token_ids.front(), 0) << "token ids must be non-negative";
    // Sorted input: the last token is the largest — one growth check.
    const size_t needed = static_cast<size_t>(token_ids.back()) + 1;
    if (postings_.size() < needed) postings_.resize(needed);
  }
  for (const int32_t token : token_ids) {
    postings_[static_cast<size_t>(token)].push_back(doc_id);
  }
  return doc_id;
}

bool InvertedIndex::PostingsAreSorted() const {
  for (const std::vector<int32_t>& list : postings_) {
    if (!std::is_sorted(list.begin(), list.end())) return false;
    if (std::adjacent_find(list.begin(), list.end()) != list.end()) return false;
  }
  return true;
}

const std::vector<int32_t>& InvertedIndex::Postings(int32_t token) const {
  if (token < 0 || static_cast<size_t>(token) >= postings_.size()) {
    return empty_postings_;
  }
  return postings_[static_cast<size_t>(token)];
}

std::vector<int32_t> InvertedIndex::DocumentsSharingToken(
    const std::vector<int32_t>& token_ids) const {
  std::vector<int32_t> result;
  for (const int32_t token : token_ids) {
    const std::vector<int32_t>& list = Postings(token);
    result.insert(result.end(), list.begin(), list.end());
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace grouplink
