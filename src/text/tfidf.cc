#include "text/tfidf.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace grouplink {

double L2Norm(const SparseVector& v) {
  double sum = 0.0;
  for (const double w : v.weights) sum += w * w;
  return std::sqrt(sum);
}

void L2Normalize(SparseVector& v) {
  const double norm = L2Norm(v);
  if (norm == 0.0) return;
  for (double& w : v.weights) w /= norm;
}

double DotProduct(const SparseVector& a, const SparseVector& b) {
  GL_DCHECK(a.ids.size() == a.weights.size());
  GL_DCHECK(b.ids.size() == b.weights.size());
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.ids[i] < b.ids[j]) {
      ++i;
    } else if (b.ids[j] < a.ids[i]) {
      ++j;
    } else {
      sum += a.weights[i] * b.weights[j];
      ++i;
      ++j;
    }
  }
  return sum;
}

double CosineSimilarity(const SparseVector& a, const SparseVector& b) {
  if (a.empty() && b.empty()) return 1.0;
  const double norm_a = L2Norm(a);
  const double norm_b = L2Norm(b);
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  return DotProduct(a, b) / (norm_a * norm_b);
}

double PrenormalizedCosineSimilarity(const SparseVector& a, const SparseVector& b) {
  if (a.empty() || b.empty()) return 0.0;
  return DotProduct(a, b);
}

TfIdfVectorizer::TfIdfVectorizer(const Vocabulary* vocabulary)
    : vocabulary_(vocabulary) {
  GL_CHECK(vocabulary != nullptr);
  owned_idf_ = vocabulary->IdfTable();
  idf_table_ = owned_idf_;
}

TfIdfVectorizer::TfIdfVectorizer(const Vocabulary* vocabulary,
                                 std::span<const double> idf_table)
    : vocabulary_(vocabulary), idf_table_(idf_table) {
  GL_CHECK(vocabulary != nullptr);
  GL_CHECK_EQ(idf_table.size(), vocabulary->size());
}

SparseVector TfIdfVectorizer::Vectorize(const std::vector<std::string>& tokens) const {
  // Sort-and-run-length instead of a std::map: same sorted id order, same
  // tf counts, same weights bit for bit — without a node allocation per
  // distinct token.
  std::vector<int32_t> ids;
  ids.reserve(tokens.size());
  for (const std::string& token : tokens) {
    const int32_t id = vocabulary_->GetId(token);
    if (id == Vocabulary::kUnknownToken) continue;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  SparseVector vector;
  vector.ids.reserve(ids.size());
  vector.weights.reserve(ids.size());
  for (size_t i = 0; i < ids.size();) {
    size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    const double tf = static_cast<double>(j - i);
    vector.ids.push_back(ids[i]);
    vector.weights.push_back(tf * idf_table_[static_cast<size_t>(ids[i])]);
    i = j;
  }
  L2Normalize(vector);
  return vector;
}

std::vector<SparseVector> RecomputeVectors(
    const Vocabulary& vocabulary,
    const std::vector<std::vector<std::string>>& raw_tokens, ThreadPool* pool) {
  const TfIdfVectorizer vectorizer(&vocabulary);
  std::vector<SparseVector> vectors(raw_tokens.size());
  ParallelFor(pool, raw_tokens.size(), [&](size_t r) {
    if (!raw_tokens[r].empty()) vectors[r] = vectorizer.Vectorize(raw_tokens[r]);
  });
  return vectors;
}

}  // namespace grouplink
