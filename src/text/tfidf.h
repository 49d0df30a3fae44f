#ifndef GROUPLINK_TEXT_TFIDF_H_
#define GROUPLINK_TEXT_TFIDF_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "text/vocabulary.h"

namespace grouplink {

/// A sparse vector as (token id, weight) entries sorted by id.
/// Produced by TfIdfVectorizer; consumed by CosineSimilarity.
struct SparseVector {
  std::vector<int32_t> ids;
  std::vector<double> weights;

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
};

/// Euclidean norm of `v`.
[[nodiscard]] double L2Norm(const SparseVector& v);

/// Scales `v` in place to unit norm (no-op for the zero vector).
void L2Normalize(SparseVector& v);

/// Dot product of two id-sorted sparse vectors (linear merge).
[[nodiscard]] double DotProduct(const SparseVector& a, const SparseVector& b);

/// Cosine similarity; 0 if either vector is zero, except two *empty*
/// vectors which compare equal (1), matching the set-measure conventions.
[[nodiscard]] double CosineSimilarity(const SparseVector& a, const SparseVector& b);

/// Record-similarity hot path for vectors Vectorize already L2-normalized:
/// the cosine IS the dot product, so the two per-call norm passes of
/// CosineSimilarity are skipped. Token-less records score 0 — the engine's
/// convention (no co-reference evidence), shared with the streaming
/// linker. VectorStore::Pair/Scores (text/vector_store.h) reproduce this
/// value bit for bit, which is what keeps the per-pair, edge-join, and
/// batched-SIMD paths on one link set.
[[nodiscard]] double PrenormalizedCosineSimilarity(const SparseVector& a,
                                                   const SparseVector& b);

/// Turns token lists into L2-normalized TF-IDF vectors against a
/// Vocabulary built over the corpus.
///
/// Example:
///   Vocabulary vocab;
///   for (doc : corpus) vocab.AddDocument(ToTokenSet(Tokenize(doc)));
///   TfIdfVectorizer vectorizer(&vocab);
///   SparseVector v = vectorizer.Vectorize(Tokenize(doc));
class TfIdfVectorizer {
 public:
  /// `vocabulary` must outlive the vectorizer and is not modified:
  /// out-of-vocabulary tokens are dropped.
  explicit TfIdfVectorizer(const Vocabulary* vocabulary);
  /// Borrows `idf_table`, which must be vocabulary->IdfTable() and outlive
  /// the vectorizer: an epoch computes its IDF column once and vectorizes
  /// every probe with it. Vectors are bit-identical to the owning form's.
  TfIdfVectorizer(const Vocabulary* vocabulary, std::span<const double> idf_table);

  TfIdfVectorizer(const TfIdfVectorizer&) = delete;
  TfIdfVectorizer& operator=(const TfIdfVectorizer&) = delete;

  /// TF-IDF weights (raw term frequency × smoothed IDF), L2-normalized.
  /// Tokens may repeat; repeats raise the term frequency.
  SparseVector Vectorize(const std::vector<std::string>& tokens) const;

  const Vocabulary& vocabulary() const { return *vocabulary_; }

 private:
  const Vocabulary* vocabulary_;
  /// IdfTable() snapshot taken at construction unless one was borrowed:
  /// one log() per vocabulary entry once, instead of one per token
  /// occurrence per Vectorize call.
  std::vector<double> owned_idf_;
  std::span<const double> idf_table_;
};

class ThreadPool;

/// Recomputes the TF-IDF vector of every token list in `raw_tokens`
/// against `vocabulary`, in parallel across records when `pool` is
/// non-null. Entry i of the result is Vectorize(raw_tokens[i]); an empty
/// token list yields an empty vector. This is the epoch-refresh primitive
/// of the streaming linker: after corpus statistics change, the whole
/// vector store is rebuilt in one pass without re-tokenizing any text.
/// Output is bit-identical at any thread count.
[[nodiscard]] std::vector<SparseVector> RecomputeVectors(
    const Vocabulary& vocabulary,
    const std::vector<std::vector<std::string>>& raw_tokens,
    ThreadPool* pool = nullptr);

}  // namespace grouplink

#endif  // GROUPLINK_TEXT_TFIDF_H_
