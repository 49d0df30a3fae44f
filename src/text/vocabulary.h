#ifndef GROUPLINK_TEXT_VOCABULARY_H_
#define GROUPLINK_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace grouplink {

/// Token dictionary with document frequencies, the corpus statistics
/// behind TF-IDF weighting and df-ordered prefix filtering.
///
/// Build it once over a corpus by calling AddDocument for every document's
/// *deduplicated* token set, then query ids and IDF weights.
class Vocabulary {
 public:
  static constexpr int32_t kUnknownToken = -1;

  /// Registers one document's token set; each distinct token's document
  /// frequency is incremented once (callers pass deduplicated tokens; a
  /// repeated token in one call would be counted repeatedly).
  void AddDocument(const std::vector<std::string>& token_set);

  /// Rebuilds a vocabulary from its serialized parts — token id i is
  /// `tokens[i]` with document frequency `document_frequencies[i]`. The
  /// restored object is bit-identical in every query (ids, dfs, IDF table)
  /// to the one the parts were read from; the storage tier's recovery path
  /// depends on exactly that. Duplicate tokens or negative sizes are a
  /// programmer error (GL_CHECK).
  static Vocabulary Restore(std::vector<std::string> tokens,
                            std::vector<int64_t> document_frequencies,
                            int64_t num_documents);

  /// Returns the id of `token`, or kUnknownToken.
  int32_t GetId(std::string_view token) const;

  /// Returns the id of `token`, inserting it (with df 0) if missing.
  int32_t GetOrInsertId(std::string_view token);

  /// Token text for an id. Requires a valid id.
  const std::string& TokenOf(int32_t id) const;

  /// Document frequency of a token id. Requires a valid id.
  int64_t DocumentFrequencyOf(int32_t id) const;

  /// Smoothed inverse document frequency:
  /// idf(t) = ln((1 + N) / (1 + df(t))) + 1, always > 0.
  double IdfOf(int32_t id) const;

  /// The whole IDF column as one flat array indexed by token id —
  /// entry i == IdfOf(i) bit for bit. Computed once per call; consumers
  /// on hot paths (TfIdfVectorizer) cache it instead of paying one log()
  /// per token occurrence.
  [[nodiscard]] std::vector<double> IdfTable() const;

  int64_t num_documents() const { return num_documents_; }
  size_t size() const { return tokens_.size(); }

 private:
  std::unordered_map<std::string, int32_t> token_to_id_;
  std::vector<std::string> tokens_;
  std::vector<int64_t> document_frequency_;
  int64_t num_documents_ = 0;
};

/// Builds a Vocabulary over `token_sets` in order. Token ids depend on
/// first-seen order, so every consumer that assigns ids in the same
/// sequence — the batch engine's Prepare over a dataset's records, or the
/// streaming linker's epoch refresh over its live records — gets an
/// identical id space and hence bit-identical downstream vectors.
Vocabulary BuildVocabulary(const std::vector<std::vector<std::string>>& token_sets);

/// The table that carries token ids of `from` into `to`: entry i is the id
/// `to` gives from.TokenOf(i), or kUnknownToken when `to` lacks it. The
/// streaming linker's grow-only index vocabulary reaches each epoch
/// vocabulary through it.
std::vector<int32_t> VocabularyIdMap(const Vocabulary& from, const Vocabulary& to);

}  // namespace grouplink

#endif  // GROUPLINK_TEXT_VOCABULARY_H_
