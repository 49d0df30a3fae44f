#include "text/vocabulary.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace grouplink {

void Vocabulary::AddDocument(const std::vector<std::string>& token_set) {
  ++num_documents_;
  for (const std::string& token : token_set) {
    const int32_t id = GetOrInsertId(token);
    ++document_frequency_[id];
  }
}

Vocabulary Vocabulary::Restore(std::vector<std::string> tokens,
                               std::vector<int64_t> document_frequencies,
                               int64_t num_documents) {
  GL_CHECK_EQ(tokens.size(), document_frequencies.size());
  GL_CHECK_GE(num_documents, 0);
  Vocabulary vocabulary;
  vocabulary.tokens_ = std::move(tokens);
  vocabulary.document_frequency_ = std::move(document_frequencies);
  vocabulary.num_documents_ = num_documents;
  vocabulary.token_to_id_.reserve(vocabulary.tokens_.size());
  for (size_t id = 0; id < vocabulary.tokens_.size(); ++id) {
    const auto [it, inserted] = vocabulary.token_to_id_.try_emplace(
        vocabulary.tokens_[id], static_cast<int32_t>(id));
    GL_CHECK(inserted) << "duplicate token in Vocabulary::Restore: " << it->first;
    GL_CHECK_GE(vocabulary.document_frequency_[id], 0);
  }
  return vocabulary;
}

int32_t Vocabulary::GetId(std::string_view token) const {
  const auto it = token_to_id_.find(std::string(token));
  return it == token_to_id_.end() ? kUnknownToken : it->second;
}

int32_t Vocabulary::GetOrInsertId(std::string_view token) {
  const auto [it, inserted] =
      token_to_id_.try_emplace(std::string(token), static_cast<int32_t>(tokens_.size()));
  if (inserted) {
    tokens_.push_back(it->first);
    document_frequency_.push_back(0);
  }
  return it->second;
}

const std::string& Vocabulary::TokenOf(int32_t id) const {
  GL_CHECK_GE(id, 0);
  GL_CHECK_LT(static_cast<size_t>(id), tokens_.size());
  return tokens_[static_cast<size_t>(id)];
}

int64_t Vocabulary::DocumentFrequencyOf(int32_t id) const {
  GL_CHECK_GE(id, 0);
  GL_CHECK_LT(static_cast<size_t>(id), document_frequency_.size());
  return document_frequency_[static_cast<size_t>(id)];
}

double Vocabulary::IdfOf(int32_t id) const {
  const double df = static_cast<double>(DocumentFrequencyOf(id));
  const double n = static_cast<double>(num_documents_);
  return std::log((1.0 + n) / (1.0 + df)) + 1.0;
}

std::vector<double> Vocabulary::IdfTable() const {
  std::vector<double> table(tokens_.size());
  for (size_t id = 0; id < table.size(); ++id) {
    table[id] = IdfOf(static_cast<int32_t>(id));
  }
  return table;
}

Vocabulary BuildVocabulary(const std::vector<std::vector<std::string>>& token_sets) {
  Vocabulary vocabulary;
  for (const std::vector<std::string>& token_set : token_sets) {
    vocabulary.AddDocument(token_set);
  }
  return vocabulary;
}

std::vector<int32_t> VocabularyIdMap(const Vocabulary& from, const Vocabulary& to) {
  std::vector<int32_t> map(from.size(), Vocabulary::kUnknownToken);
  for (size_t id = 0; id < to.size(); ++id) {
    const int32_t from_id = from.GetId(to.TokenOf(static_cast<int32_t>(id)));
    if (from_id != Vocabulary::kUnknownToken) {
      map[static_cast<size_t>(from_id)] = static_cast<int32_t>(id);
    }
  }
  return map;
}

}  // namespace grouplink
