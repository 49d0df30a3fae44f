#include "text/tfidf.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace grouplink {
namespace {

Vocabulary MakeCorpusVocabulary() {
  Vocabulary vocab;
  vocab.AddDocument(ToTokenSet(Tokenize("query optimization in databases")));
  vocab.AddDocument(ToTokenSet(Tokenize("query processing")));
  vocab.AddDocument(ToTokenSet(Tokenize("distributed systems design")));
  return vocab;
}

TEST(VocabularyTest, AssignsStableIds) {
  Vocabulary vocab;
  vocab.AddDocument({"a", "b"});
  const int32_t a = vocab.GetId("a");
  const int32_t b = vocab.GetId("b");
  EXPECT_NE(a, Vocabulary::kUnknownToken);
  EXPECT_NE(b, Vocabulary::kUnknownToken);
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.TokenOf(a), "a");
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(VocabularyTest, UnknownTokenId) {
  Vocabulary vocab;
  vocab.AddDocument({"a"});
  EXPECT_EQ(vocab.GetId("missing"), Vocabulary::kUnknownToken);
}

TEST(VocabularyTest, DocumentFrequencyCounts) {
  Vocabulary vocab = MakeCorpusVocabulary();
  EXPECT_EQ(vocab.num_documents(), 3);
  EXPECT_EQ(vocab.DocumentFrequencyOf(vocab.GetId("query")), 2);
  EXPECT_EQ(vocab.DocumentFrequencyOf(vocab.GetId("databases")), 1);
}

TEST(VocabularyTest, IdfDecreasesWithFrequency) {
  Vocabulary vocab = MakeCorpusVocabulary();
  const double idf_common = vocab.IdfOf(vocab.GetId("query"));
  const double idf_rare = vocab.IdfOf(vocab.GetId("databases"));
  EXPECT_GT(idf_rare, idf_common);
  EXPECT_GT(idf_common, 0.0);
}

TEST(VocabularyTest, GetOrInsertDoesNotBumpDf) {
  Vocabulary vocab;
  const int32_t id = vocab.GetOrInsertId("new");
  EXPECT_EQ(vocab.DocumentFrequencyOf(id), 0);
  EXPECT_EQ(vocab.GetId("new"), id);
}

TEST(SparseVectorTest, L2NormAndNormalize) {
  SparseVector v;
  v.ids = {0, 1};
  v.weights = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(L2Norm(v), 5.0);
  L2Normalize(v);
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-12);
  EXPECT_NEAR(v.weights[0], 0.6, 1e-12);
}

TEST(SparseVectorTest, NormalizeZeroVectorIsNoop) {
  SparseVector v;
  L2Normalize(v);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, DotProductMergesById) {
  SparseVector a;
  a.ids = {1, 3, 5};
  a.weights = {1.0, 2.0, 3.0};
  SparseVector b;
  b.ids = {3, 5, 7};
  b.weights = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(DotProduct(a, b), 2.0 * 4.0 + 3.0 * 5.0);
}

TEST(CosineTest, Conventions) {
  SparseVector empty;
  SparseVector unit;
  unit.ids = {0};
  unit.weights = {1.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, unit), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(unit, unit), 1.0);
}

TEST(TfIdfVectorizerTest, IdenticalTextsHaveCosineOne) {
  Vocabulary vocab = MakeCorpusVocabulary();
  TfIdfVectorizer vectorizer(&vocab);
  const auto v1 = vectorizer.Vectorize(Tokenize("query optimization in databases"));
  const auto v2 = vectorizer.Vectorize(Tokenize("query optimization in databases"));
  EXPECT_NEAR(CosineSimilarity(v1, v2), 1.0, 1e-12);
}

TEST(TfIdfVectorizerTest, DisjointTextsHaveCosineZero) {
  Vocabulary vocab = MakeCorpusVocabulary();
  TfIdfVectorizer vectorizer(&vocab);
  const auto v1 = vectorizer.Vectorize(Tokenize("query processing"));
  const auto v2 = vectorizer.Vectorize(Tokenize("distributed systems design"));
  EXPECT_DOUBLE_EQ(CosineSimilarity(v1, v2), 0.0);
}

TEST(TfIdfVectorizerTest, OutOfVocabularyTokensDropped) {
  Vocabulary vocab = MakeCorpusVocabulary();
  TfIdfVectorizer vectorizer(&vocab);
  const auto v = vectorizer.Vectorize({"zzzz", "query"});
  EXPECT_EQ(v.size(), 1u);
}

TEST(TfIdfVectorizerTest, VectorsAreUnitNorm) {
  Vocabulary vocab = MakeCorpusVocabulary();
  TfIdfVectorizer vectorizer(&vocab);
  const auto v = vectorizer.Vectorize(Tokenize("query optimization"));
  EXPECT_NEAR(L2Norm(v), 1.0, 1e-12);
}

TEST(TfIdfVectorizerTest, RareTokenOverlapOutweighsCommon) {
  // Documents sharing the rare token should be more similar than documents
  // sharing only the common token.
  Vocabulary vocab;
  vocab.AddDocument({"common", "rare1"});
  vocab.AddDocument({"common", "rare2"});
  vocab.AddDocument({"common", "rare3"});
  vocab.AddDocument({"common", "rare4"});
  TfIdfVectorizer vectorizer(&vocab);
  const auto a = vectorizer.Vectorize({"common", "rare1", "filler"});
  const auto b = vectorizer.Vectorize({"common", "rare1"});
  const auto c = vectorizer.Vectorize({"common", "rare2"});
  EXPECT_GT(CosineSimilarity(a, b), CosineSimilarity(a, c));
}

TEST(TfIdfVectorizerTest, RepeatedTokensIncreaseWeight) {
  Vocabulary vocab = MakeCorpusVocabulary();
  TfIdfVectorizer vectorizer(&vocab);
  const auto once = vectorizer.Vectorize({"query", "processing"});
  const auto twice = vectorizer.Vectorize({"query", "query", "processing"});
  // More mass on "query" in the repeated vector.
  const int32_t id = vocab.GetId("query");
  const auto weight_of = [&](const SparseVector& v) {
    for (size_t i = 0; i < v.ids.size(); ++i) {
      if (v.ids[i] == id) return v.weights[i];
    }
    return 0.0;
  };
  EXPECT_GT(weight_of(twice), weight_of(once));
}

TEST(TfIdfVectorizerTest, IdFormEqualsTheStringFormBitForBit) {
  // Tokens held as ids of a larger vocabulary reach the epoch vocabulary
  // through VocabularyIdMap; a token the epoch lacks maps to nothing.
  const Vocabulary epoch = MakeCorpusVocabulary();
  Vocabulary index;
  for (const char* token : {"unseen", "query", "processing", "design"}) {
    (void)index.GetOrInsertId(token);
  }
  const std::vector<int32_t> id_map = VocabularyIdMap(index, epoch);
  ASSERT_EQ(id_map.size(), index.size());
  EXPECT_EQ(id_map[static_cast<size_t>(index.GetId("unseen"))], Vocabulary::kUnknownToken);
  EXPECT_EQ(id_map[static_cast<size_t>(index.GetId("design"))], epoch.GetId("design"));

  const std::vector<std::string> tokens = {"query", "unseen", "design", "query", "processing"};
  std::vector<int32_t> ids;
  for (const std::string& token : tokens) ids.push_back(index.GetId(token));
  const TfIdfVectorizer vectorizer(&epoch);
  const SparseVector from_strings = vectorizer.Vectorize(tokens);
  const SparseVector from_ids = vectorizer.Vectorize(ids, id_map);
  ASSERT_EQ(from_ids.ids, from_strings.ids);
  ASSERT_EQ(from_ids.weights.size(), from_strings.weights.size());
  for (size_t i = 0; i < from_ids.weights.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(from_ids.weights[i]),
              std::bit_cast<uint64_t>(from_strings.weights[i]));
  }
  EXPECT_EQ(from_ids.size(), 3u);  // "unseen" dropped, "query" counted twice.
}

}  // namespace
}  // namespace grouplink
