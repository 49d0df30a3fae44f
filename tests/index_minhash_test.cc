#include "index/minhash.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "support/brute_force.h"

namespace grouplink {
namespace {

using Docs = std::vector<std::vector<int32_t>>;
using Pairs = std::vector<std::pair<int32_t, int32_t>>;

std::vector<int32_t> RandomSet(Rng& rng, int32_t universe, size_t size) {
  std::set<int32_t> tokens;
  while (tokens.size() < size) {
    tokens.insert(static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(universe))));
  }
  return {tokens.begin(), tokens.end()};
}

double ExactJaccard(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

TEST(MinHasherTest, DeterministicForSeed) {
  const MinHasher h1(32, 5);
  const MinHasher h2(32, 5);
  const std::vector<int32_t> doc = {1, 5, 9, 20};
  EXPECT_EQ(h1.Signature(doc), h2.Signature(doc));
}

TEST(MinHasherTest, OrderInsensitive) {
  const MinHasher hasher(16, 1);
  EXPECT_EQ(hasher.Signature({3, 1, 2}), hasher.Signature({1, 2, 3}));
}

TEST(MinHasherTest, IdenticalSetsIdenticalSignatures) {
  const MinHasher hasher(64, 2);
  const std::vector<int32_t> doc = {10, 20, 30};
  EXPECT_DOUBLE_EQ(
      MinHasher::SignatureAgreement(hasher.Signature(doc), hasher.Signature(doc)),
      1.0);
}

TEST(MinHasherTest, EmptySetsNeverAgree) {
  const MinHasher hasher(16, 3);
  const auto empty = hasher.Signature({});
  const auto full = hasher.Signature({1, 2});
  EXPECT_DOUBLE_EQ(MinHasher::SignatureAgreement(empty, full), 0.0);
  EXPECT_DOUBLE_EQ(MinHasher::SignatureAgreement(empty, empty), 0.0);
}

TEST(MinHasherTest, AgreementEstimatesJaccard) {
  // The agreement rate over many hash functions concentrates around the
  // true Jaccard similarity.
  const MinHasher hasher(512, 7);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = RandomSet(rng, 200, 20 + rng.Uniform(20));
    const auto b = RandomSet(rng, 200, 20 + rng.Uniform(20));
    const double estimated =
        MinHasher::SignatureAgreement(hasher.Signature(a), hasher.Signature(b));
    EXPECT_NEAR(estimated, ExactJaccard(a, b), 0.12) << "trial " << trial;
  }
}

TEST(LshTest, DuplicateDocumentsAlwaysCollide) {
  const Docs docs = {{1, 2, 3}, {1, 2, 3}, {50, 60, 70}};
  const auto pairs = MinHashSelfJoin(docs, 8, 4);
  EXPECT_TRUE(std::find(pairs.begin(), pairs.end(), std::make_pair(0, 1)) !=
              pairs.end());
}

TEST(LshTest, EmptyDocumentsNeverPaired) {
  const Docs docs = {{}, {}, {1, 2}};
  const auto pairs = MinHashSelfJoin(docs, 4, 4);
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a, 0);
    EXPECT_NE(b, 0);
    EXPECT_NE(a, 1);
    EXPECT_NE(b, 1);
  }
}

TEST(LshTest, PairsSortedUniqueOriented) {
  Rng rng(13);
  Docs docs;
  for (int d = 0; d < 60; ++d) docs.push_back(RandomSet(rng, 50, 8));
  const auto pairs = MinHashSelfJoin(docs, 8, 2);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
  for (const auto& [a, b] : pairs) EXPECT_LT(a, b);
}

TEST(LshTest, HighJaccardPairsAlmostAlwaysFound) {
  // Pairs with J ~ 0.8 against 16 bands x 2 rows: the S-curve gives
  // P[candidate] = 1 - (1 - 0.8^2)^16 ~= 1 - 4e-8.
  Rng rng(17);
  Docs docs;
  Pairs planted;
  for (int pair = 0; pair < 30; ++pair) {
    auto base = RandomSet(rng, 4000, 20);
    auto near = base;
    near[0] += 4000;  // One substitution: J = 19/21 ~ 0.90.
    std::sort(near.begin(), near.end());
    planted.emplace_back(static_cast<int32_t>(docs.size()),
                         static_cast<int32_t>(docs.size() + 1));
    docs.push_back(std::move(base));
    docs.push_back(std::move(near));
  }
  const auto pairs = MinHashSelfJoin(docs, 16, 2);
  const std::set<std::pair<int32_t, int32_t>> found(pairs.begin(), pairs.end());
  size_t hits = 0;
  for (const auto& pair : planted) {
    if (found.count(pair)) ++hits;
  }
  EXPECT_GE(hits, planted.size() - 1);  // Allow one unlucky miss.
}

TEST(LshTest, LowJaccardPairsMostlyPruned) {
  // Random disjoint-ish sets over a large universe should rarely collide
  // under 8 bands x 4 rows.
  Rng rng(19);
  Docs docs;
  for (int d = 0; d < 100; ++d) docs.push_back(RandomSet(rng, 100000, 15));
  const auto pairs = MinHashSelfJoin(docs, 8, 4);
  const size_t all_pairs = docs.size() * (docs.size() - 1) / 2;
  EXPECT_LT(pairs.size(), all_pairs / 50);
}

TEST(LshTest, RecallComparableToPrefixFilterOnThresholdPairs) {
  // For pairs above J = 0.7, LSH (16x2) should find nearly everything the
  // exact join finds.
  Rng rng(23);
  Docs docs;
  for (int d = 0; d < 80; ++d) docs.push_back(RandomSet(rng, 60, 10));
  const auto exact = BruteForceJaccardSelfJoin(docs, 0.7);
  const auto lsh = MinHashSelfJoin(docs, 16, 2);
  const std::set<std::pair<int32_t, int32_t>> lsh_set(lsh.begin(), lsh.end());
  size_t found = 0;
  for (const auto& pair : exact) {
    if (lsh_set.count(pair)) ++found;
  }
  if (!exact.empty()) {
    EXPECT_GE(static_cast<double>(found) / static_cast<double>(exact.size()), 0.9);
  }
}

}  // namespace
}  // namespace grouplink
