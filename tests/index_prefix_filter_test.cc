#include "index/prefix_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "support/brute_force.h"

namespace grouplink {
namespace {

using Docs = std::vector<std::vector<int32_t>>;
using Pairs = std::vector<std::pair<int32_t, int32_t>>;

TEST(PrefixLengthTest, KnownValues) {
  // |x| = 10, t = 0.8 -> overlap >= 8 -> prefix = 10 - 8 + 1 = 3.
  EXPECT_EQ(JaccardPrefixLength(10, 0.8), 3u);
  EXPECT_EQ(JaccardPrefixLength(10, 1.0), 1u);
  EXPECT_EQ(JaccardPrefixLength(0, 0.5), 0u);
  EXPECT_EQ(JaccardPrefixLength(4, 0.0), 4u);  // Everything indexed.
}

TEST(PrefixLengthTest, MonotoneInThreshold) {
  for (size_t size = 1; size <= 20; ++size) {
    size_t previous = size + 1;
    for (double t = 0.1; t <= 1.0; t += 0.1) {
      const size_t p = JaccardPrefixLength(size, t);
      EXPECT_LE(p, previous);
      previous = p;
    }
  }
}

TEST(RarityRanksTest, RarestFirst) {
  const Docs docs = {{0, 1}, {1}, {1, 2}};
  // Frequencies: token0 -> 1, token1 -> 3, token2 -> 1.
  const auto rank = RarityRanks(docs, 3);
  EXPECT_LT(rank[0], rank[1]);
  EXPECT_LT(rank[2], rank[1]);
  EXPECT_LT(rank[0], rank[2]);  // Tie broken by id.
}

TEST(RarityRanksTest, IsPermutation) {
  const Docs docs = {{0, 3}, {1, 2, 3}};
  auto rank = RarityRanks(docs, 4);
  std::sort(rank.begin(), rank.end());
  EXPECT_EQ(rank, (std::vector<int32_t>{0, 1, 2, 3}));
}

TEST(BruteForceJoinTest, SmallExample) {
  const Docs docs = {{0, 1, 2}, {1, 2, 3}, {7, 8, 9}};
  const auto pairs = BruteForceJaccardSelfJoin(docs, 0.4);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));  // Jaccard(0,1) = 2/4 = 0.5.
}

TEST(PrefixFilterTest, FindsObviousPair) {
  const Docs docs = {{0, 1, 2}, {0, 1, 2}, {5, 6, 7}};
  const auto candidates = PrefixFilterSelfJoin(docs, 8, 0.9);
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        std::make_pair(0, 1)) != candidates.end());
}

TEST(PrefixFilterTest, LengthFilterPrunesSkewedSizes) {
  // Sizes 1 vs 10 can reach Jaccard at most 0.1 < 0.5.
  Docs docs = {{0}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};
  const auto candidates = PrefixFilterSelfJoin(docs, 10, 0.5);
  EXPECT_TRUE(candidates.empty());
}

// Completeness property: on random corpora, every truly-qualifying pair
// appears among the candidates, for every threshold.
class PrefixFilterCompletenessTest : public ::testing::TestWithParam<double> {};

TEST_P(PrefixFilterCompletenessTest, CandidatesSupersetOfTruth) {
  const double threshold = GetParam();
  Rng rng(static_cast<uint64_t>(threshold * 1000) + 17);
  constexpr int32_t kNumTokens = 40;
  for (int trial = 0; trial < 20; ++trial) {
    Docs docs;
    const size_t num_docs = 10 + rng.Uniform(30);
    for (size_t d = 0; d < num_docs; ++d) {
      const size_t size = 1 + rng.Uniform(12);
      std::set<int32_t> tokens;
      while (tokens.size() < size) {
        tokens.insert(static_cast<int32_t>(rng.Uniform(kNumTokens)));
      }
      docs.emplace_back(tokens.begin(), tokens.end());
    }
    const auto truth = BruteForceJaccardSelfJoin(docs, threshold);
    const auto candidates = PrefixFilterSelfJoin(docs, kNumTokens, threshold);
    const std::set<std::pair<int32_t, int32_t>> candidate_set(candidates.begin(),
                                                              candidates.end());
    for (const auto& pair : truth) {
      EXPECT_TRUE(candidate_set.count(pair))
          << "missing true pair (" << pair.first << "," << pair.second
          << ") at threshold " << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PrefixFilterCompletenessTest,
                         ::testing::Values(0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0));

TEST(PrefixFilterTest, PrunesComparedToAllPairs) {
  Rng rng(42);
  Docs docs;
  for (int d = 0; d < 200; ++d) {
    std::set<int32_t> tokens;
    const size_t size = 3 + rng.Uniform(6);
    while (tokens.size() < size) {
      tokens.insert(static_cast<int32_t>(rng.Uniform(500)));
    }
    docs.emplace_back(tokens.begin(), tokens.end());
  }
  const auto candidates = PrefixFilterSelfJoin(docs, 500, 0.6);
  const size_t all_pairs = docs.size() * (docs.size() - 1) / 2;
  EXPECT_LT(candidates.size(), all_pairs / 4);
}

TEST(PrefixFilterTest, CandidatesSortedAndUnique) {
  Rng rng(7);
  Docs docs;
  for (int d = 0; d < 50; ++d) {
    std::set<int32_t> tokens;
    while (tokens.size() < 4) tokens.insert(static_cast<int32_t>(rng.Uniform(20)));
    docs.emplace_back(tokens.begin(), tokens.end());
  }
  const auto candidates = PrefixFilterSelfJoin(docs, 20, 0.4);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
              candidates.end());
  for (const auto& [a, b] : candidates) EXPECT_LT(a, b);
}

}  // namespace
}  // namespace grouplink
