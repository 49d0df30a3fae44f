#include "index/blocking.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "index/candidates.h"

namespace grouplink {
namespace {

using Pairs = std::vector<std::pair<int32_t, int32_t>>;

TEST(BlockingKeysTest, NoneSchemeSingleUniversalKey) {
  EXPECT_EQ(BlockingKeys(BlockingScheme::kNone, "anything at all"),
            (std::vector<std::string>{"*"}));
}

TEST(BlockingKeysTest, TokenSchemeOneKeyPerToken) {
  auto keys = BlockingKeys(BlockingScheme::kToken, "Query Optimization query");
  EXPECT_EQ(keys, (std::vector<std::string>{"optimization", "query"}));
}

TEST(BlockingKeysTest, FirstTokenScheme) {
  EXPECT_EQ(BlockingKeys(BlockingScheme::kFirstToken, "zeta alpha"),
            (std::vector<std::string>{"alpha"}));
  EXPECT_TRUE(BlockingKeys(BlockingScheme::kFirstToken, "").empty());
}

TEST(BlockingKeysTest, TokenPrefixScheme) {
  auto keys = BlockingKeys(BlockingScheme::kTokenPrefix, "optimization optics");
  EXPECT_EQ(keys, (std::vector<std::string>{"opti"}));  // Shared prefix dedups.
}

TEST(BlockingKeysTest, SoundexScheme) {
  auto keys = BlockingKeys(BlockingScheme::kSoundex, "robert rupert");
  EXPECT_EQ(keys, (std::vector<std::string>{"R163"}));  // Same code, dedup.
}

TEST(BlockingSchemeNameTest, AllNamed) {
  EXPECT_STREQ(BlockingSchemeName(BlockingScheme::kNone), "none");
  EXPECT_STREQ(BlockingSchemeName(BlockingScheme::kToken), "token");
  EXPECT_STREQ(BlockingSchemeName(BlockingScheme::kSoundex), "soundex");
}

TEST(BlockerTest, PairsWithinBlocksOnly) {
  Blocker blocker(BlockingScheme::kToken);
  blocker.Add(0, "alpha beta");
  blocker.Add(1, "beta gamma");
  blocker.Add(2, "delta");
  const auto pairs = blocker.CandidatePairs();
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));
}

TEST(BlockerTest, DedupAcrossSharedKeys) {
  Blocker blocker(BlockingScheme::kToken);
  blocker.Add(0, "alpha beta");
  blocker.Add(1, "alpha beta");
  const auto pairs = blocker.CandidatePairs();
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));  // Two shared keys, one pair.
}

TEST(BlockerTest, Diagnostics) {
  Blocker blocker(BlockingScheme::kToken);
  blocker.Add(0, "a b");
  blocker.Add(1, "b c");
  blocker.Add(2, "b");
  EXPECT_EQ(blocker.num_blocks(), 3u);  // a, b, c.
  EXPECT_EQ(blocker.max_block_size(), 3u);
}

TEST(GroupCandidatesTest, AllGroupPairsCount) {
  const auto pairs = AllGroupPairs(5);
  EXPECT_EQ(pairs.size(), 10u);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
}

TEST(GroupCandidatesTest, BlockingLiftsRecordPairsToGroups) {
  // Records 0,1 in group 0; records 2,3 in group 1; record 4 in group 2.
  const std::vector<std::string> texts = {"alpha one", "beta two", "alpha three",
                                          "gamma four", "delta five"};
  const std::vector<int32_t> record_group = {0, 0, 1, 1, 2};
  size_t record_pairs = 0;
  const auto pairs = GroupCandidatesFromBlocking(BlockingScheme::kToken, texts,
                                                 record_group, 3, &record_pairs);
  // Records 0 and 2 share "alpha" -> groups (0, 1). Nothing touches group 2.
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));
  EXPECT_EQ(record_pairs, 1u);
}

TEST(GroupCandidatesTest, IntraGroupHitsIgnored) {
  const std::vector<std::string> texts = {"same text", "same text"};
  const std::vector<int32_t> record_group = {0, 0};
  const auto pairs =
      GroupCandidatesFromBlocking(BlockingScheme::kToken, texts, record_group, 1);
  EXPECT_TRUE(pairs.empty());
}

TEST(GroupCandidatesTest, NoneSchemeYieldsAllPairs) {
  const std::vector<std::string> texts = {"a", "b", "c"};
  const std::vector<int32_t> record_group = {0, 1, 2};
  const auto pairs =
      GroupCandidatesFromBlocking(BlockingScheme::kNone, texts, record_group, 3);
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(SortedNeighborhoodTest, WindowPairsAdjacentKeys) {
  // Sorted key order: "alpha", "alpha beta", "zeta".
  const std::vector<std::string> texts = {"zeta", "alpha", "beta alpha"};
  const auto pairs = SortedNeighborhoodPairs(texts, 2);
  // Window 2 pairs neighbors only: (alpha, alpha beta) and (alpha beta, zeta).
  EXPECT_EQ(pairs, (Pairs{{0, 2}, {1, 2}}));
}

TEST(SortedNeighborhoodTest, FullWindowIsAllPairs) {
  const std::vector<std::string> texts = {"a", "b", "c", "d"};
  const auto pairs = SortedNeighborhoodPairs(texts, 4);
  EXPECT_EQ(pairs.size(), 6u);
}

TEST(SortedNeighborhoodTest, WindowBelowTwoYieldsNothing) {
  EXPECT_TRUE(SortedNeighborhoodPairs({"a", "b"}, 1).empty());
  EXPECT_TRUE(SortedNeighborhoodPairs({"a", "b"}, 0).empty());
}

TEST(SortedNeighborhoodTest, TokenOrderInsensitiveKey) {
  // "ullman jeffrey" and "jeffrey ullman" sort adjacently (identical keys),
  // so even window 2 pairs them regardless of corpus size.
  std::vector<std::string> texts = {"aaa aaa", "jeffrey ullman", "mmm mmm",
                                    "ullman jeffrey", "zzz zzz"};
  const auto pairs = SortedNeighborhoodPairs(texts, 2);
  EXPECT_TRUE(std::find(pairs.begin(), pairs.end(), std::make_pair(1, 3)) !=
              pairs.end());
}

TEST(SortedNeighborhoodTest, PairCountBoundedByWindow) {
  std::vector<std::string> texts;
  for (int i = 0; i < 100; ++i) texts.push_back("text " + std::to_string(i));
  const size_t window = 5;
  const auto pairs = SortedNeighborhoodPairs(texts, window);
  EXPECT_LE(pairs.size(), texts.size() * (window - 1));
}

TEST(GroupCandidatesTest, LabelBlockingPairsGroupsDirectly) {
  const std::vector<std::string> labels = {"jeffrey ullman", "j ullman",
                                           "maria garcia", "ullman jeffrey"};
  const auto pairs = GroupCandidatesFromLabelBlocking(BlockingScheme::kToken, labels);
  // All three "ullman" variants pair up; garcia stays alone.
  EXPECT_EQ(pairs, (Pairs{{0, 1}, {0, 3}, {1, 3}}));
}

TEST(GroupCandidatesTest, LabelBlockingFirstTokenSurvivesInversionButNotInitials) {
  // kFirstToken keys on the lexicographically smallest token, so word
  // order does not matter...
  const auto inverted = GroupCandidatesFromLabelBlocking(
      BlockingScheme::kFirstToken, {"jeffrey ullman", "ullman jeffrey"});
  EXPECT_EQ(inverted, (Pairs{{0, 1}}));
  // ...but abbreviating a name changes the smallest token — the recall
  // cost this scheme pays in benchmark E8.
  const auto abbreviated = GroupCandidatesFromLabelBlocking(
      BlockingScheme::kFirstToken, {"jeffrey ullman", "j ullman"});
  EXPECT_TRUE(abbreviated.empty());
}

TEST(GroupCandidatesTest, LabelBlockingSoundexSurvivesTypos) {
  const std::vector<std::string> labels = {"robert smith", "rupert smith"};
  const auto pairs =
      GroupCandidatesFromLabelBlocking(BlockingScheme::kSoundex, labels);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));
}

TEST(GroupCandidatesTest, RecordJoinFindsOverlappingGroups) {
  // Token ids: group 0 records use {0,1,2}; group 1 record uses {1,2,3};
  // group 2 record uses {7,8,9}.
  const std::vector<std::vector<int32_t>> tokens = {
      {0, 1, 2}, {0, 1, 2}, {1, 2, 3}, {7, 8, 9}};
  const std::vector<int32_t> record_group = {0, 0, 1, 2};
  size_t record_pairs = 0;
  const auto pairs =
      GroupCandidatesFromRecordJoin(tokens, record_group, 10, 3, 0.4, &record_pairs);
  EXPECT_EQ(pairs, (Pairs{{0, 1}}));
  EXPECT_GE(record_pairs, 1u);
}

}  // namespace
}  // namespace grouplink
