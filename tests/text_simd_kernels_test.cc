#include "text/simd_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd_dispatch.h"
#include "core/group.h"
#include "core/group_measures.h"
#include "text/edit_distance.h"
#include "text/tfidf.h"

namespace grouplink {
namespace {

// Pins the dispatch tier for one test body and restores the default on
// scope exit, so a failing test can't leak its override into the next.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { SetSimdLevelForTesting(level); }
  ~ScopedSimdLevel() { ClearSimdLevelForTesting(); }
};

std::vector<uint32_t> SortedUniqueSet(Rng& rng, size_t size, uint32_t universe) {
  std::vector<uint32_t> set;
  set.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    set.push_back(static_cast<uint32_t>(rng.Uniform(universe)));
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

// ------------------------------------------------- Sorted intersection.

TEST(SortedIntersectTest, HandCases) {
  const std::vector<uint32_t> a = {1, 3, 5, 7, 9};
  const std::vector<uint32_t> b = {2, 3, 4, 7, 10, 11};
  EXPECT_EQ(SortedIntersectCountScalar(a.data(), a.size(), b.data(), b.size()), 2u);
  EXPECT_EQ(SortedIntersectCount(a.data(), a.size(), b.data(), b.size()), 2u);
}

TEST(SortedIntersectTest, EmptyAndSingleton) {
  const std::vector<uint32_t> a = {5};
  EXPECT_EQ(SortedIntersectCount(nullptr, 0, nullptr, 0), 0u);
  EXPECT_EQ(SortedIntersectCount(a.data(), a.size(), nullptr, 0), 0u);
  EXPECT_EQ(SortedIntersectCount(a.data(), a.size(), a.data(), a.size()), 1u);
}

TEST(SortedIntersectTest, AdversarialShapes) {
  // Shapes chosen to hit every code path: identical sets, disjoint ranges,
  // lengths straddling the 4-lane block width, and the gallop threshold.
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      cases = {
          {{0, 1, 2, 3}, {0, 1, 2, 3}},              // all equal, one block
          {{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}},        // block + tail
          {{0, 1, 2}, {3, 4, 5}},                    // disjoint, adjacent
          {{100, 200, 300}, {0, 1, 2, 3, 4, 5, 6}},  // disjoint, interleaved no
          {{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15}},  // zipper
          {{7}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},  // singleton probe
      };
  for (const auto& [a, b] : cases) {
    const size_t expected = ReferenceIntersect(a, b);
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
      ScopedSimdLevel scoped(level);
      EXPECT_EQ(SortedIntersectCount(a.data(), a.size(), b.data(), b.size()),
                expected);
      EXPECT_EQ(SortedIntersectCount(b.data(), b.size(), a.data(), a.size()),
                expected);
    }
  }
}

TEST(SortedIntersectTest, RandomizedDifferential) {
  Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    // Lopsided sizes exercise the galloping path; tight universes force
    // dense overlap, wide ones force misses.
    const size_t na = static_cast<size_t>(rng.Uniform(120));
    const size_t nb = static_cast<size_t>(rng.Uniform(trial % 3 == 0 ? 2000 : 60));
    const uint32_t universe = static_cast<uint32_t>(rng.UniformInt(1, 4000));
    const auto a = SortedUniqueSet(rng, na, universe);
    const auto b = SortedUniqueSet(rng, nb, universe);
    const size_t expected = ReferenceIntersect(a, b);
    ASSERT_EQ(SortedIntersectCountScalar(a.data(), a.size(), b.data(), b.size()),
              expected);
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
      ScopedSimdLevel scoped(level);
      ASSERT_EQ(SortedIntersectCount(a.data(), a.size(), b.data(), b.size()),
                expected)
          << "trial " << trial << " level " << SimdLevelName(level);
    }
  }
}

// ------------------------------------------------------- Scatter dot.

TEST(ScatterDotTest, MatchesSortedMergeDotProduct) {
  // The full bit-identity chain: scatter dot over a dense probe equals the
  // canonical sorted-merge DotProduct of the sparse vectors.
  Rng rng(99);
  const size_t dimension = 256;
  for (int trial = 0; trial < 100; ++trial) {
    auto make_sparse = [&](size_t terms) {
      SparseVector v;
      const auto ids =
          SortedUniqueSet(rng, terms, static_cast<uint32_t>(dimension));
      for (const uint32_t id : ids) {
        v.ids.push_back(static_cast<int32_t>(id));
        v.weights.push_back(rng.UniformDouble(1e-3, 1.0));
      }
      return v;
    };
    const SparseVector probe = make_sparse(static_cast<size_t>(rng.UniformInt(1, 30)));
    const SparseVector cand = make_sparse(static_cast<size_t>(rng.UniformInt(1, 30)));

    std::vector<double> dense(dimension, 0.0);
    for (size_t k = 0; k < probe.size(); ++k) {
      dense[static_cast<size_t>(probe.ids[k])] = probe.weights[k];
    }
    const std::vector<int32_t>& ids = cand.ids;
    const std::vector<double>& weights = cand.weights;
    const double merged = DotProduct(probe, cand);
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
      ScopedSimdLevel scoped(level);
      ASSERT_EQ(ScatterDot(dense.data(), ids.data(), weights.data(), ids.size()),
                merged)
          << "trial " << trial << " level " << SimdLevelName(level);
    }
  }
}

// ------------------------------------------------- Batched graph build.

// BuildSimilarityGraphBatched against BuildSimilarityGraph over
// PrenormalizedCosineSimilarity: the same edges in the same order with the
// same weight bits at every tier, and the one scratch shared by every call
// all +0.0 after each. The corpus has token-less records, one-record
// groups and the vocabulary's top id.
TEST(BatchedGraphTest, MatchesPerPairCosineAndLeavesScratchZero) {
  Rng rng(4242);
  constexpr int32_t kDimension = 96;
  constexpr int32_t kGroups = 24;
  std::vector<int32_t> record_group;
  for (int32_t g = 0; g < kGroups; ++g) {
    const int64_t size = g < 4 ? 1 : rng.UniformInt(1, 5);
    for (int64_t i = 0; i < size; ++i) record_group.push_back(g);
  }
  std::vector<SparseVector> vectors;
  for (size_t r = 0; r < record_group.size(); ++r) {
    SparseVector v;
    // Every fifth record is token-less; record 1 and some others hold
    // the top id.
    const size_t size = r % 5 == 0 ? 0 : static_cast<size_t>(rng.UniformInt(1, 14));
    std::vector<uint32_t> ids = SortedUniqueSet(rng, size, kDimension);
    if (size > 0 && (r == 1 || rng.Bernoulli(0.2)) && ids.back() != kDimension - 1) {
      ids.push_back(kDimension - 1);
    }
    for (const uint32_t id : ids) {
      v.ids.push_back(static_cast<int32_t>(id));
      v.weights.push_back(rng.UniformDouble(1e-3, 1.0));
    }
    L2Normalize(v);
    vectors.push_back(std::move(v));
  }
  std::vector<Record> records(record_group.size());
  for (size_t r = 0; r < records.size(); ++r) records[r].id = std::to_string(r);
  auto dataset_or = MakeDataset(std::move(records), record_group, kGroups);
  ASSERT_TRUE(dataset_or.ok());
  const Dataset& dataset = *dataset_or;
  const RecordSimFn cosine = [&vectors](int32_t a, int32_t b) {
    return PrenormalizedCosineSimilarity(vectors[static_cast<size_t>(a)],
                                         vectors[static_cast<size_t>(b)]);
  };

  std::vector<double> scratch;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
    ScopedSimdLevel scoped(level);
    size_t edges = 0;
    for (const double theta : {1e-12, 0.3}) {
      for (int32_t g1 = 0; g1 < kGroups; ++g1) {
        for (int32_t g2 = 0; g2 < kGroups; ++g2) {
          const BipartiteGraph batched =
              BuildSimilarityGraphBatched(dataset, g1, g2, vectors, scratch, theta);
          const BipartiteGraph per_pair =
              BuildSimilarityGraph(dataset, g1, g2, cosine, theta);
          SCOPED_TRACE(::testing::Message() << SimdLevelName(level) << " theta "
                                            << theta << " pair " << g1 << "," << g2);
          ASSERT_EQ(batched.num_left(), per_pair.num_left());
          ASSERT_EQ(batched.num_right(), per_pair.num_right());
          ASSERT_EQ(batched.edges().size(), per_pair.edges().size());
          for (size_t e = 0; e < per_pair.edges().size(); ++e) {
            const BipartiteEdge& got = batched.edges()[e];
            const BipartiteEdge& want = per_pair.edges()[e];
            ASSERT_EQ(got.left, want.left) << "edge " << e;
            ASSERT_EQ(got.right, want.right) << "edge " << e;
            ASSERT_EQ(std::bit_cast<uint64_t>(got.weight),
                      std::bit_cast<uint64_t>(want.weight))
                << "edge " << e;
          }
          edges += per_pair.edges().size();
          ASSERT_TRUE(std::all_of(scratch.begin(), scratch.end(), [](double x) {
            return std::bit_cast<uint64_t>(x) == 0;
          })) << "scratch not all +0.0 after the call";
        }
      }
    }
    EXPECT_GT(edges, 0u) << SimdLevelName(level);
  }
  EXPECT_EQ(scratch.size(), static_cast<size_t>(kDimension));
}

// ------------------------------------------------- Accumulator sweep.

// SweepAccumulator's contract, one slot at a time.
size_t ReferenceSweep(std::vector<double>& sum, size_t lo, size_t hi, double theta,
                      std::vector<AccumulatorHit>* hits) {
  size_t nonzero = 0;
  for (size_t i = lo; i < hi; ++i) {
    if (sum[i] >= theta) hits->push_back({static_cast<int32_t>(i), sum[i]});
    nonzero += sum[i] != 0.0 ? 1 : 0;
    sum[i] = 0.0;
  }
  return nonzero;
}

TEST(SweepAccumulatorTest, AppliesAtTheAvx2TierOnly) {
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSse42}) {
    ScopedSimdLevel scoped(level);
    EXPECT_FALSE(SweepAccumulatorApplies()) << SimdLevelName(level);
  }
  ScopedSimdLevel scoped(SimdLevel::kAvx2);
  EXPECT_EQ(SweepAccumulatorApplies(), ActiveSimdLevel() == SimdLevel::kAvx2);
}

TEST(SweepAccumulatorTest, RandomizedDifferentialAgainstTheReference) {
  // Ranges of 0-17 slots (the 8-slot step, its tail, both) at any offset,
  // so most start unaligned, a third ending at the array's end. A slot
  // holds 0.0, exactly θ, the double just below θ, a subnormal nonzero
  // sum, or a random sum; some ranges are all zeros. Half the trials
  // fence the range with nonzero slots the sweep must not touch.
  ScopedSimdLevel scoped(SimdLevel::kAvx2);
  if (!SweepAccumulatorApplies()) GTEST_SKIP() << "no AVX2 tier on this CPU or build";
  constexpr double kTheta = 0.35;
  const double shapes[] = {kTheta, std::nextafter(kTheta, 0.0),
                           3 * std::numeric_limits<double>::denorm_min()};
  Rng rng(2026);
  size_t hits_seen = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t size = 1 + rng.Uniform(40);
    const size_t length = std::min<size_t>(rng.Uniform(18), size);
    const size_t lo = trial % 3 == 0 ? size - length : rng.Uniform(size - length + 1);
    const size_t hi = lo + length;
    const double fence = trial % 2 == 0 ? 0.0 : 7.0;
    const bool all_zero = trial % 5 == 0;
    std::vector<double> sum(size, fence);
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t pick = rng.Uniform(6);
      sum[i] = all_zero || pick < 2 ? 0.0
               : pick < 5           ? shapes[pick - 2]
                                    : rng.UniformDouble(1e-3, 1.0);
    }
    std::vector<double> want_sum = sum;
    std::vector<AccumulatorHit> want{{-1, 1.0}};  // Both append after it.
    std::vector<AccumulatorHit> got = want;
    const size_t want_nonzero = ReferenceSweep(want_sum, lo, hi, kTheta, &want);
    const size_t got_nonzero = SweepAccumulator(sum.data(), lo, hi, kTheta, &got);

    const std::string context = "trial " + std::to_string(trial) + " [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + ") of " + std::to_string(size);
    EXPECT_EQ(got_nonzero, want_nonzero) << context;
    ASSERT_EQ(got.size(), want.size()) << context;
    for (size_t h = 0; h < want.size(); ++h) {
      EXPECT_EQ(got[h].record, want[h].record) << context << " hit " << h;
      EXPECT_EQ(std::bit_cast<uint64_t>(got[h].sum), std::bit_cast<uint64_t>(want[h].sum))
          << context << " hit " << h;
    }
    for (size_t i = 0; i < size; ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(sum[i]),
                std::bit_cast<uint64_t>(i >= lo && i < hi ? 0.0 : fence))
          << context << " slot " << i;
    }
    hits_seen += want.size() - 1;
  }
  EXPECT_GT(hits_seen, 0u) << "the differential must not hold vacuously";
}

// ------------------------------------------------- Bit-parallel edits.

TEST(BitParallelEditDistanceTest, AppliesGate) {
  EXPECT_TRUE(BitParallelEditDistanceApplies(3, 100));
  EXPECT_TRUE(BitParallelEditDistanceApplies(100, 64));
  EXPECT_FALSE(BitParallelEditDistanceApplies(65, 65));
  EXPECT_TRUE(BitParallelEditDistanceApplies(0, 1000));
}

TEST(BitParallelEditDistanceTest, KnownValues) {
  EXPECT_EQ(BitParallelEditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(BitParallelEditDistance("", "abc"), 3u);
  EXPECT_EQ(BitParallelEditDistance("abc", ""), 3u);
  EXPECT_EQ(BitParallelEditDistance("same", "same"), 0u);
  EXPECT_EQ(BitParallelEditDistance("a", "b"), 1u);
}

std::string RandomString(Rng& rng, size_t length, int alphabet) {
  std::string s(length, 'a');
  for (char& c : s) {
    c = static_cast<char>('a' + rng.Uniform(static_cast<uint64_t>(alphabet)));
  }
  return s;
}

TEST(BitParallelEditDistanceTest, RandomizedDifferentialVsDp) {
  Rng rng(31337);
  ScopedSimdLevel scoped(SimdLevel::kScalar);  // Pin the DP as reference.
  for (int trial = 0; trial < 400; ++trial) {
    // Small alphabets force dense match masks; lengths straddle the word
    // boundary on the longer side.
    const int alphabet = trial % 2 == 0 ? 3 : 26;
    const size_t la = static_cast<size_t>(rng.Uniform(64));
    const size_t lb = static_cast<size_t>(rng.Uniform(200));
    const std::string a = RandomString(rng, la, alphabet);
    const std::string b = RandomString(rng, lb, alphabet);
    ASSERT_TRUE(BitParallelEditDistanceApplies(a.size(), b.size()));
    ASSERT_EQ(BitParallelEditDistance(a, b), LevenshteinDistance(a, b))
        << "trial " << trial << " a=" << a << " b=" << b;
  }
}

TEST(LevenshteinDispatchTest, SameAnswerWithAndWithoutMyers) {
  // LevenshteinDistance itself routes through Myers when SIMD is active;
  // the answer must not depend on the tier.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"jonathan", "johnathan"},
      {"database systems", "databse systms"},
      {"", "nonempty"},
      {std::string(64, 'x'), std::string(64, 'y')},
  };
  for (const auto& [a, b] : cases) {
    size_t scalar_answer = 0;
    {
      ScopedSimdLevel scoped(SimdLevel::kScalar);
      scalar_answer = LevenshteinDistance(a, b);
    }
    {
      ScopedSimdLevel scoped(SimdLevel::kAvx2);
      EXPECT_EQ(LevenshteinDistance(a, b), scalar_answer) << a << " / " << b;
    }
  }
}

// ------------------------------------------------------ Dispatch plumbing.

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse42), "sse4.2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatchTest, TestOverrideClampsAndClears) {
  SetSimdLevelForTesting(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdLevelForTesting(SimdLevel::kAvx2);
  // Clamped to the machine's real capability: never above detection.
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectCpuSimdLevel()));
  ClearSimdLevelForTesting();
}

TEST(SimdDispatchTest, ForceScalarEnvParsing) {
  EXPECT_TRUE(ForceScalarEnvValue("1"));
  EXPECT_TRUE(ForceScalarEnvValue("true"));
  EXPECT_TRUE(ForceScalarEnvValue("yes"));
  EXPECT_TRUE(ForceScalarEnvValue("on"));
  EXPECT_FALSE(ForceScalarEnvValue("0"));
  EXPECT_FALSE(ForceScalarEnvValue(""));
  EXPECT_FALSE(ForceScalarEnvValue("false"));
  EXPECT_FALSE(ForceScalarEnvValue(nullptr));
}

}  // namespace
}  // namespace grouplink
