// Tests for the GL_DCHECK debug-contract family and the library contracts
// built on it. NDEBUG is undefined before including logging.h, so the
// macros expanded in THIS translation unit are always the active flavor,
// whatever the build type. Contracts compiled into the library itself
// (inverted index, matcher, union-find) follow the library's build type;
// those tests consult DchecksEnabled() and skip in Release builds, where
// the contracts are compiled out by design.
#undef NDEBUG
#include "common/logging.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/union_find.h"
#include "index/inverted_index.h"
#include "matching/bipartite_graph.h"
#include "matching/hungarian.h"

namespace grouplink {
namespace {

TEST(DcheckActiveTest, PassingConditionIsSilent) {
  GL_DCHECK(1 + 1 == 2);
  GL_DCHECK_EQ(4, 4);
  GL_DCHECK_LE(3, 3);
  GL_DCHECK_LT(3, 4);
  GL_DCHECK_GE(4, 3);
  GL_DCHECK_GT(4, 3);
  GL_DCHECK_NE(4, 3);
}

TEST(DcheckActiveTest, ConditionEvaluatedExactlyOnce) {
  int calls = 0;
  const auto bump = [&calls] {
    ++calls;
    return true;
  };
  GL_DCHECK(bump());
  EXPECT_EQ(calls, 1);
}

TEST(DcheckActiveDeathTest, FiresOnViolation) {
  EXPECT_DEATH(GL_DCHECK(2 + 2 == 5), "Check failed: 2 \\+ 2 == 5");
}

TEST(DcheckActiveDeathTest, ComparisonMacrosPrintBothValues) {
  EXPECT_DEATH(GL_DCHECK_LE(3, 2), "3 vs 2");
  EXPECT_DEATH(GL_DCHECK_EQ(7, 9), "7 vs 9");
}

TEST(DcheckActiveDeathTest, StreamsExtraContext) {
  EXPECT_DEATH(GL_DCHECK(false) << "shard " << 4 << " broke", "shard 4 broke");
}

// --- Library contracts: planted violations must be caught when the
// library itself was compiled with contracts enabled. ---

#define SKIP_UNLESS_LIBRARY_CONTRACTS()                                    \
  if (!DchecksEnabled()) {                                                 \
    GTEST_SKIP() << "library built with NDEBUG; contracts compiled out";   \
  }

TEST(LibraryContractsDeathTest, UnsortedDocumentTokensCaught) {
  SKIP_UNLESS_LIBRARY_CONTRACTS();
  InvertedIndex index;
  EXPECT_DEATH((void)index.AddDocument({3, 1, 2}), "sorted");
}

TEST(LibraryContractsDeathTest, DuplicateDocumentTokensCaught) {
  SKIP_UNLESS_LIBRARY_CONTRACTS();
  InvertedIndex index;
  EXPECT_DEATH((void)index.AddDocument({1, 1, 2}), "unique");
}

TEST(LibraryContractsDeathTest, RaggedWeightMatrixCaught) {
  SKIP_UNLESS_LIBRARY_CONTRACTS();
  const std::vector<std::vector<double>> ragged = {{0.5, 0.5}, {0.5}};
  EXPECT_DEATH((void)HungarianMaxWeightMatchingDense(ragged),
               "rectangular, finite");
}

TEST(LibraryContractsDeathTest, NonFiniteWeightCaught) {
  SKIP_UNLESS_LIBRARY_CONTRACTS();
  const double nan = std::nan("");
  const std::vector<std::vector<double>> poisoned = {{0.5, nan}, {0.5, 0.5}};
  EXPECT_DEATH((void)HungarianMaxWeightMatchingDense(poisoned),
               "rectangular, finite");
}

TEST(LibraryContractsDeathTest, UnionFindOutOfBoundsCaught) {
  SKIP_UNLESS_LIBRARY_CONTRACTS();
  UnionFind uf(3);
  EXPECT_DEATH((void)uf.Find(7), "Check failed");
}

// The predicate behind the posting-sortedness contract is plain code, so
// its semantics are testable in every build type.
TEST(LibraryContractsTest, PostingsAreSortedHoldsOnHealthyIndex) {
  InvertedIndex index;
  (void)index.AddDocument({1, 2, 5});
  (void)index.AddDocument({2, 3});
  (void)index.AddDocument({1, 5});
  EXPECT_TRUE(index.PostingsAreSorted());
}

}  // namespace
}  // namespace grouplink
