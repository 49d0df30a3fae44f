#include "index/inverted_index.h"

#include <gtest/gtest.h>

namespace grouplink {
namespace {

using Doc = std::vector<int32_t>;

TEST(InvertedIndexTest, SequentialIds) {
  InvertedIndex index;
  EXPECT_EQ(index.AddDocument({0, 1}), 0);
  EXPECT_EQ(index.AddDocument({1, 2}), 1);
  EXPECT_EQ(index.num_documents(), 2);
}

TEST(InvertedIndexTest, PostingsSortedByDocument) {
  InvertedIndex index;
  index.AddDocument({0, 1});
  index.AddDocument({1});
  index.AddDocument({0, 1, 2});
  EXPECT_EQ(index.Postings(1), (Doc{0, 1, 2}));
  EXPECT_EQ(index.Postings(0), (Doc{0, 2}));
  EXPECT_EQ(index.Postings(2), (Doc{2}));
}

TEST(InvertedIndexTest, MissingTokenHasEmptyPostings) {
  InvertedIndex index;
  index.AddDocument({0});
  EXPECT_TRUE(index.Postings(99).empty());
  EXPECT_TRUE(index.Postings(-1).empty());
}

TEST(InvertedIndexTest, DocumentsSharingToken) {
  InvertedIndex index;
  index.AddDocument({0, 1});     // doc 0
  index.AddDocument({2});        // doc 1
  index.AddDocument({1, 2});     // doc 2
  index.AddDocument({3});        // doc 3
  EXPECT_EQ(index.DocumentsSharingToken({1}), (Doc{0, 2}));
  EXPECT_EQ(index.DocumentsSharingToken({1, 2}), (Doc{0, 1, 2}));
  EXPECT_TRUE(index.DocumentsSharingToken({9}).empty());
  EXPECT_TRUE(index.DocumentsSharingToken({}).empty());
}

TEST(InvertedIndexTest, EmptyDocumentAllowed) {
  // An empty document takes an id and no posting.
  InvertedIndex index;
  EXPECT_EQ(index.AddDocument({}), 0);
  EXPECT_EQ(index.AddDocument({0}), 1);
  EXPECT_EQ(index.num_documents(), 2);
  EXPECT_EQ(index.Postings(0), (Doc{1}));
}

}  // namespace
}  // namespace grouplink
