// SnapshotStore round-trip suite: Persist followed by Load reproduces a
// sealed snapshot bit-identically (link set, cluster labels, every query
// surface), across page sizes, after remove/merge mutations, and through
// the warm-restart writer rebuild (IncrementalLinker::FromSnapshot). Every
// stored posting list decodes to the snapshot's own, weight bits
// included, and a snapshot whose weights cannot be rebuilt from its raw
// tokens is refused before anything is written.
#include "storage/snapshot_store.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"
#include "storage/store_format.h"

namespace grouplink {
namespace storage {
namespace {

LinkageConfig TestConfig() {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  return config;
}

Dataset MakeCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 5;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return GenerateBibliographic(config);
}

std::vector<std::string> GroupTexts(const Dataset& dataset, int32_t group) {
  std::vector<std::string> texts;
  for (const int32_t r : dataset.groups[static_cast<size_t>(group)].record_ids) {
    texts.push_back(dataset.records[static_cast<size_t>(r)].text);
  }
  return texts;
}

std::string StorePath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Every public answer of the two snapshots must agree exactly.
void ExpectSnapshotsEquivalent(const CorpusSnapshot& a, const CorpusSnapshot& b,
                               const Dataset& probes) {
  EXPECT_EQ(a.epoch(), b.epoch());
  EXPECT_EQ(a.num_groups(), b.num_groups());
  EXPECT_EQ(a.num_alive_groups(), b.num_alive_groups());
  EXPECT_EQ(a.num_records(), b.num_records());
  EXPECT_EQ(a.linked_pairs(), b.linked_pairs());
  EXPECT_EQ(a.cluster_labels(), b.cluster_labels());
  for (int32_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.IsAlive(g), b.IsAlive(g)) << g;
    if (a.IsAlive(g)) {
      EXPECT_EQ(a.label(g), b.label(g)) << g;
    }
  }
  for (int32_t g = 0; g < probes.num_groups(); ++g) {
    const GroupArrival probe{"probe", GroupTexts(probes, g)};
    const auto qa = a.LinkQuery(probe);
    const auto qb = b.LinkQuery(probe);
    EXPECT_EQ(qa.linked_to, qb.linked_to) << "probe " << g;
    EXPECT_EQ(qa.candidates, qb.candidates) << "probe " << g;
    EXPECT_EQ(qa.oov_tokens, qb.oov_tokens) << "probe " << g;
  }
}

TEST(SnapshotStoreTest, PersistLoadRoundTripsAFreshEpoch) {
  const Dataset dataset = MakeCorpus(30, 7);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const std::string path = StorePath("round_trip.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());
  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE((*loaded)->CheckConsistency());
  ExpectSnapshotsEquivalent(*snapshot, **loaded, dataset);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, RoundTripSurvivesRemovalsMergesAndArrivals) {
  // A mid-stream epoch with tombstones everywhere: removed groups,
  // merged groups, un-refreshed arrivals (OOV vectors), uncompacted
  // postings. The store must reproduce all of it.
  const Dataset dataset = MakeCorpus(25, 21);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  (void)linker->AddGroup("late arrival", {"totally new tokens here",
                                          "more unseen words arrive"});
  linker->RemoveGroup(1);
  (void)linker->MergeGroups(2, 3);
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  const std::string path = StorePath("mutated.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());
  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectSnapshotsEquivalent(*snapshot, **loaded, dataset);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, EveryDecodedListEqualsTheSnapshotPostingsBitForBit) {
  // Every third record repeats a token (tf > 1), then arrivals, a removal
  // and a merge leave tombstones and un-refreshed vectors behind.
  Dataset dataset = MakeCorpus(20, 5);
  for (size_t r = 0; r < dataset.records.size(); r += 3) {
    dataset.records[r].text += " linkage linkage linkage";
  }
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  (void)linker->AddGroup("arrival", {"linkage linkage of unseen words", "linkage"});
  linker->RemoveGroup(4);
  (void)linker->MergeGroups(6, 7);
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  const std::string path = StorePath("decoded_lists.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());

  auto file = PageFile::Open(path);
  ASSERT_TRUE(file.ok());
  const auto info = ReadStoreInfo(**file);
  ASSERT_TRUE(info.ok());
  const auto meta_bytes = ReadWholeSegment(**file, *info, kMeta);
  const auto dir_bytes = ReadWholeSegment(**file, *info, kPostingsDir);
  const auto postings_bytes = ReadWholeSegment(**file, *info, kPostings);
  ASSERT_TRUE(meta_bytes.ok() && dir_bytes.ok() && postings_bytes.ok());
  MetaData meta;
  ASSERT_TRUE(DecodeMeta(*meta_bytes, &meta).ok());
  std::vector<uint64_t> offsets;
  ASSERT_TRUE(DecodeDirectory(*dir_bytes, snapshot->epoch_vocab().size(),
                              postings_bytes->size(), &offsets)
                  .ok());
  // The lists take far less than the 8-byte weights of format 3 would.
  size_t entries = 0;
  PostingList decoded;
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    decoded.clear();
    ASSERT_TRUE(DecodePostingList(postings_bytes->data() + offsets[t],
                                  offsets[t + 1] - offsets[t], snapshot->idf_table()[t],
                                  meta.record_norm, &decoded)
                    .ok());
    const PostingList& want = snapshot->postings().List(static_cast<int32_t>(t));
    ASSERT_EQ(decoded.size(), want.size()) << "token " << t;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(decoded[i].record, want[i].record) << "token " << t;
      EXPECT_EQ(std::bit_cast<uint64_t>(decoded[i].weight),
                std::bit_cast<uint64_t>(want[i].weight))
          << "token " << t << " record " << want[i].record;
    }
    entries += want.size();
  }
  EXPECT_GT(entries, 0u);
  EXPECT_LT(postings_bytes->size(), 3 * entries);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, PersistOfWeightsThatDoNotRebuildWritesNothing) {
  const Dataset dataset = MakeCorpus(10, 9);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto captured = CorpusSnapshot::Capture(*linker);
  CorpusSnapshot::Parts parts;
  parts.config = captured->engine_config();
  parts.epoch = captured->epoch();
  parts.index_vocab = captured->index_vocab();
  parts.token_index = captured->token_index();
  parts.epoch_vocab = captured->epoch_vocab();
  parts.record_vectors = captured->record_vectors();
  parts.record_group = captured->record_group();
  parts.record_token_ids = captured->record_token_ids();
  parts.group_records = captured->group_records();
  parts.group_labels = captured->group_labels();
  parts.group_alive = captured->group_alive();
  parts.num_alive_groups = captured->num_alive_groups();
  parts.linked_pairs = captured->linked_pairs();
  parts.cluster_labels = captured->cluster_labels();
  // One weight one ulp off: a consistent epoch no tf and norm can store.
  double& weight = parts.record_vectors[0].weights.back();
  weight = std::nextafter(weight, 2.0);
  const auto skewed = CorpusSnapshot::FromParts(std::move(parts));
  ASSERT_TRUE(skewed.ok()) << skewed.status().message();

  const std::string path = StorePath("unrebuildable.glsnap");
  (void)RemoveFile(path);
  const Status status = SnapshotStore::Persist(**skewed, path);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.message();
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  // The captured epoch itself persists.
  ASSERT_TRUE(SnapshotStore::Persist(*captured, path).ok());
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, EveryPageSizeYieldsTheSameSnapshot) {
  const Dataset dataset = MakeCorpus(20, 3);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);

  for (const uint32_t page_bytes : {kMinPageBytes, 1024u, 4096u, 65536u}) {
    const std::string path = StorePath("page_size.glsnap");
    StorageOptions options;
    options.page_bytes = page_bytes;
    ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path, options).ok());
    const auto loaded = SnapshotStore::Load(path);
    ASSERT_TRUE(loaded.ok()) << "page_bytes " << page_bytes << ": "
                             << loaded.status().message();
    ExpectSnapshotsEquivalent(*snapshot, **loaded, dataset);
    ASSERT_TRUE(RemoveFile(path).ok());
  }
}

TEST(SnapshotStoreTest, PersistReplacesThePreviousStoreAtomically) {
  const Dataset dataset = MakeCorpus(15, 11);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const std::string path = StorePath("replace.glsnap");

  const auto first = CorpusSnapshot::Capture(*linker);
  ASSERT_TRUE(SnapshotStore::Persist(*first, path).ok());
  (void)linker->AddGroup("next epoch", {"brand new record text"});
  linker->Refresh();
  const auto second = CorpusSnapshot::Capture(*linker);
  ASSERT_TRUE(SnapshotStore::Persist(*second, path).ok());

  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->epoch(), second->epoch());
  EXPECT_EQ((*loaded)->num_groups(), second->num_groups());
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(SnapshotStoreTest, MissingStoreIsNotFoundAndBadPageSizeIsInvalid) {
  EXPECT_EQ(SnapshotStore::Load(StorePath("does_not_exist.glsnap")).status().code(),
            StatusCode::kNotFound);

  const Dataset dataset = MakeCorpus(5, 1);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  StorageOptions tiny;
  tiny.page_bytes = 64;  // Below kMinPageBytes.
  EXPECT_EQ(SnapshotStore::Persist(*snapshot, StorePath("x.glsnap"), tiny).code(),
            StatusCode::kInvalidArgument);
  StorageOptions huge;
  huge.page_bytes = kMaxPageBytes * 2;
  EXPECT_EQ(SnapshotStore::Persist(*snapshot, StorePath("x.glsnap"), huge).code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotStoreTest, WarmRestartLinkerContinuesBitIdentically) {
  // The decisive warm-restart property: a writer rebuilt from the store
  // must link a stream of future arrivals exactly like the writer that
  // never stopped — including through a refresh, which rebuilds the
  // epoch statistics from the recovered raw tokens.
  const Dataset dataset = MakeCorpus(25, 42);
  auto original = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(original.ok());
  (void)original->AddGroup("pre-persist arrival", {"some new tokens appear"});

  const auto snapshot = CorpusSnapshot::Capture(*original);
  const std::string path = StorePath("warm_restart.glsnap");
  ASSERT_TRUE(SnapshotStore::Persist(*snapshot, path).ok());
  const auto loaded = SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  auto restarted = IncrementalLinker::FromSnapshot(**loaded);
  ASSERT_TRUE(restarted.ok()) << restarted.status().message();

  EXPECT_EQ((*restarted)->epoch(), original->epoch());
  EXPECT_EQ((*restarted)->linked_pairs(), original->linked_pairs());
  EXPECT_EQ((*restarted)->ClusterLabels(), original->ClusterLabels());

  const Dataset future = MakeCorpus(8, 1234);
  for (int32_t g = 0; g < future.num_groups(); ++g) {
    const auto a = original->AddGroup("arrival", GroupTexts(future, g));
    const auto b = (*restarted)->AddGroup("arrival", GroupTexts(future, g));
    EXPECT_EQ(a.group_index, b.group_index) << g;
    EXPECT_EQ(a.linked_to, b.linked_to) << g;
    EXPECT_EQ(a.candidates, b.candidates) << g;
    EXPECT_EQ(a.oov_tokens, b.oov_tokens) << g;
  }
  original->Refresh();
  (*restarted)->Refresh();
  EXPECT_EQ((*restarted)->linked_pairs(), original->linked_pairs());
  EXPECT_EQ((*restarted)->epoch(), original->epoch());
  ASSERT_TRUE(RemoveFile(path).ok());
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
