// Storage differential suite (the tentpole's proof obligation): the
// disk-backed paged read path (StoredCorpus) must produce link sets
// bit-identical to the in-RAM snapshot — for writers built at 1/2/7
// threads, at every buffer budget down to a pathologically tiny
// one-frame pool, under admission-control options that degrade the
// query, and under concurrent readers. The whole suite is
// registered a second time with GROUPLINK_FORCE_SCALAR=1
// (storage_differential_force_scalar), proving the identity holds with
// the SIMD kernels disabled too.
#include "storage/stored_corpus.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"

namespace grouplink {
namespace storage {
namespace {

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
  // This binary is registered twice (plain + GROUPLINK_FORCE_SCALAR) and
  // ctest may run both processes concurrently: paths must not collide.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Builds a mid-stream epoch (arrivals + a removal, so tombstones are in
/// play), persists it with small pages (forcing real paging), and
/// returns the in-RAM truth.
std::shared_ptr<const CorpusSnapshot> BuildStore(const Dataset& dataset,
                                                 int32_t num_threads,
                                                 const std::string& path) {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  config.num_threads = num_threads;
  auto linker = IncrementalLinker::Create(dataset, config);
  GL_CHECK(linker.ok());
  (void)linker->AddGroup("late arrival",
                         {"freshly arrived record text", "with novel tokens"});
  linker->RemoveGroup(2);
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  StorageOptions options;
  options.page_bytes = 512;  // Small pages: many of them, real paging.
  GL_CHECK(SnapshotStore::Persist(*snapshot, path, options).ok());
  return snapshot;
}

void ExpectIdenticalAnswers(const CorpusSnapshot& truth,
                            const StoredCorpus& stored, const Dataset& probes,
                            const CorpusSnapshot::QueryOptions& options,
                            const std::string& context) {
  for (int32_t g = 0; g < probes.num_groups(); ++g) {
    const GroupArrival probe{"probe", GroupTexts(probes, g)};
    const auto want = truth.LinkQuery(probe, options);
    const auto got = stored.LinkQuery(probe, options);
    ASSERT_TRUE(got.ok()) << context << " probe " << g << ": "
                          << got.status().message();
    EXPECT_EQ(got->linked_to, want.linked_to) << context << " probe " << g;
    EXPECT_EQ(got->candidates, want.candidates) << context << " probe " << g;
    EXPECT_EQ(got->postings_scanned, want.postings_scanned) << context << " probe " << g;
    EXPECT_EQ(got->oov_tokens, want.oov_tokens) << context << " probe " << g;
    EXPECT_EQ(got->epoch, want.epoch) << context << " probe " << g;
    EXPECT_EQ(got->degraded, want.degraded) << context << " probe " << g;
  }
}

// Admission-control settings both paths must degrade under identically:
// none, candidate caps of 1 and 3, a matcher budget every pair exceeds,
// and a token cancelled before the query starts.
std::vector<std::pair<std::string, CorpusSnapshot::QueryOptions>> AdmissionOptions() {
  std::vector<std::pair<std::string, CorpusSnapshot::QueryOptions>> all(5);
  all[0].first = "unconstrained";
  all[1].first = "cap=1";
  all[1].second.max_candidate_pairs = 1;
  all[2].first = "cap=3";
  all[2].second.max_candidate_pairs = 3;
  all[3].first = "matcher_cost=1";
  all[3].second.max_matcher_cost = 1;
  all[4].first = "cancelled";
  all[4].second.cancellation.Cancel();
  return all;
}

TEST(StorageDifferentialTest, PagedPathMatchesInRamAcrossThreadsAndBudgets) {
  const Dataset dataset = MakeCorpus(25, 77);
  const Dataset probes = MakeCorpus(10, 991);
  for (const int32_t num_threads : {1, 2, 7}) {
    const std::string path = StorePath("diff_threads.glsnap");
    const auto truth = BuildStore(dataset, num_threads, path);
    // Budgets from pathologically tiny (one frame — every read a miss)
    // to larger-than-the-store (no evictions at all).
    for (const size_t pool_pages : {size_t{1}, size_t{2}, size_t{7}, size_t{4096}}) {
      StorageOptions options;
      options.buffer_pool_pages = pool_pages;
      const auto stored = StoredCorpus::Open(path, options);
      ASSERT_TRUE(stored.ok()) << stored.status().message();
      EXPECT_EQ((*stored)->epoch(), truth->epoch());
      EXPECT_EQ((*stored)->num_groups(), truth->num_groups());
      const std::string context = "threads=" + std::to_string(num_threads) +
                                  " pool=" + std::to_string(pool_pages);
      for (const auto& [name, query_options] : AdmissionOptions()) {
        ExpectIdenticalAnswers(*truth, **stored, probes, query_options,
                               context + " " + name);
      }
      // The paged path must actually have paged: with one frame, every
      // page transition is a miss.
      const BufferStats stats = (*stored)->buffer_stats();
      EXPECT_GT(stats.misses, 0u) << context;
      if (pool_pages == 1) {
        EXPECT_GT(stats.evictions, 0u) << context;
      }
    }
    ASSERT_TRUE(RemoveFile(path).ok());
  }
}

TEST(StorageDifferentialTest, ConcurrentReadersOnATinyPoolStayBitIdentical) {
  // 7 reader threads hammer one StoredCorpus with a 4-frame pool; every
  // answer that comes back must be exactly the in-RAM one. Each query
  // pins one page at a time, but 7 concurrent single-pin readers can
  // still transiently exhaust 4 frames — Pin never blocks (DESIGN.md
  // §12) — so exhaustion must surface as clean kFailedPrecondition and
  // succeed on retry; any other error, or a divergent answer, fails.
  const Dataset dataset = MakeCorpus(20, 5);
  const Dataset probes = MakeCorpus(6, 55);
  const std::string path = StorePath("diff_concurrent.glsnap");
  const auto truth = BuildStore(dataset, 2, path);
  StorageOptions options;
  options.buffer_pool_pages = 4;
  const auto stored = StoredCorpus::Open(path, options);
  ASSERT_TRUE(stored.ok());

  // Precompute the expected answers serially.
  std::vector<std::vector<int32_t>> expected;
  for (int32_t g = 0; g < probes.num_groups(); ++g) {
    expected.push_back(truth->LinkQuery({"probe", GroupTexts(probes, g)}).linked_to);
  }

  constexpr int kThreads = 7;
  constexpr int kRoundsPerThread = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const int32_t g =
            static_cast<int32_t>((t + round) % probes.num_groups());
        const GroupArrival probe{"probe", GroupTexts(probes, g)};
        auto got = (*stored)->LinkQuery(probe);
        for (int spin = 0; !got.ok() && spin < 10000 &&
             got.status().code() == StatusCode::kFailedPrecondition;
             ++spin) {
          std::this_thread::yield();  // Pool exhausted: retryable.
          got = (*stored)->LinkQuery(probe);
        }
        if (!got.ok()) {
          ++failures;
        } else if (got->linked_to != expected[static_cast<size_t>(g)]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(StorageDifferentialTest, OneFramePoolNeverExhaustsAndCountsEvictions) {
  const Dataset dataset = MakeCorpus(15, 9);
  const std::string path = StorePath("diff_one_frame.glsnap");
  const auto truth = BuildStore(dataset, 1, path);
  StorageOptions options;
  options.buffer_pool_pages = 1;
  const auto stored = StoredCorpus::Open(path, options);
  ASSERT_TRUE(stored.ok());
  ExpectIdenticalAnswers(*truth, **stored, dataset, {}, "pool=1 self-probes");
  const BufferStats stats = (*stored)->buffer_stats();
  EXPECT_GT(stats.evictions, 0u);
  ASSERT_TRUE(RemoveFile(path).ok());
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
