// Storage differential suite (the tentpole's proof obligation): the
// disk-backed paged read path (StoredCorpus) must produce link sets
// bit-identical to the in-RAM snapshot — for writers built at 1/2/7
// threads, at every buffer budget down to a pathologically tiny
// one-frame pool, under admission-control options that degrade the
// query, and under concurrent readers, also when one posting page goes
// bad under them. One fetch pins each page of its lists once. The whole
// suite is registered a second time with GROUPLINK_FORCE_SCALAR=1
// (storage_differential_force_scalar), proving the identity holds with
// the SIMD kernels disabled too.
#include "storage/stored_corpus.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"
#include "storage/store_format.h"
#include "support/run_together.h"

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

/// Where a store keeps its posting lists: the kPostings segment's first
/// page, the bytes and payload bytes of a page, and each epoch token's
/// byte range.
struct PostingsLayout {
  uint64_t first_page = 0;
  uint64_t page_bytes = 0;
  uint64_t capacity = 0;
  std::vector<uint64_t> offsets;  // Token t: [offsets[t], offsets[t + 1]).

  /// The pages the lists of `tokens` (ascending) span, ascending.
  std::vector<uint64_t> PagesOf(const std::vector<int32_t>& tokens) const {
    std::vector<uint64_t> pages;
    for (const int32_t token : tokens) {
      const uint64_t begin = offsets[static_cast<size_t>(token)];
      const uint64_t end = offsets[static_cast<size_t>(token) + 1];
      if (begin == end) continue;
      for (uint64_t p = first_page + begin / capacity;
           p <= first_page + (end - 1) / capacity; ++p) {
        if (pages.empty() || pages.back() != p) pages.push_back(p);
      }
    }
    return pages;
  }
};

PostingsLayout ReadPostingsLayout(const std::string& path, size_t num_tokens) {
  auto file = PageFile::Open(path);
  GL_CHECK(file.ok());
  const auto info = ReadStoreInfo(**file);
  GL_CHECK(info.ok());
  const auto directory = ReadWholeSegment(**file, *info, kPostingsDir);
  GL_CHECK(directory.ok());
  PostingsLayout layout;
  layout.first_page = info->segments[kPostings].first_page;
  layout.page_bytes = info->page_bytes;
  layout.capacity = PagePayloadCapacity(info->page_bytes);
  GL_CHECK(DecodeDirectory(*directory, num_tokens, info->segments[kPostings].length,
                           &layout.offsets)
               .ok());
  return layout;
}

/// A QueryCorpus over another that records the tokens of every fetch, so
/// a test knows which posting lists — hence which pages — a query reads.
class FetchRecorder final : public QueryCorpus {
 public:
  explicit FetchRecorder(const QueryCorpus& corpus) : corpus_(corpus) {}

  /// The tokens RunLinkQuery fetches for `probe`.
  std::vector<int32_t> TokensOf(const GroupArrival& probe) {
    tokens_.clear();
    GL_CHECK(RunLinkQuery(*this, probe, {}).ok());
    return tokens_;
  }

  const LinkageConfig& engine_config() const override { return corpus_.engine_config(); }
  int64_t epoch() const override { return corpus_.epoch(); }
  const Vocabulary& epoch_vocab() const override { return corpus_.epoch_vocab(); }
  std::span<const double> idf_table() const override { return corpus_.idf_table(); }
  Status FetchPostings(std::span<const int32_t> tokens,
                       FetchedPostings* out) const override {
    tokens_.insert(tokens_.end(), tokens.begin(), tokens.end());
    return corpus_.FetchPostings(tokens, out);
  }
  const std::vector<int32_t>& record_group() const override {
    return corpus_.record_group();
  }
  const std::vector<int32_t>& GroupRecords(int32_t g) const override {
    return corpus_.GroupRecords(g);
  }

 private:
  const QueryCorpus& corpus_;
  mutable std::vector<int32_t> tokens_;
};

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
  RunTogether(kThreads, [&](int t) {
    for (int round = 0; round < kRoundsPerThread; ++round) {
      const int32_t g = static_cast<int32_t>((t + round) % probes.num_groups());
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

TEST(StorageDifferentialTest, OneFetchPinsEachPageOfItsListsOnce) {
  // Every third token's list: consecutive lists share pages and gaps skip
  // some. On a one-frame pool every pin is a miss, so hits == 0 and
  // misses == the distinct pages show that each page was pinned once.
  const Dataset dataset = MakeCorpus(25, 77);
  const std::string path = StorePath("diff_one_fetch.glsnap");
  const auto truth = BuildStore(dataset, 1, path);
  StorageOptions options;
  options.buffer_pool_pages = 1;
  const auto stored = StoredCorpus::Open(path, options);
  ASSERT_TRUE(stored.ok()) << stored.status().message();
  const PostingsLayout layout = ReadPostingsLayout(path, truth->epoch_vocab().size());

  std::vector<int32_t> tokens;
  size_t pins_per_list = 0;  // What pinning each list on its own would take.
  for (size_t t = 0; t < truth->epoch_vocab().size(); t += 3) {
    tokens.push_back(static_cast<int32_t>(t));
    pins_per_list += layout.PagesOf({static_cast<int32_t>(t)}).size();
  }
  const size_t pages = layout.PagesOf(tokens).size();
  ASSERT_GT(pages, 2u);
  ASSERT_GT(pins_per_list, pages) << "no two lists share a page";

  FetchedPostings got;
  ASSERT_TRUE((*stored)->FetchPostings(tokens, &got).ok());
  const BufferStats stats = (*stored)->buffer_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, pages);

  FetchedPostings want;
  ASSERT_TRUE(truth->FetchPostings(tokens, &want).ok());
  ASSERT_EQ(got.lists.size(), want.lists.size());
  for (size_t i = 0; i < want.lists.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(got.lists[i], want.lists[i])) << "token " << tokens[i];
  }
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(StorageDifferentialTest, APostingPageCorruptedAfterOpenFailsOnlyItsReaders) {
  // One posting page goes bad after Open. Concurrent queries that read it
  // get DataLoss — every one, since a failed read caches nothing — while
  // every other probe still answers exactly as the snapshot does.
  const Dataset dataset = MakeCorpus(20, 5);
  const std::string path = StorePath("diff_corrupt_page.glsnap");
  const auto truth = BuildStore(dataset, 2, path);
  constexpr int kThreads = 4;
  StorageOptions options;
  options.buffer_pool_pages = kThreads;  // One frame per reader: never exhausted.
  const auto stored = StoredCorpus::Open(path, options);
  ASSERT_TRUE(stored.ok()) << stored.status().message();
  const PostingsLayout layout = ReadPostingsLayout(path, truth->epoch_vocab().size());

  // Generated groups, whose common words reach most posting pages, and
  // one-word probes of every 7th epoch token, which read only the pages of
  // that token's list.
  std::vector<GroupArrival> probes;
  const Dataset generated = MakeCorpus(4, 55);
  for (int32_t g = 0; g < generated.num_groups(); ++g) {
    probes.push_back({"group", GroupTexts(generated, g)});
  }
  for (size_t t = 0; t < truth->epoch_vocab().size(); t += 7) {
    probes.push_back({"word", {truth->epoch_vocab().TokenOf(static_cast<int32_t>(t))}});
  }
  // The pages each probe reads, from the tokens the snapshot fetches.
  FetchRecorder recorder(*truth);
  std::vector<std::vector<uint64_t>> probe_pages;
  std::set<uint64_t> read_pages;
  for (const GroupArrival& probe : probes) {
    probe_pages.push_back(layout.PagesOf(recorder.TokensOf(probe)));
    read_pages.insert(probe_pages.back().begin(), probe_pages.back().end());
  }
  // The corrupt page: one that some probes read and others do not.
  const auto reads = [&](size_t p, uint64_t page) {
    return std::binary_search(probe_pages[p].begin(), probe_pages[p].end(), page);
  };
  const auto splits = [&](uint64_t page) {
    size_t readers = 0;
    for (size_t p = 0; p < probes.size(); ++p) readers += reads(p, page) ? 1 : 0;
    return readers > 0 && readers < probes.size();
  };
  const auto bad = std::find_if(read_pages.begin(), read_pages.end(), splits);
  ASSERT_NE(bad, read_pages.end()) << "every posting page is read by all probes or none";
  const uint64_t bad_page = *bad;
  {
    // Flip one payload bit on disk; the open store reads the new bytes.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const auto at =
        static_cast<std::streamoff>(bad_page * layout.page_bytes + kPageHeaderBytes + 3);
    file.seekg(at);
    const char byte = static_cast<char>(file.get() ^ 0x04);
    file.seekp(at);
    file.put(byte);
    ASSERT_TRUE(file.good());
  }

  std::vector<CorpusSnapshot::QueryResult> expected;
  for (const GroupArrival& probe : probes) expected.push_back(truth->LinkQuery(probe));
  constexpr int kRounds = 3;
  std::atomic<int> wrong{0};
  std::atomic<int> data_loss{0};
  std::atomic<int> answered{0};
  RunTogether(kThreads, [&](int t) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < probes.size(); ++i) {
        const size_t p = (i + static_cast<size_t>(t)) % probes.size();
        const auto got = (*stored)->LinkQuery(probes[p]);
        if (reads(p, bad_page)) {
          if (!got.ok() && got.status().code() == StatusCode::kDataLoss) {
            ++data_loss;
          } else {
            ++wrong;
          }
        } else if (got.ok() && got->linked_to == expected[p].linked_to &&
                   got->candidates == expected[p].candidates &&
                   got->postings_scanned == expected[p].postings_scanned) {
          ++answered;
        } else {
          ++wrong;
        }
      }
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(data_loss.load(), 0);
  EXPECT_GT(answered.load(), 0);
  ASSERT_TRUE(RemoveFile(path).ok());
}

}  // namespace
}  // namespace storage
}  // namespace grouplink
