// E19 (beyond the paper) — Out-of-core persistent index tier.
//
// Three questions, one harness:
//
//   1. Restart cost. Cold restart rebuilds the writer from the raw seed
//      corpus (tokenize + vectorize + full refresh); warm restart
//      recovers the persisted store (SnapshotStore::Load, every page
//      checksum-verified) and rebuilds the writer via
//      IncrementalLinker::FromSnapshot. Reports both, the warm restart's
//      split into those two steps, and the speedup.
//
//   2. Serving beyond RAM. StoredCorpus answers LinkQuery through a
//      fixed buffer-pool budget; the sweep runs the same probe set at
//      3-4 budgets (from a few frames to store-sized) and reports QPS,
//      pages read, evictions, and links found per budget — the
//      pages-read-vs-links-found tradeoff the tier exists to expose.
//
//   3. Correctness while doing it. At every budget the paged answers
//      are checked against the in-RAM snapshot (bit-identical link
//      sets), and the warm-restarted writer's link set must equal the
//      cold writer's.
//
// The metrics snapshot embedded in BENCH_e19.json carries the
// storage.pages_read / storage.evictions / storage.recoveries counters
// CI asserts on.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "core/snapshot.h"
#include "eval/table.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"
#include "storage/stored_corpus.h"

namespace {

using namespace grouplink;

std::vector<std::string> GroupTexts(const Dataset& dataset, int32_t group) {
  std::vector<std::string> texts;
  for (const int32_t r : dataset.groups[static_cast<size_t>(group)].record_ids) {
    texts.push_back(dataset.records[static_cast<size_t>(r)].text);
  }
  return texts;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("entities", 150, "bibliographic entities in the corpus");
  flags.AddInt64("page-bytes", 1024, "on-disk page size of the store");
  flags.AddString("budget-sweep", "2,16,128,4096",
                  "buffer-pool budgets (pages) for the paged-serving sweep");
  flags.AddInt64("query-rounds", 3, "passes over the probe set per budget");
  flags.AddString("store-path", "", "store file ('' = <tmp>/bench_e19.glsnap)");
  flags.AddString("metrics-json", "BENCH_e19.json",
                  "unified metrics report output path ('' to skip)");
  flags.AddBool("smoke", false, "tiny CI workload (overrides size knobs)");
  GL_CHECK(flags.Parse(argc, argv).ok());
  const bool smoke = flags.GetBool("smoke");
  const int64_t entities = smoke ? 20 : flags.GetInt64("entities");
  const std::string sweep_text = smoke ? "1,4,64" : flags.GetString("budget-sweep");
  const int64_t query_rounds = smoke ? 1 : std::max<int64_t>(1, flags.GetInt64("query-rounds"));
  std::string store_path = flags.GetString("store-path");
  if (store_path.empty()) {
    const char* tmpdir = std::getenv("TMPDIR");
    store_path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                 "/bench_e19.glsnap";
  }

  std::vector<size_t> budget_sweep;
  for (const std::string& t : Split(sweep_text, ',')) {
    const auto parsed = ParseInt64(t);
    GL_CHECK(parsed.ok()) << t;
    budget_sweep.push_back(static_cast<size_t>(std::max<int64_t>(1, *parsed)));
  }
  GL_CHECK(!budget_sweep.empty());

  LinkageConfig config;
  config.theta = bench::kTheta;
  config.group_threshold = bench::kGroupThreshold;

  const Dataset dataset = GenerateBibliographic(
      bench::HardBibliographic(static_cast<int32_t>(entities), 0.25));
  // Probes: a disjoint stream of future arrivals (same topics, so they
  // hit real candidates) plus every 8th corpus group replayed (links
  // guaranteed at every budget).
  const Dataset future = GenerateBibliographic(bench::HardBibliographic(
      static_cast<int32_t>(std::max<int64_t>(4, entities / 4)), 0.25, 1042));
  std::vector<GroupArrival> probes;
  for (int32_t g = 0; g < future.num_groups(); ++g) {
    probes.push_back({"future", GroupTexts(future, g)});
  }
  for (int32_t g = 0; g < dataset.num_groups(); g += 8) {
    probes.push_back({"replay", GroupTexts(dataset, g)});
  }

  std::printf(
      "E19: out-of-core persistent index tier (theta=%.2f, Theta=%.2f, "
      "%d groups, %d records, %zu probes, page=%lld B)\n\n",
      bench::kTheta, bench::kGroupThreshold, dataset.num_groups(),
      dataset.num_records(), probes.size(),
      static_cast<long long>(flags.GetInt64("page-bytes")));

  std::vector<RunReport> reports;

  // --- Part 1: cold vs warm restart ---

  WallTimer cold_timer;
  auto cold = IncrementalLinker::Create(dataset, config);
  GL_CHECK(cold.ok()) << cold.status().ToString();
  const double cold_seconds = cold_timer.ElapsedSeconds();
  const auto snapshot = CorpusSnapshot::Capture(*cold);

  storage::StorageOptions store_options;
  store_options.page_bytes =
      static_cast<uint32_t>(flags.GetInt64("page-bytes"));
  WallTimer persist_timer;
  GL_CHECK(storage::SnapshotStore::Persist(*snapshot, store_path, store_options)
               .ok());
  const double persist_seconds = persist_timer.ElapsedSeconds();

  WallTimer warm_timer;
  auto recovered = storage::SnapshotStore::Load(store_path);
  GL_CHECK(recovered.ok()) << recovered.status().ToString();
  const double load_seconds = warm_timer.ElapsedSeconds();
  auto warm = IncrementalLinker::FromSnapshot(**recovered);
  GL_CHECK(warm.ok()) << warm.status().ToString();
  const double warm_seconds = warm_timer.ElapsedSeconds();
  const double rebuild_seconds = warm_seconds - load_seconds;
  GL_CHECK((*warm)->linked_pairs() == cold->linked_pairs())
      << "warm restart diverged from the cold build";
  GL_CHECK((*warm)->epoch() == cold->epoch());

  const double restart_speedup = cold_seconds / std::max(warm_seconds, 1e-9);
  TextTable restart_table({"path", "seconds", "links"});
  restart_table.AddRow({"cold (rebuild from corpus)", FormatDouble(cold_seconds, 3),
                        std::to_string(cold->linked_pairs().size())});
  restart_table.AddRow({"warm (recover store)", FormatDouble(warm_seconds, 3),
                        std::to_string((*warm)->linked_pairs().size())});
  std::printf("%s", restart_table.ToString().c_str());
  std::printf(
      "\nPersist: %.3f s. Warm restart (load %.3f s + writer rebuild %.3f s) "
      "is %.1fx the cold rebuild.\n\n",
      persist_seconds, load_seconds, rebuild_seconds, restart_speedup);

  {
    RunReport report;
    report.strategy = "storage-restart";
    report.candidate_method = "score-accumulation";
    report.measure = "bm";
    report.threads = 1;
    report.records = dataset.num_records();
    report.groups = dataset.num_groups();
    report.links = static_cast<int64_t>(cold->linked_pairs().size());
    report.AddStage("cold-restart", cold_seconds);
    report.AddStage("persist", persist_seconds);
    report.AddStage("warm-restart", warm_seconds);
    // The warm restart's two steps. They split warm-restart, so this
    // run's seconds_total counts the warm restart twice.
    report.AddStage("load", load_seconds);
    report.AddStage("rebuild", rebuild_seconds);
    report.AddExtra("restart_speedup", restart_speedup);
    reports.push_back(std::move(report));
  }

  // --- Part 2: paged serving across buffer budgets ---

  TextTable budget_table({"budget (pages)", "queries", "links", "qps",
                          "pages read", "hits", "evictions"});
  for (const size_t budget : budget_sweep) {
    storage::StorageOptions open_options;
    open_options.buffer_pool_pages = budget;
    auto stored = storage::StoredCorpus::Open(store_path, open_options);
    GL_CHECK(stored.ok()) << stored.status().ToString();

    size_t queries = 0;
    size_t links = 0;
    WallTimer timer;
    for (int64_t round = 0; round < query_rounds; ++round) {
      for (const GroupArrival& probe : probes) {
        auto answer = (*stored)->LinkQuery(probe);
        GL_CHECK(answer.ok()) << answer.status().ToString();
        links += answer->linked_to.size();
        ++queries;
      }
    }
    const double seconds = timer.ElapsedSeconds();
    const double qps = static_cast<double>(queries) / std::max(seconds, 1e-9);

    // Correctness at this budget: the paged path must be bit-identical
    // to the in-RAM snapshot on every probe.
    for (const GroupArrival& probe : probes) {
      const auto want = snapshot->LinkQuery(probe);
      const auto got = (*stored)->LinkQuery(probe);
      GL_CHECK(got.ok());
      GL_CHECK(got->linked_to == want.linked_to)
          << "paged link set diverged at budget " << budget;
    }

    const storage::BufferStats stats = (*stored)->buffer_stats();
    budget_table.AddRow({std::to_string(budget), std::to_string(queries),
                         std::to_string(links), FormatDouble(qps, 0),
                         std::to_string(stats.misses),
                         std::to_string(stats.hits),
                         std::to_string(stats.evictions)});

    RunReport report;
    report.strategy = "storage-budget-" + std::to_string(budget);
    report.candidate_method = "score-accumulation";
    report.measure = "bm";
    report.threads = 1;
    report.records = dataset.num_records();
    report.groups = dataset.num_groups();
    report.links = static_cast<int64_t>(links);
    report.AddStage("serve", seconds)
        .AddCounter("queries", static_cast<int64_t>(queries))
        .AddCounter("pages_read", static_cast<int64_t>(stats.misses))
        .AddCounter("buffer_hits", static_cast<int64_t>(stats.hits))
        .AddCounter("evictions", static_cast<int64_t>(stats.evictions));
    report.AddExtra("qps", qps);
    reports.push_back(std::move(report));
  }
  std::printf("%s", budget_table.ToString().c_str());
  std::printf(
      "\nPaged answers were bit-identical to the in-RAM snapshot at every "
      "budget (checked), and the warm-restarted writer matched the cold "
      "build (checked).\n");

  GL_CHECK(storage::RemoveFile(store_path).ok());
  return bench::ExitCode(bench::WriteMetricsJson(flags.GetString("metrics-json"),
                                                 "e19_storage", reports));
}
