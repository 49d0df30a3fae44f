// E17 (beyond the paper) — Streaming group linkage: batched arrivals
// against a live token index vs rerunning the batch engine from scratch.
//
// For each corpus size, half the groups seed the linker and the rest
// arrive in batches. Reports per-batch arrival latency percentiles, the
// cost of one epoch refresh vs a full batch rerun on the accumulated
// corpus, and asserts the convergence guarantee end to end: after the
// final refresh the streaming link set is *identical* to the batch
// engine's on the same corpus, and AddGroups is bit-identical at every
// thread count in --thread-sweep. Expected shape: absorbing a batch of
// arrivals costs an order of magnitude less than rerunning the pipeline,
// while a full epoch refresh costs about the same as the rerun (both
// rebuild the epoch statistics and rescore) — the streaming win is the
// cheap steady state between refreshes, not the refresh itself.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "eval/table.h"

namespace {

using namespace grouplink;

// Splits `full` into a seed prefix dataset and the remaining arrivals,
// rebasing the seed's record ids to a dense prefix.
void Split(const Dataset& full, int32_t seed_groups, Dataset* seed,
           std::vector<GroupArrival>* arrivals) {
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    const Group& group = full.groups[static_cast<size_t>(g)];
    if (g < seed_groups) {
      Group rebased;
      rebased.id = group.id;
      rebased.label = group.label;
      for (const int32_t r : group.record_ids) {
        rebased.record_ids.push_back(static_cast<int32_t>(seed->records.size()));
        seed->records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed->groups.push_back(std::move(rebased));
    } else {
      GroupArrival arrival;
      arrival.label = group.label;
      for (const int32_t r : group.record_ids) {
        arrival.record_texts.push_back(full.records[static_cast<size_t>(r)].text);
      }
      arrivals->push_back(std::move(arrival));
    }
  }
}

// The corpus the linker has accumulated, as a batch dataset: seed records
// followed by arrival records, in the linker's own id order.
Dataset Accumulate(const Dataset& seed, const std::vector<GroupArrival>& arrivals) {
  Dataset dataset = seed;
  for (size_t a = 0; a < arrivals.size(); ++a) {
    Group group;
    group.id = "s" + std::to_string(a);
    group.label = arrivals[a].label;
    for (const std::string& text : arrivals[a].record_texts) {
      group.record_ids.push_back(static_cast<int32_t>(dataset.records.size()));
      Record record;
      record.id = "sr" + std::to_string(dataset.records.size());
      record.text = text;
      dataset.records.push_back(std::move(record));
    }
    dataset.groups.push_back(std::move(group));
  }
  return dataset;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index =
      static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[index];
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("sizes", "60,125,250", "comma-separated entity counts");
  flags.AddDouble("seed-fraction", 0.5, "fraction of groups that seed the linker");
  flags.AddInt64("batch-size", 8, "groups per AddGroups batch");
  flags.AddInt64("refresh-every", 32, "epoch refresh policy during the stream");
  flags.AddInt64("threads", static_cast<int64_t>(DefaultThreadCount()),
                 "worker threads for the streaming linker");
  flags.AddString("thread-sweep", "1,2,4,8",
                  "thread counts for the AddGroups determinism check");
  flags.AddString("metrics-json", "BENCH_e17.json",
                  "unified metrics report output path ('' to skip)");
  flags.AddBool("smoke", false, "tiny CI workload (overrides size knobs)");
  flags.AddDouble("deadline-ms", 0.0,
                  "resilience: per-batch/refresh deadline in ms (0 = off)");
  flags.AddInt64("max-candidates", 0,
                 "resilience: cap on candidates scored per arrival (0 = off)");
  flags.AddInt64("max-matcher-cost", 0,
                 "resilience: per-pair |g1|*|g2| matcher budget (0 = off)");
  flags.AddString("inject", "",
                  "resilience: fault specs 'point[:k=v,...][;...]' armed during "
                  "the stream, disarmed before the final refresh");
  GL_CHECK(flags.Parse(argc, argv).ok());
  const bool smoke = flags.GetBool("smoke");
  const std::string sizes = smoke ? "15" : flags.GetString("sizes");
  const std::string sweep_text = smoke ? "1,2" : flags.GetString("thread-sweep");
  const int64_t batch_size = std::max<int64_t>(1, flags.GetInt64("batch-size"));
  const int64_t threads = std::max<int64_t>(1, flags.GetInt64("threads"));

  std::vector<int32_t> thread_sweep;
  for (const std::string& t : Split(sweep_text, ',')) {
    const auto parsed = ParseInt64(t);
    GL_CHECK(parsed.ok()) << t;
    thread_sweep.push_back(static_cast<int32_t>(std::max<int64_t>(1, *parsed)));
  }
  GL_CHECK(!thread_sweep.empty());

  LinkageConfig config;
  config.theta = bench::kTheta;
  config.group_threshold = bench::kGroupThreshold;
  config.num_threads = static_cast<int32_t>(threads);
  config.deadline_ms = flags.GetDouble("deadline-ms");
  config.max_candidate_pairs = flags.GetInt64("max-candidates");
  config.max_matcher_cost = flags.GetInt64("max-matcher-cost");
  const std::string inject = flags.GetString("inject");
  const bool has_limits = config.deadline_ms > 0.0 ||
                          config.max_candidate_pairs > 0 ||
                          config.max_matcher_cost > 0;
  // Resilience mode: arrivals may shed work (armed faults, limits), so
  // after the final *clean* refresh streaming must be a subset of batch —
  // and exactly equal when only faults were armed (they are disarmed
  // before that refresh; config limits still apply to it).
  const bool resilience = has_limits || !inject.empty();
  StreamingConfig streaming;
  streaming.refresh_every_n_groups =
      static_cast<int32_t>(flags.GetInt64("refresh-every"));

  std::printf(
      "E17: streaming arrivals vs batch rerun (theta=%.2f, Theta=%.2f, "
      "batch=%lld, refresh every %d groups, %lld threads)\n\n",
      bench::kTheta, bench::kGroupThreshold, static_cast<long long>(batch_size),
      streaming.refresh_every_n_groups, static_cast<long long>(threads));

  TextTable table({"groups", "records", "arrivals", "p50 (ms)", "p95 (ms)",
                   "max (ms)", "refresh (s)", "batch rerun (s)", "speedup",
                   "links"});
  std::vector<RunReport> reports;
  bool first_size = true;
  for (const std::string& size_text : Split(sizes, ',')) {
    const auto entities = ParseInt64(size_text);
    GL_CHECK(entities.ok()) << size_text;
    const Dataset full = GenerateBibliographic(
        bench::HardBibliographic(static_cast<int32_t>(*entities), 0.25));
    const int32_t seed_groups = std::max<int32_t>(
        1, static_cast<int32_t>(flags.GetDouble("seed-fraction") *
                                full.num_groups()));
    Dataset seed;
    std::vector<GroupArrival> arrivals;
    Split(full, seed_groups, &seed, &arrivals);
    GL_CHECK(!arrivals.empty());

    auto linker_or = IncrementalLinker::Create(seed, config, streaming);
    GL_CHECK(linker_or.ok()) << linker_or.status().ToString();
    IncrementalLinker& linker = *linker_or;
    // Faults cover the stream only: seeding above ran clean, and the
    // final refresh below must run clean to prove recoverability.
    GL_CHECK(bench::ArmFaults(inject).ok());

    // Stream the arrivals in fixed-size batches, timing each batch.
    std::vector<double> batch_millis;
    double stream_seconds = 0.0;
    int64_t stream_candidates = 0;
    int64_t stream_links = 0;
    int64_t stream_oov = 0;
    int64_t refreshes_triggered = 0;
    int64_t degraded_arrivals = 0;
    int64_t stream_postings = 0;
    size_t next = 0;
    while (next < arrivals.size()) {
      const size_t take =
          std::min<size_t>(static_cast<size_t>(batch_size), arrivals.size() - next);
      const std::vector<GroupArrival> batch(
          arrivals.begin() + static_cast<ptrdiff_t>(next),
          arrivals.begin() + static_cast<ptrdiff_t>(next + take));
      WallTimer timer;
      const auto results = linker.AddGroups(batch);
      const double seconds = timer.ElapsedSeconds();
      stream_seconds += seconds;
      batch_millis.push_back(1000.0 * seconds);
      for (const auto& result : results) {
        stream_candidates += static_cast<int64_t>(result.candidates);
        stream_links += static_cast<int64_t>(result.linked_to.size());
        stream_oov += static_cast<int64_t>(result.oov_tokens);
        refreshes_triggered += result.triggered_refresh ? 1 : 0;
        degraded_arrivals += result.degraded ? 1 : 0;
        stream_postings += static_cast<int64_t>(result.postings_scanned);
      }
      next += take;
    }
    FaultInjector::Default().DisarmAll();

    // Final epoch refresh: after it, streaming must equal batch exactly
    // (or stay a subset when config limits also constrain the refresh).
    // Its self-join counts into the registry's edge_join.*, read around it.
    Counter& join_postings = MetricsRegistry::Default().CounterRef("edge_join.postings_scanned");
    Counter& join_pairs = MetricsRegistry::Default().CounterRef("edge_join.record_candidates");
    const uint64_t postings_before = join_postings.Value();
    const uint64_t pairs_before = join_pairs.Value();
    WallTimer refresh_timer;
    linker.Refresh();
    const double refresh_seconds = refresh_timer.ElapsedSeconds();
    const auto refresh_postings = static_cast<int64_t>(join_postings.Value() - postings_before);
    const auto refresh_pairs = static_cast<int64_t>(join_pairs.Value() - pairs_before);

    const Dataset accumulated = Accumulate(seed, arrivals);
    GL_CHECK(accumulated.Validate().ok());
    WallTimer batch_timer;
    LinkageConfig batch_config = linker.engine_config();
    // The batch comparator runs unconstrained — it is the reference.
    batch_config.deadline_ms = 0.0;
    batch_config.max_candidate_pairs = 0;
    batch_config.max_matcher_cost = 0;
    const auto batch_result = RunGroupLinkage(accumulated, batch_config);
    GL_CHECK(batch_result.ok());
    const double batch_seconds = batch_timer.ElapsedSeconds();
    if (has_limits) {
      std::vector<std::pair<int32_t, int32_t>> batch_sorted =
          batch_result->linked_pairs;
      std::sort(batch_sorted.begin(), batch_sorted.end());
      GL_CHECK(std::includes(batch_sorted.begin(), batch_sorted.end(),
                             linker.linked_pairs().begin(),
                             linker.linked_pairs().end()))
          << "limited streaming run linked pairs the batch run did not at "
          << *entities << " entities";
    } else {
      GL_CHECK(linker.linked_pairs() == batch_result->linked_pairs)
          << "streaming diverged from batch after refresh at " << *entities
          << " entities";
    }

    // Determinism: one big AddGroups batch at every thread count must
    // produce bit-identical links (checked on the first size only; the
    // property is size-independent and the sweep re-streams everything).
    // Skipped in resilience mode: a deadline trips at a wall-clock time,
    // so where it lands is legitimately timing-dependent.
    if (first_size && !resilience) {
      std::vector<std::pair<int32_t, int32_t>> reference;
      for (size_t i = 0; i < thread_sweep.size(); ++i) {
        LinkageConfig sweep_config = config;
        sweep_config.num_threads = thread_sweep[i];
        auto sweep_linker_or = IncrementalLinker::Create(seed, sweep_config);
        GL_CHECK(sweep_linker_or.ok());
        IncrementalLinker& sweep_linker = *sweep_linker_or;
        sweep_linker.AddGroups(arrivals);
        if (i == 0) {
          reference = sweep_linker.linked_pairs();
        } else {
          GL_CHECK(sweep_linker.linked_pairs() == reference)
              << "AddGroups links diverge at " << thread_sweep[i] << " threads";
        }
      }
      first_size = false;
    }

    const double p50 = Percentile(batch_millis, 0.5);
    const double p95 = Percentile(batch_millis, 0.95);
    const double max_ms = Percentile(batch_millis, 1.0);
    table.AddRow({std::to_string(linker.num_alive_groups()),
                  std::to_string(accumulated.num_records()),
                  std::to_string(arrivals.size()), FormatDouble(p50, 2),
                  FormatDouble(p95, 2), FormatDouble(max_ms, 2),
                  FormatDouble(refresh_seconds, 3), FormatDouble(batch_seconds, 3),
                  FormatDouble(batch_seconds / std::max(refresh_seconds, 1e-9), 1) +
                      "x",
                  std::to_string(linker.linked_pairs().size())});

    RunReport report;
    report.strategy = "streaming";
    report.candidate_method = "token-index";
    report.measure = "bm";
    report.threads = static_cast<int32_t>(threads);
    report.records = accumulated.num_records();
    report.groups = linker.num_alive_groups();
    report.links = static_cast<int64_t>(linker.linked_pairs().size());
    report.AddStage("stream", stream_seconds)
        .AddCounter("arrivals", static_cast<int64_t>(arrivals.size()))
        .AddCounter("batches", static_cast<int64_t>(batch_millis.size()))
        .AddCounter("candidates", stream_candidates)
        .AddCounter("links_found", stream_links)
        .AddCounter("oov_tokens", stream_oov)
        .AddCounter("refreshes_triggered", refreshes_triggered)
        .AddCounter("degraded_arrivals", degraded_arrivals)
        .AddCounter("postings_scanned", stream_postings);
    report.degraded = degraded_arrivals > 0;
    report.AddStage("refresh", refresh_seconds)
        .AddCounter("epoch", linker.epoch())
        .AddCounter("postings_scanned", refresh_postings)
        .AddCounter("record_candidates", refresh_pairs);
    report.AddStage("batch-rerun", batch_seconds)
        .AddCounter("links", static_cast<int64_t>(batch_result->linked_pairs.size()));
    report.AddExtra("arrival_p50_ms", p50);
    report.AddExtra("arrival_p95_ms", p95);
    report.AddExtra("arrival_max_ms", max_ms);
    reports.push_back(std::move(report));
  }
  std::printf("%s", table.ToString().c_str());
  if (resilience) {
    std::printf(
        "\nResilience mode: the stream survived the armed faults/limits, and "
        "after the final clean refresh the link set was %s the batch "
        "engine's on every size (checked).\n",
        has_limits ? "a subset of" : "identical to");
  } else {
    std::printf(
        "\nAfter the final refresh the streaming link set was identical to the "
        "batch engine's on every size, and AddGroups was bit-identical at every "
        "thread count in the sweep (checked).\n");
  }

  return bench::ExitCode(bench::WriteMetricsJson(flags.GetString("metrics-json"),
                                                 "e17_streaming", reports));
}
