// serve: LinkageService over a 200-entity corpus (5,502 records). Set-up
// seeds the service with a prefix of 2,564 records (the first 209 groups
// with the default seed); the next 210 groups then arrive on an open loop
// at 15 groups/s (an independent upstream feed) with async refresh every
// 8 groups, while 2 closed-loop readers (in-process callers that wait for
// each answer) call LinkQuery until every arrival is visible. Reads,
// arrivals and back-to-back refreshes share the host's cores, so refresh
// cost sets freshness. A run measures whole rounds, each on a fresh
// service, as many 14 s streams as --seconds holds, rounded up, and pools
// their samples, so the arrival and visibility tails rest on at least 210
// arrivals (10 beyond p95).
//
// Threads of the benchmark's own: the 2 readers and the main thread,
// which sends the arrivals and, between sends, polls the published
// snapshot every 0.5 ms to time when each arrival becomes visible.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/linkage_engine.h"
#include "core/service.h"
#include "eval/metrics.h"
#include "harness.h"
#include "replica.h"

namespace grouplink {
namespace perfbench {
namespace {

constexpr int32_t kEntities = 200;
constexpr int32_t kRecords = 5502;
constexpr int32_t kSeedRecords = 2564;
constexpr int32_t kArrivals = 210;
constexpr double kArrivalsPerSecond = 15.0;
constexpr int32_t kRefreshEvery = 8;
constexpr int kReaders = 2;
constexpr int32_t kProbeRecords = 3100;
constexpr int kSetupRepeats = 4;  // Per round.
constexpr int64_t kPollNs = 500'000;
// A seeded 1 in 64 answers per reader, up to 48 a round, is re-derived
// with exact BM on the epoch that answered it. The reader does it right
// after the answer, outside the timed call (about 1% of its time), so no
// retired epoch outlives its queries.
constexpr double kSampleRate = 1.0 / 64.0;
constexpr int64_t kMaxSamplesPerReader = 48;
constexpr double kDrainTimeoutSeconds = 90.0;

// The number of seed groups: the shortest prefix of `full` holding
// kSeedRecords records, so set-up does the same work for every seed, cut
// back if need be so that kArrivals groups follow it.
int32_t SeedGroups(const Dataset& full) {
  int32_t groups = 0;
  for (int32_t records = 0; records < kSeedRecords;) {
    records += full.GroupSize(groups++);
  }
  return std::min(groups, full.num_groups() - kArrivals);
}

// Splits `full` into the seed corpus (its first `seed_groups` groups, with
// record ids rebased) and the arrival stream (the next kArrivals groups,
// in order).
void Split(const Dataset& full, int32_t seed_groups, Dataset* seed,
           std::vector<GroupArrival>* arrivals) {
  for (int32_t g = 0; g < seed_groups + kArrivals; ++g) {
    if (g >= seed_groups) {
      arrivals->push_back(ArrivalOf(full, g));
      continue;
    }
    const Group& group = full.groups[static_cast<size_t>(g)];
    Group rebased;
    rebased.id = group.id;
    rebased.label = group.label;
    for (const int32_t r : group.record_ids) {
      rebased.record_ids.push_back(seed->num_records());
      seed->records.push_back(full.records[static_cast<size_t>(r)]);
    }
    seed->groups.push_back(std::move(rebased));
    seed->group_entities.push_back(full.group_entities[static_cast<size_t>(g)]);
  }
}

// The corpus the service holds after every arrival, as a batch dataset in
// arrival order (the service numbers groups the same way).
Dataset Accumulate(const Dataset& seed, const std::vector<GroupArrival>& arrivals) {
  Dataset dataset = seed;
  dataset.group_entities.clear();
  for (size_t a = 0; a < arrivals.size(); ++a) {
    Group group;
    group.id = "a" + std::to_string(a);
    group.label = arrivals[a].label;
    for (const std::string& text : arrivals[a].record_texts) {
      group.record_ids.push_back(dataset.num_records());
      Record record;
      record.id = "ar" + std::to_string(dataset.records.size());
      record.text = text;
      dataset.records.push_back(std::move(record));
    }
    dataset.groups.push_back(std::move(group));
  }
  return dataset;
}

struct ReaderLog {
  std::vector<double> latency_ms;
  int64_t degraded = 0;
  int64_t replay_misses = 0;
  int64_t replica_mismatches = 0;
  int64_t service_mismatches = 0;
  int64_t samples = 0;
  int64_t sample_mismatches = 0;
  QueryWork work;
};

// One closed-loop reader. Untraced, it times LinkageService::LinkQuery and
// nothing else. Traced, it also answers the probe on the snapshot it
// loaded (CorpusSnapshot::LinkQuery) and with the replica, alternating the
// order of the two library calls so neither always runs cache-warm.
void ReaderLoop(const LinkageService& service, const std::vector<Probe>& probes,
                int reader, uint64_t seed, SpanBuffer* spans,
                const std::atomic<bool>& stop, ReaderLog* log) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(reader));
  size_t next = static_cast<size_t>(reader) * probes.size() / kReaders;
  int64_t seq = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const size_t index = next++ % probes.size();
    const Probe& probe = probes[index];
    const int64_t op = (static_cast<int64_t>(reader + 1) << 32) | seq++;
    const bool sampled =
        log->samples < kMaxSamplesPerReader && rng.Bernoulli(kSampleRate);
    std::shared_ptr<const CorpusSnapshot> snapshot;
    if (sampled || spans != nullptr) snapshot = service.snapshot();

    LinkageService::QueryResult answer;
    auto service_call = [&] {
      ScopedSpan span(spans, "core.service.query", op);
      const int64_t start = NowNs();
      answer = service.LinkQuery(probe.group);
      log->latency_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    };
    if (spans == nullptr) {
      service_call();
    } else {
      CorpusSnapshot::QueryResult on_snapshot;
      auto snapshot_call = [&] {
        ScopedSpan span(spans, "core.snapshot.query", op);
        on_snapshot = snapshot->LinkQuery(probe.group);
      };
      if (seq % 2 == 0) {
        service_call();
        snapshot_call();
      } else {
        snapshot_call();
        service_call();
      }
      const std::vector<int32_t> replica =
          ReplicaLinkQuery(*snapshot, probe.group, spans, op, &log->work);
      if (replica != on_snapshot.linked_to) ++log->replica_mismatches;
      if (answer.epoch == snapshot->epoch() &&
          answer.linked_to != on_snapshot.linked_to) {
        ++log->service_mismatches;
      }
    }

    if (answer.degraded) ++log->degraded;
    if (probe.own_group >= 0 &&
        !std::binary_search(answer.linked_to.begin(), answer.linked_to.end(),
                            probe.own_group)) {
      ++log->replay_misses;
    }
    if (sampled && answer.epoch == snapshot->epoch()) {
      ++log->samples;
      if (ExactBmLinks(*snapshot, probe.group) != answer.linked_to) {
        ++log->sample_mismatches;
      }
    }
  }
}

// The inputs every round replays.
struct ServeInputs {
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  std::vector<Probe> probes;
  ServiceConfig config;
};

// What the rounds of one run record, pooled.
struct ServeLog {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  std::vector<double> arrival_ms;
  std::vector<double> visibility_ms;
  std::vector<double> lateness_ms;
  std::vector<double> arrival_candidates;
  std::vector<double> publish_interval_ms;
  std::vector<double> send_rate;
  double phase_s = 0.0;
  int64_t epochs = 0;
  uint64_t rescored = 0;
  int64_t replay_misses = 0;
  int64_t replica_mismatches = 0;
  int64_t service_mismatches = 0;
  int64_t samples = 0;
  int64_t sample_mismatches = 0;
  bool every_reader_ran = true;
  QueryWork traced_work;
  /// Set by the last round: the peak RSS at the end of its measured phase,
  /// and the link set and snapshot after a final stop-the-world Refresh.
  double peak_rss_mb = 0.0;
  std::vector<std::pair<int32_t, int32_t>> final_links;
  std::shared_ptr<const CorpusSnapshot> final_snapshot;
};

// One round on a fresh service: set-up, then the measured phase. The last
// round then reads the peak RSS and, outside the measured phase, runs a
// final stop-the-world Refresh. False when set-up failed or an arrival
// never became visible (both recorded as failed gates).
bool RunRound(const ServeInputs& in, bool last_round, uint64_t seed,
              SpanBuffer* main_spans, const std::vector<SpanBuffer*>& reader_spans,
              Gates* gates, Outcome* out, ServeLog* log) {
  // Set-up: LinkageService::Create on the seed corpus (ingest, one full
  // refresh, publish), repeated; setup_s is the median over all rounds.
  std::optional<LinkageService> service;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    const int64_t start = NowNs();
    Result<LinkageService> created = [&] {
      ScopedSpan span(main_spans, "core.service.create", rep);
      return LinkageService::Create(in.seed, in.config);
    }();
    log->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    ++out->attempted;
    if (!created.ok()) {
      ++out->failed;
      gates->Check(false, "LinkageService::Create: " + created.status().ToString());
      return false;
    }
    service.emplace(std::move(*created));
  }

  Counter& rescored = MetricsRegistry::Default().CounterRef(
      "incremental.refresh_rescored_pairs");
  const uint64_t rescored_before = rescored.Value();

  // Measured phase.
  std::vector<ReaderLog> logs(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const int64_t t0 = NowNs();
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReaderLoop, std::cref(*service), std::cref(in.probes), r, seed,
                         reader_spans[static_cast<size_t>(r)], std::cref(stop),
                         &logs[static_cast<size_t>(r)]);
  }

  const std::vector<GroupArrival>& arrivals = in.arrivals;
  const size_t n = arrivals.size();
  const int64_t stream_ns =
      static_cast<int64_t>(static_cast<double>(n) * 1e9 / kArrivalsPerSecond);
  std::vector<int64_t> scheduled(n), sent(n), done(n), visible(n, -1);
  std::vector<int32_t> group_index(n, 0);
  std::vector<int64_t> publish_ns;
  int64_t last_epoch = service->published_epoch();
  size_t num_sent = 0;
  size_t num_visible = 0;
  // One look at the published epoch: stamps newly covered arrivals.
  auto poll = [&] {
    const std::shared_ptr<const CorpusSnapshot> snapshot = service->snapshot();
    const int64_t now = NowNs();
    if (snapshot->epoch() != last_epoch) {
      last_epoch = snapshot->epoch();
      publish_ns.push_back(now);
    }
    while (num_visible < num_sent &&
           group_index[num_visible] < snapshot->num_groups()) {
      visible[num_visible++] = now;
    }
  };
  auto wait_until = [&](int64_t when) {
    for (int64_t now = NowNs(); now < when; now = NowNs()) {
      poll();
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(kPollNs, when - now)));
    }
  };

  for (size_t i = 0; i < n; ++i) {
    scheduled[i] = t0 + static_cast<int64_t>(i) * stream_ns / static_cast<int64_t>(n);
    wait_until(scheduled[i]);
    sent[i] = NowNs();
    LinkageService::AddResult added;
    {
      ScopedSpan span(main_spans, "core.service.add", static_cast<int64_t>(i));
      added = service->AddGroup(arrivals[i].label, arrivals[i].record_texts);
    }
    done[i] = NowNs();
    group_index[i] = added.group_index;
    log->arrival_candidates.push_back(static_cast<double>(added.candidates));
    ++num_sent;
    ++out->attempted;
    if (added.degraded) ++out->failed;
    poll();
  }
  // The feed has ended: the policy refreshes every 8 groups, so the tail
  // of the stream becomes visible through one last background refresh.
  const int64_t drain_deadline =
      NowNs() + static_cast<int64_t>(kDrainTimeoutSeconds * 1e9);
  while (num_visible < n && NowNs() < drain_deadline) {
    if (!service->refresh_in_flight()) {
      poll();
      if (num_visible < n) (void)service->RefreshAsync();
    }
    wait_until(NowNs() + kPollNs);
  }
  const int64_t t_end = NowNs();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  log->rescored += rescored.Value() - rescored_before;
  log->phase_s += static_cast<double>(t_end - t0) * 1e-9;
  gates->Check(num_visible == n, "serve: every arrival became visible");
  if (num_visible < n) return false;

  for (size_t i = 0; i < n; ++i) {
    log->arrival_ms.push_back(static_cast<double>(done[i] - scheduled[i]) * 1e-6);
    log->visibility_ms.push_back(static_cast<double>(visible[i] - scheduled[i]) * 1e-6);
    log->lateness_ms.push_back(static_cast<double>(sent[i] - scheduled[i]) * 1e-6);
  }
  if (n > 1) {
    log->send_rate.push_back(static_cast<double>(n - 1) /
                             (static_cast<double>(sent[n - 1] - sent[0]) * 1e-9));
  }
  for (size_t i = 1; i < publish_ns.size(); ++i) {
    log->publish_interval_ms.push_back(
        static_cast<double>(publish_ns[i] - publish_ns[i - 1]) * 1e-6);
  }
  log->epochs += static_cast<int64_t>(publish_ns.size());
  for (const ReaderLog& reader : logs) {
    log->latency_ms.insert(log->latency_ms.end(), reader.latency_ms.begin(),
                           reader.latency_ms.end());
    log->every_reader_ran = log->every_reader_ran && !reader.latency_ms.empty();
    out->attempted += static_cast<int64_t>(reader.latency_ms.size());
    out->failed += reader.degraded;
    log->replay_misses += reader.replay_misses;
    log->replica_mismatches += reader.replica_mismatches;
    log->service_mismatches += reader.service_mismatches;
    log->samples += reader.samples;
    log->sample_mismatches += reader.sample_mismatches;
    log->traced_work.Add(reader.work);
  }

  if (!last_round) return true;
  // Read before the final Refresh and the gates, so neither sets the peak.
  log->peak_rss_mb = PeakRssMb();
  service->WaitForRefresh();
  service->Refresh();
  log->final_snapshot = service->snapshot();
  log->final_links = service->linked_pairs();
  gates->Check(log->final_snapshot->linked_pairs() == log->final_links,
               "serve: the final snapshot publishes the writer's link set");
  return true;
}

}  // namespace

Outcome RunServe(const RunOptions& options, Trace* trace, Gates* gates) {
  Outcome out;
  int32_t generated_entities = 0;
  const Dataset full =
      SizedCorpus(kEntities, kRecords, options.seed, &generated_entities);
  const int32_t seed_groups = SeedGroups(full);
  ServeInputs in;
  Split(full, seed_groups, &in.seed, &in.arrivals);
  in.probes =
      BuildProbes(full, seed_groups, generated_entities, options.seed, kProbeRecords);
  in.config.engine.theta = kTheta;
  in.config.engine.group_threshold = kGroupThreshold;
  in.config.streaming.refresh_every_n_groups = kRefreshEvery;
  in.config.async_refresh = true;

  SpanBuffer* main_spans = trace != nullptr ? trace->NewBuffer() : nullptr;
  std::vector<SpanBuffer*> reader_spans(kReaders, nullptr);
  if (trace != nullptr) {
    for (SpanBuffer*& buffer : reader_spans) buffer = trace->NewBuffer();
  }

  // As many 14 s streams as --seconds holds, rounded up.
  const int rounds = static_cast<int>(
      std::ceil(options.seconds * kArrivalsPerSecond / static_cast<double>(kArrivals)));
  ServeLog log;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t round_seed = (options.seed << 8) + static_cast<uint64_t>(round);
    if (!RunRound(in, round + 1 == rounds, round_seed, main_spans, reader_spans, gates,
                  &out, &log)) {
      return out;
    }
    // Hand the round's freed heap back to the OS, so the next round starts
    // from the same footprint and peak_rss_mb is the larger round's peak,
    // not the sum of one round's fragmentation and the next's growth.
    (void)malloc_trim(0);
  }

  // Gates, outside the measured phases. The batch comparator of a
  // refreshed service is RunGroupLinkage on the accumulated corpus with the
  // writer's normalized engine config.
  Result<LinkageResult> batch = RunGroupLinkage(Accumulate(in.seed, in.arrivals),
                                                log.final_snapshot->engine_config());
  gates->Check(batch.ok() && batch->linked_pairs == log.final_links,
               "serve: after a last Refresh the link set equals RunGroupLinkage on "
               "the accumulated corpus");
  gates->Check(log.every_reader_ran, "serve: every reader completed queries");
  gates->Check(log.replay_misses == 0,
               "serve: every replayed probe links to its own group");
  gates->Check(log.samples > 0 && log.sample_mismatches == 0,
               "serve: sampled answers equal exact BM >= Theta on the answering epoch");
  if (trace != nullptr) {
    gates->Check(log.replica_mismatches == 0,
                 "serve: the LinkQuery replica matches on every traced query");
    gates->Check(log.service_mismatches == 0,
                 "serve: service and snapshot answers agree at equal epochs");
  }

  const double queries = static_cast<double>(log.latency_ms.size());
  // link_f1 scores the final link set against the truth of the groups the
  // service holds: the seed groups and the arrivals, a prefix of `full`.
  const int32_t corpus_groups = seed_groups + kArrivals;
  std::vector<std::pair<int32_t, int32_t>> truth;
  for (const std::pair<int32_t, int32_t>& pair : full.TruePairs()) {
    if (pair.second < corpus_groups) truth.push_back(pair);
  }
  const PairMetrics quality = EvaluatePairs(log.final_links, std::move(truth));

  // An operation is a LinkQuery; the arrival path is reported per layer.
  out.EndToEnd("setup_s", Median(log.setup_s), "s");
  out.EndToEnd("ops_per_s", queries / log.phase_s, "1/s");
  out.EndToEnd("latency_p50_ms", Percentile(log.latency_ms, 0.50), "ms");
  out.EndToEnd("latency_p99_ms", Percentile(log.latency_ms, 0.99), "ms");
  out.EndToEnd("link_f1", quality.f1, "ratio");
  out.EndToEnd("ok_ratio",
               static_cast<double>(out.attempted - out.failed) /
                   static_cast<double>(out.attempted),
               "ratio");
  out.EndToEnd("peak_rss_mb", log.peak_rss_mb, "MiB");
  // Freshness of the arrival path. It needs no spans, so untraced reports
  // carry it too.
  out.Layer("core.service.arrival_p50_ms", Percentile(log.arrival_ms, 0.50), "ms");
  out.Layer("core.service.arrival_p95_ms", Percentile(log.arrival_ms, 0.95), "ms");
  out.Layer("core.service.visibility_p50_ms", Percentile(log.visibility_ms, 0.50), "ms");
  out.Layer("core.service.visibility_p95_ms", Percentile(log.visibility_ms, 0.95), "ms");

  int32_t arrival_records = 0;
  for (const GroupArrival& arrival : in.arrivals) {
    arrival_records += static_cast<int32_t>(arrival.record_texts.size());
  }
  out.Property("corpus_groups", seed_groups + kArrivals, "count");
  out.Property("corpus_records", in.seed.num_records() + arrival_records, "count");
  out.Property("seed_groups", seed_groups, "count");
  out.Property("seed_records", in.seed.num_records(), "count");
  out.Property("rounds", rounds, "count");
  out.Property("arrivals_per_round", kArrivals, "count");
  AddProbeProperties(*log.final_snapshot, in.probes, &out);
  out.Property("achieved_arrival_rate", Median(log.send_rate), "1/s");
  out.Property("generator_lateness_p50_ms", Percentile(log.lateness_ms, 0.50), "ms");
  out.Property("generator_lateness_max_ms", Percentile(log.lateness_ms, 1.0), "ms");
  out.Property("epochs_published", static_cast<double>(log.epochs), "count");
  out.Property("phase_s", log.phase_s, "s");
  out.Property("samples.queries", queries, "count");
  out.Property("samples.arrivals", static_cast<double>(log.arrival_ms.size()), "count");
  out.Property("samples.setups", static_cast<double>(log.setup_s.size()), "count");
  out.Property("samples.exact_bm_rederived", static_cast<double>(log.samples), "count");
  out.Property("reader_threads", kReaders, "count");

  if (trace != nullptr) {
    AddQueryLayers(*trace, log.traced_work, &out);
    AddWriterCosts(*log.final_snapshot, main_spans, gates, &out);
    out.Layer("core.service.add_ms", Median(trace->DurationsMs("core.service.add")),
              "ms");
    out.Layer("core.incremental.candidates_per_arrival", Mean(log.arrival_candidates),
              "count");
    out.Layer("core.service.publish_interval_ms", Median(log.publish_interval_ms), "ms");
    out.Layer("core.service.epochs_published", static_cast<double>(log.epochs) / rounds,
              "count");
    out.Layer("core.incremental.rescored_pairs",
              static_cast<double>(log.rescored) / rounds, "count");
    out.Layer("core.service.query_overhead_ms",
              Median(trace->PairedDifferenceMs("core.service.query",
                                               "core.snapshot.query")),
              "ms");
  }
  return out;
}

}  // namespace perfbench
}  // namespace grouplink
