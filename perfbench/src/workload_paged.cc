// paged: the 200-entity corpus (5,502 records) built once in set-up,
// written with SnapshotStore::Persist (1 KiB pages) and served read-only
// by StoredCorpus::LinkQuery through a 16-page buffer pool — a small
// fraction of the store, so this is the one working set larger than the
// program's own cache. 2 closed-loop readers, no writer. It runs the same
// decision code as serve with the data paged through storage.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "eval/metrics.h"
#include "harness.h"
#include "replica.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"
#include "storage/stored_corpus.h"

namespace grouplink {
namespace perfbench {
namespace {

constexpr int32_t kEntities = 200;
constexpr int32_t kRecords = 5502;
constexpr uint32_t kPageBytes = 1024;
constexpr size_t kPoolPages = 16;
constexpr int kReaders = 2;
constexpr int32_t kProbeRecords = 3100;
constexpr int kSetupRepeats = 3;
// The phase runs past --seconds (up to 3x) until the readers have
// completed enough queries for p99 to have 10 samples beyond it.
constexpr int64_t kMinQueries = 1100;

struct ReaderLog {
  std::vector<double> latency_ms;
  /// Per query: the probe and the links StoredCorpus answered.
  std::vector<std::pair<size_t, std::vector<int32_t>>> answers;
  int64_t errors = 0;
  int64_t degraded = 0;
  int64_t replica_mismatches = 0;
  QueryWork work;
};

// One closed-loop reader for the measured phase. Traced, each query is
// also answered by CorpusSnapshot::LinkQuery on the set-up snapshot (the
// same epoch, in RAM) and by the replica; the two library calls alternate
// order so neither always runs cache-warm.
void ReaderLoop(const storage::StoredCorpus& stored, const CorpusSnapshot& snapshot,
                const std::vector<Probe>& probes, int reader, SpanBuffer* spans,
                int64_t phase_end, int64_t hard_end, std::atomic<int64_t>* completed,
                ReaderLog* log) {
  size_t next = static_cast<size_t>(reader) * probes.size() / kReaders;
  int64_t seq = 0;
  for (int64_t now = NowNs();
       now < phase_end || (completed->load() < kMinQueries && now < hard_end);
       now = NowNs()) {
    const size_t index = next++ % probes.size();
    const GroupArrival& probe = probes[index].group;
    const int64_t op = (static_cast<int64_t>(reader + 1) << 32) | seq++;

    Result<CorpusSnapshot::QueryResult> answer = Status::Internal("not run");
    auto stored_call = [&] {
      ScopedSpan span(spans, "storage.query", op);
      const int64_t start = NowNs();
      answer = stored.LinkQuery(probe);
      log->latency_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      completed->fetch_add(1);
    };
    if (spans == nullptr) {
      stored_call();
    } else {
      auto snapshot_call = [&] {
        ScopedSpan span(spans, "core.snapshot.query", op);
        (void)snapshot.LinkQuery(probe);
      };
      if (seq % 2 == 0) {
        stored_call();
        snapshot_call();
      } else {
        snapshot_call();
        stored_call();
      }
      const std::vector<int32_t> replica =
          ReplicaLinkQuery(snapshot, probe, spans, op, &log->work);
      if (answer.ok() && replica != answer->linked_to) ++log->replica_mismatches;
    }

    if (!answer.ok()) {
      ++log->errors;
      continue;
    }
    if (answer->degraded) ++log->degraded;
    log->answers.emplace_back(index, std::move(answer->linked_to));
  }
}

}  // namespace

Outcome RunPaged(const RunOptions& options, Trace* trace, Gates* gates) {
  Outcome out;
  int32_t generated_entities = 0;
  const Dataset corpus =
      SizedCorpus(kEntities, kRecords, options.seed, &generated_entities);
  const std::vector<Probe> probes = BuildProbes(corpus, corpus.num_groups(),
                                                generated_entities, options.seed,
                                                kProbeRecords);
  LinkageConfig config;
  config.theta = kTheta;
  config.group_threshold = kGroupThreshold;
  storage::StorageOptions store_options;
  store_options.page_bytes = kPageBytes;
  storage::StorageOptions open_options;
  open_options.buffer_pool_pages = kPoolPages;
  const std::string store_path =
      options.work_dir + "/paged-" + std::to_string(getpid()) + ".glsnap";

  SpanBuffer* main_spans = trace != nullptr ? trace->NewBuffer() : nullptr;
  std::vector<SpanBuffer*> reader_spans(kReaders, nullptr);
  if (trace != nullptr) {
    for (SpanBuffer*& buffer : reader_spans) buffer = trace->NewBuffer();
  }

  // Set-up: build the corpus (IncrementalLinker::Create), freeze it
  // (Capture), write the store (Persist) and open it for serving. Repeated;
  // setup_s is the median.
  std::vector<double> setup_seconds;
  std::shared_ptr<const CorpusSnapshot> snapshot;
  std::unique_ptr<storage::StoredCorpus> stored;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stored.reset();
    snapshot.reset();
    const int64_t start = NowNs();
    Status status = Status::Ok();
    {
      Result<IncrementalLinker> linker = [&] {
        ScopedSpan span(main_spans, "core.incremental.create", rep);
        return IncrementalLinker::Create(corpus, config);
      }();
      status = linker.status();
      if (linker.ok()) {
        ScopedSpan span(main_spans, "core.snapshot.capture", rep);
        snapshot = CorpusSnapshot::Capture(*linker);
      }
    }
    if (status.ok()) {
      ScopedSpan span(main_spans, "storage.persist", rep);
      status = storage::SnapshotStore::Persist(*snapshot, store_path, store_options);
    }
    if (status.ok()) {
      ScopedSpan span(main_spans, "storage.open", rep);
      Result<std::unique_ptr<storage::StoredCorpus>> opened =
          storage::StoredCorpus::Open(store_path, open_options);
      status = opened.status();
      if (opened.ok()) stored = std::move(*opened);
    }
    setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    ++out.attempted;
    if (!status.ok()) {
      ++out.failed;
      gates->Check(false, "paged set-up: " + status.ToString());
      (void)storage::RemoveFile(store_path);
      return out;
    }
  }
  const double store_bytes = static_cast<double>(std::filesystem::file_size(store_path));
  double text_bytes = 0.0;
  for (const Record& record : corpus.records) {
    text_bytes += static_cast<double>(record.text.size());
  }

  // Measured phase.
  const storage::BufferStats before = stored->buffer_stats();
  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  const int64_t t0 = NowNs();
  const int64_t phase_ns = static_cast<int64_t>(options.seconds * 1e9);
  std::atomic<int64_t> completed{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReaderLoop, std::cref(*stored), std::cref(*snapshot),
                         std::cref(probes), r, reader_spans[static_cast<size_t>(r)],
                         t0 + phase_ns, t0 + 3 * phase_ns, &completed,
                         &logs[static_cast<size_t>(r)]);
  }
  for (std::thread& reader : readers) reader.join();
  const double phase_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const storage::BufferStats after = stored->buffer_stats();
  // Read before the gate, so the reference pass cannot set the peak.
  const double peak_rss_mb = PeakRssMb();

  // Gate, outside the measured phase: every paged answer equals
  // CorpusSnapshot::LinkQuery on the same probe.
  std::vector<std::vector<int32_t>> reference(probes.size());
  bool reference_clean = true;
  for (size_t p = 0; p < probes.size(); ++p) {
    const CorpusSnapshot::QueryResult want = snapshot->LinkQuery(probes[p].group);
    reference_clean = reference_clean && !want.degraded;
    reference[p] = want.linked_to;
  }
  std::vector<double> latency_ms;
  QueryWork traced_work;
  int64_t queries = 0, errors = 0, mismatches = 0, replay_misses = 0,
          replica_mismatches = 0;
  for (const ReaderLog& log : logs) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    queries += static_cast<int64_t>(log.latency_ms.size());
    errors += log.errors;
    out.failed += log.errors + log.degraded;
    replica_mismatches += log.replica_mismatches;
    traced_work.Add(log.work);
    for (const auto& [p, linked] : log.answers) {
      if (linked != reference[p]) ++mismatches;
      const int32_t own = probes[p].own_group;
      if (own >= 0 && !std::binary_search(linked.begin(), linked.end(), own)) {
        ++replay_misses;
      }
    }
  }
  out.attempted += queries;
  gates->Check(queries > 0, "paged: readers completed queries");
  gates->Check(errors == 0, "paged: every StoredCorpus::LinkQuery returned OK");
  gates->Check(reference_clean && mismatches == 0,
               "paged: every answer equals CorpusSnapshot::LinkQuery on the same probe");
  gates->Check(replay_misses == 0, "paged: every replayed probe links to its own group");
  if (trace != nullptr) {
    gates->Check(replica_mismatches == 0,
                 "paged: the LinkQuery replica matches on every traced query");
  }

  // An operation is a StoredCorpus::LinkQuery. link_f1 scores the link
  // set of the stored corpus, which set-up computed.
  const PairMetrics quality = EvaluatePairs(snapshot->linked_pairs(), corpus.TruePairs());
  out.EndToEnd("setup_s", Median(setup_seconds), "s");
  out.EndToEnd("ops_per_s", static_cast<double>(queries) / phase_s, "1/s");
  out.EndToEnd("latency_p50_ms", Percentile(latency_ms, 0.50), "ms");
  out.EndToEnd("latency_p99_ms", Percentile(latency_ms, 0.99), "ms");
  out.EndToEnd("link_f1", quality.f1, "ratio");
  out.EndToEnd("ok_ratio",
               static_cast<double>(out.attempted - out.failed) /
                   static_cast<double>(out.attempted),
               "ratio");
  out.EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
  // Exact and untimed, so untraced reports carry it too.
  out.Layer("storage.bytes_per_text_byte", store_bytes / text_bytes, "ratio");

  const double store_pages = store_bytes / kPageBytes;
  out.Property("corpus_groups", corpus.num_groups(), "count");
  out.Property("corpus_records", corpus.num_records(), "count");
  AddProbeProperties(*snapshot, probes, &out);
  out.Property("store_pages", store_pages, "count");
  out.Property("pool_pages", kPoolPages, "count");
  out.Property("store_pages_per_pool_page", store_pages / kPoolPages, "ratio");
  out.Property("store_bytes", store_bytes, "bytes");
  out.Property("phase_s", phase_s, "s");
  out.Property("samples.queries", static_cast<double>(queries), "count");
  out.Property("samples.setups", static_cast<double>(setup_seconds.size()), "count");
  out.Property("reader_threads", kReaders, "count");

  if (trace != nullptr) {
    AddQueryLayers(*trace, traced_work, &out);
    AddWriterCosts(*snapshot, main_spans, gates, &out);
    const double reads = static_cast<double>(after.misses - before.misses);
    const double hits = static_cast<double>(after.hits - before.hits);
    const auto median_s = [&](const char* span) {
      return Median(trace->DurationsMs(span)) * 1e-3;
    };
    out.Layer("storage.persist_s", median_s("storage.persist"), "s");
    out.Layer("storage.open_s", median_s("storage.open"), "s");
    out.Layer("storage.pages_read_per_query", reads / static_cast<double>(queries),
              "count");
    out.Layer("storage.hit_ratio", hits / (hits + reads), "ratio");
    out.Layer("storage.evictions_per_query",
              static_cast<double>(after.evictions - before.evictions) /
                  static_cast<double>(queries),
              "count");
    out.Layer("storage.overhead_ms",
              Median(trace->PairedDifferenceMs("storage.query", "core.snapshot.query")),
              "ms");
  }

  stored.reset();
  gates->Check(storage::RemoveFile(store_path).ok(), "paged: store file removed");
  return out;
}

}  // namespace perfbench
}  // namespace grouplink
