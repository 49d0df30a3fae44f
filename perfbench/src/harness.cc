#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/logging.h"

namespace grouplink {
namespace perfbench {

BibliographicConfig HardCorpus(int32_t entities, uint64_t seed) {
  BibliographicConfig config;
  config.num_entities = entities;
  config.noise = 0.25;
  config.num_topics = 6;
  config.offtopic_word_prob = 0.5;
  config.seed = seed;
  return config;
}

Dataset SizedCorpus(int32_t entities, int32_t records, uint64_t seed,
                    int32_t* generated_entities) {
  for (int32_t e = entities;; e += std::max(1, entities / 100)) {
    Dataset dataset = GenerateBibliographic(HardCorpus(e, seed));
    if (dataset.num_records() < records) continue;
    // Records are stored group by group, so a group prefix owns a record
    // prefix.
    int32_t kept_records = 0;
    int32_t kept_groups = 0;
    while (kept_records < records) kept_records += dataset.GroupSize(kept_groups++);
    dataset.records.resize(static_cast<size_t>(kept_records));
    dataset.groups.resize(static_cast<size_t>(kept_groups));
    dataset.group_entities.resize(static_cast<size_t>(kept_groups));
    GL_CHECK(dataset.Validate().ok());
    *generated_entities = e;
    return dataset;
  }
}

GroupArrival ArrivalOf(const Dataset& dataset, int32_t group) {
  const Group& g = dataset.groups[static_cast<size_t>(group)];
  GroupArrival arrival;
  arrival.label = g.label;
  for (const int32_t r : g.record_ids) {
    arrival.record_texts.push_back(dataset.records[static_cast<size_t>(r)].text);
  }
  return arrival;
}

std::vector<Probe> BuildProbes(const Dataset& corpus, int32_t replayable_groups,
                               int32_t corpus_entities, uint64_t seed, int32_t records) {
  GL_CHECK_GT(replayable_groups, 0);
  // Entity e < corpus_entities of the larger generation draws the same
  // name, topic and citation pool as in the corpus generation (entities
  // are drawn in order before any group is sampled); entities past that
  // are new, over the same topics and coauthors.
  const Dataset wider =
      GenerateBibliographic(HardCorpus(corpus_entities + records / 20, seed));
  std::vector<int32_t> unseen;
  for (int32_t g = 0; g < wider.num_groups(); ++g) {
    if (wider.group_entities[static_cast<size_t>(g)] >= corpus_entities) {
      unseen.push_back(g);
    }
  }

  std::vector<Probe> probes;
  size_t next_unseen = 0;
  // Replays step through the replayable groups at a stride that visits
  // each one before repeating any.
  const int32_t stride = replayable_groups > 7 && replayable_groups % 7 != 0 ? 7 : 1;
  int32_t next_replay = 0;
  for (int32_t total = 0; total < records;) {
    Probe probe;
    if (probes.size() % 3 == 0) {
      probe.own_group = next_replay;
      probe.group = ArrivalOf(corpus, probe.own_group);
      next_replay = (next_replay + stride) % replayable_groups;
    } else {
      GL_CHECK_LT(next_unseen, unseen.size()) << "too few unseen groups";
      probe.group = ArrivalOf(wider, unseen[next_unseen++]);
    }
    total += static_cast<int32_t>(probe.group.record_texts.size());
    probes.push_back(std::move(probe));
  }
  return probes;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Gates::Check(bool ok, const std::string& what) {
  checks_.push_back(what);
  if (!ok) failures_.push_back(what);
}

void Outcome::EndToEnd(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::Layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::Property(std::string name, double value, std::string unit) {
  properties.push_back({std::move(name), value, std::move(unit)});
}

void AddWriterCosts(const CorpusSnapshot& snapshot, SpanBuffer* spans, Gates* gates,
                    Outcome* out) {
  Result<std::unique_ptr<IncrementalLinker>> writer =
      IncrementalLinker::FromSnapshot(snapshot);
  gates->Check(writer.ok(), "IncrementalLinker::FromSnapshot on the final corpus");
  if (!writer.ok()) return;
  int64_t start = NowNs();
  std::unique_ptr<IncrementalLinker> clone;
  {
    ScopedSpan span(spans, "core.incremental.clone");
    clone = (*writer)->Clone();
  }
  out->Layer("core.incremental.clone_s", static_cast<double>(NowNs() - start) * 1e-9,
             "s");
  start = NowNs();
  {
    ScopedSpan span(spans, "core.incremental.refresh");
    clone->Refresh();
  }
  out->Layer("core.incremental.refresh_s", static_cast<double>(NowNs() - start) * 1e-9,
             "s");
  start = NowNs();
  {
    ScopedSpan span(spans, "core.snapshot.capture");
    (void)CorpusSnapshot::Capture(*clone);
  }
  out->Layer("core.snapshot.capture_s", static_cast<double>(NowNs() - start) * 1e-9, "s");
}

}  // namespace perfbench
}  // namespace grouplink
