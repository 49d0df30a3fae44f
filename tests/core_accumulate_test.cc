// Score-accumulation property suite. At every entry point that decides
// links by accumulating over the weighted postings — the snapshot and the
// stored-corpus link query, a batch arrival under its record cutoff, a
// merge, and the self-join behind the batch edge join and Refresh — the
// θ-graph of every group (pair) equals the brute-force cosine graph: the
// same groups, edges in the same order, the same weight bits, and so the
// same decisions. The corpora include
// the hostile shapes: tombstones before a refresh, merged groups, an
// OOV-only probe record, an all-identical corpus, a token present in
// every record, and groups whose record ids do not ascend. The suite also
// proves the postings stay the transpose of the live vectors through
// every mutation, counts the exact work counters by brute force, keeps a
// thread's accumulator exact across calls that fail, stop or change
// corpus, decides no graph after a stop between probe records, and runs
// concurrent queries and a parallel arrival batch (the thread-sanitizer
// job runs this binary). ctest runs it twice: at the machine's tier, where
// pass 2 of the kernel sweeps the accumulator when that is AVX2, and as
// core_accumulate_force_scalar, where pass 2 walks the postings.
#include "core/accumulate.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "core/service.h"
#include "core/snapshot.h"
#include "data/bibliographic_generator.h"
#include "storage/page_file.h"
#include "storage/snapshot_store.h"
#include "storage/stored_corpus.h"
#include "text/tokenizer.h"

namespace grouplink {
namespace {

constexpr double kTheta = 0.35;

LinkageConfig TestConfig(int32_t num_threads = 1) {
  LinkageConfig config;
  config.theta = kTheta;
  config.group_threshold = 0.2;
  config.num_threads = num_threads;
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
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Probe vectors exactly as RunLinkQuery builds them.
std::vector<SparseVector> Vectorize(const Vocabulary& epoch_vocab,
                                    const std::vector<std::string>& texts) {
  const TfIdfVectorizer vectorizer(&epoch_vocab);
  std::vector<SparseVector> vectors;
  for (const std::string& text : texts) {
    vectors.push_back(vectorizer.Vectorize(Tokenize(text)));
  }
  return vectors;
}

std::vector<SparseVector> GroupVectors(const CorpusSnapshot& snapshot, int32_t g) {
  std::vector<SparseVector> vectors;
  for (const int32_t r : snapshot.group_records()[static_cast<size_t>(g)]) {
    vectors.push_back(snapshot.record_vectors()[static_cast<size_t>(r)]);
  }
  return vectors;
}

/// The θ-graph of the full cosine matrix, left records outer, right inner:
/// the graph every entry point built before score accumulation.
BipartiteGraph BruteForceGraph(const std::vector<SparseVector>& left,
                               const std::vector<SparseVector>& right) {
  BipartiteGraph graph(static_cast<int32_t>(left.size()),
                       static_cast<int32_t>(right.size()));
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      const double s = PrenormalizedCosineSimilarity(left[i], right[j]);
      if (s >= kTheta) {
        graph.AddEdge(static_cast<int32_t>(i), static_cast<int32_t>(j), s);
      }
    }
  }
  return graph;
}

void ExpectSameGraph(const BipartiteGraph& got, const BipartiteGraph& want,
                     const std::string& context) {
  ASSERT_EQ(got.num_left(), want.num_left()) << context;
  ASSERT_EQ(got.num_right(), want.num_right()) << context;
  ASSERT_EQ(got.edges().size(), want.edges().size()) << context;
  for (size_t e = 0; e < want.edges().size(); ++e) {
    const BipartiteEdge& a = got.edges()[e];
    const BipartiteEdge& b = want.edges()[e];
    EXPECT_EQ(a.left, b.left) << context << " edge " << e;
    EXPECT_EQ(a.right, b.right) << context << " edge " << e;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.weight), std::bit_cast<uint64_t>(b.weight))
        << context << " edge " << e;
  }
}

/// The posting entries accumulating `probe` reads: for each probe record,
/// the entries below `cutoff` in the lists of its tokens.
size_t BruteForceScanned(const CorpusSnapshot& truth, std::span<const SparseVector> probe,
                         int32_t cutoff) {
  size_t scanned = 0;
  for (const SparseVector& vector : probe) {
    for (const int32_t token : vector.ids) {
      for (const WeightedPosting& entry : truth.postings().List(token)) {
        scanned += entry.record < cutoff ? 1 : 0;
      }
    }
  }
  return scanned;
}

/// What one accumulation over `corpus` must reproduce, computed the old
/// way from `truth` (the in-RAM epoch the corpus serves).
struct Checked {
  size_t graphs = 0;
  size_t transposed = 0;  // Graphs with the probe on the left.
  size_t postings_scanned = 0;
  std::vector<int32_t> linked;
};

/// Checks AccumulateGraphs and AccumulateAndDecide over `corpus` against
/// the brute-force graph and decision of every live group of `truth`
/// that the placement admits: groups other than the probe's own, whose
/// records precede the cutoff. A group of the probe's own batch is
/// either entirely before the cutoff or entirely after it.
Checked ExpectAccumulationMatchesBruteForce(const PostingsCorpus& corpus,
                                            const CorpusSnapshot& truth,
                                            const std::vector<SparseVector>& probe,
                                            ProbePlacement placement,
                                            const std::string& context) {
  Checked checked;
  auto graphs = AccumulateGraphs(corpus, probe, placement, kTheta, nullptr,
                                 &checked.postings_scanned, nullptr);
  EXPECT_TRUE(graphs.ok()) << context << ": " << graphs.status().message();
  if (!graphs.ok()) return checked;
  checked.graphs = graphs->size();
  EXPECT_EQ(checked.postings_scanned, BruteForceScanned(truth, probe, placement.record_cutoff))
      << context;

  const FilterRefineConfig ladder = truth.engine_config().Ladder();
  const int32_t probe_size = static_cast<int32_t>(probe.size());
  size_t next = 0;
  for (int32_t g = 0; g < truth.num_groups(); ++g) {
    if (!truth.IsAlive(g) || g == placement.group) continue;
    const std::vector<int32_t>& members = truth.group_records()[static_cast<size_t>(g)];
    const size_t before_cutoff = static_cast<size_t>(
        std::count_if(members.begin(), members.end(),
                      [&](int32_t r) { return r < placement.record_cutoff; }));
    EXPECT_TRUE(before_cutoff == 0 || before_cutoff == members.size())
        << context << " group " << g << " straddles the cutoff";
    if (before_cutoff == 0) continue;
    const std::vector<SparseVector> vectors = GroupVectors(truth, g);
    const bool probe_left = g > placement.group;
    const BipartiteGraph want =
        probe_left ? BruteForceGraph(probe, vectors) : BruteForceGraph(vectors, probe);
    const int32_t size_left = probe_left ? probe_size : static_cast<int32_t>(vectors.size());
    const int32_t size_right = probe_left ? static_cast<int32_t>(vectors.size()) : probe_size;
    if (DecideGraphLinked(want, size_left, size_right, ladder)) checked.linked.push_back(g);
    if (want.edges().empty()) continue;
    const std::string where = context + " group " + std::to_string(g);
    if (next >= graphs->size() || (*graphs)[next].group != g) {
      ADD_FAILURE() << where << " has an edge but no accumulated graph";
      continue;
    }
    ExpectSameGraph((*graphs)[next].graph, want, where);
    if (probe_left) ++checked.transposed;
    ++next;
  }
  EXPECT_EQ(next, graphs->size()) << context << ": a graph for a group with no edge";

  auto decided = AccumulateAndDecide(corpus, probe, placement, ladder, nullptr);
  EXPECT_TRUE(decided.ok()) << context;
  if (decided.ok()) {
    EXPECT_EQ(decided->linked, checked.linked) << context;
    EXPECT_EQ(decided->candidates, checked.graphs) << context;
    EXPECT_EQ(decided->postings_scanned, checked.postings_scanned) << context;
    EXPECT_FALSE(decided->degraded) << context;
  }
  return checked;
}

/// The independent oracle of the postings invariant: every (token,
/// record, weight) of the live groups' vectors, sorted by token, then
/// record.
void ExpectPostingsAreTheLiveTranspose(const CorpusSnapshot& snapshot,
                                       const std::string& context) {
  std::vector<std::tuple<int32_t, int32_t, double>> entries;
  for (int32_t g = 0; g < snapshot.num_groups(); ++g) {
    if (!snapshot.IsAlive(g)) continue;
    for (const int32_t r : snapshot.group_records()[static_cast<size_t>(g)]) {
      const SparseVector& vector = snapshot.record_vectors()[static_cast<size_t>(r)];
      for (size_t k = 0; k < vector.size(); ++k) {
        entries.emplace_back(vector.ids[k], r, vector.weights[k]);
      }
    }
  }
  std::sort(entries.begin(), entries.end());
  const WeightedPostings& postings = snapshot.postings();
  EXPECT_EQ(postings.num_tokens(), snapshot.epoch_vocab().size()) << context;
  size_t next = 0;
  for (size_t t = 0; t < postings.num_tokens(); ++t) {
    for (const WeightedPosting& entry : postings.List(static_cast<int32_t>(t))) {
      ASSERT_LT(next, entries.size()) << context << ": extra entry at token " << t;
      const auto& [token, record, weight] = entries[next++];
      EXPECT_EQ(static_cast<int32_t>(t), token) << context;
      EXPECT_EQ(entry.record, record) << context << " token " << t;
      EXPECT_EQ(std::bit_cast<uint64_t>(entry.weight), std::bit_cast<uint64_t>(weight))
          << context << " token " << t;
    }
  }
  EXPECT_EQ(next, entries.size()) << context << ": live entries missing";
}

/// One corpus shape: a seed, the mutations applied after Create (no
/// refresh follows them), and the probes to run.
struct Scenario {
  std::string name;
  Dataset seed;
  std::vector<std::pair<int32_t, int32_t>> merges;  // (into, from)
  std::vector<int32_t> removals;
  std::vector<std::vector<std::string>> probes;
};

Dataset Uniform(int32_t groups, int32_t records_per_group, const std::string& text) {
  Dataset dataset;
  for (int32_t g = 0; g < groups; ++g) {
    Group group;
    group.id = std::to_string(g);
    group.label = "g" + std::to_string(g);
    for (int32_t i = 0; i < records_per_group; ++i) {
      group.record_ids.push_back(dataset.num_records());
      dataset.records.push_back({std::to_string(dataset.num_records()), text, {}});
    }
    dataset.groups.push_back(std::move(group));
  }
  return dataset;
}

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> all;
  all.push_back({"bibliographic", MakeCorpus(20, 42), {}, {}, {}});
  all.push_back({"tombstones-before-refresh", MakeCorpus(20, 17), {}, {3, 8}, {}});
  all.push_back({"merged-groups", MakeCorpus(20, 23), {{2, 9}, {12, 4}}, {}, {}});
  all.push_back(
      {"all-identical", Uniform(8, 3, "group linkage of author records"), {}, {}, {}});
  all.push_back({"token-in-every-record", MakeCorpus(15, 7), {}, {}, {}});
  for (Record& record : all.back().seed.records) record.text += " ubiquitous";
  all.push_back({"descending-group-records", MakeCorpus(15, 11), {}, {}, {}});
  for (Group& group : all.back().seed.groups) {
    std::reverse(group.record_ids.begin(), group.record_ids.end());
  }
  for (Scenario& s : all) {
    for (int32_t g = 0; g < s.seed.num_groups(); g += 3) {
      s.probes.push_back(GroupTexts(s.seed, g));
    }
    // An OOV-only record beside a real one, and a probe of OOV tokens only.
    std::vector<std::string> mixed = GroupTexts(s.seed, 1);
    mixed.insert(mixed.begin(), "zzqxv wvvkj qqxz");
    s.probes.push_back(std::move(mixed));
    s.probes.push_back({"zzqxv wvvkj", "qqxz"});
  }
  return all;
}

std::unique_ptr<IncrementalLinker> BuildLinker(const Scenario& scenario,
                                               int32_t num_threads = 1) {
  auto created = IncrementalLinker::Create(scenario.seed, TestConfig(num_threads));
  GL_CHECK(created.ok()) << created.status().message();
  auto linker = std::make_unique<IncrementalLinker>(std::move(*created));
  for (const auto& [into, from] : scenario.merges) (void)linker->MergeGroups(into, from);
  for (const int32_t g : scenario.removals) linker->RemoveGroup(g);
  return linker;
}

TEST(AccumulateTest, QueryGraphsMatchBruteForceOnSnapshotAndStoredCorpus) {
  for (const Scenario& scenario : Scenarios()) {
    const auto linker = BuildLinker(scenario);
    const auto snapshot = CorpusSnapshot::Capture(*linker);
    const std::string path = StorePath("accumulate_" + scenario.name + ".glsnap");
    storage::StorageOptions options;
    options.page_bytes = 512;
    ASSERT_TRUE(storage::SnapshotStore::Persist(*snapshot, path, options).ok());
    storage::StorageOptions open_options;
    open_options.buffer_pool_pages = 2;
    auto stored = storage::StoredCorpus::Open(path, open_options);
    ASSERT_TRUE(stored.ok()) << stored.status().message();

    size_t graphs = 0;
    for (size_t p = 0; p < scenario.probes.size(); ++p) {
      const std::vector<SparseVector> probe =
          Vectorize(snapshot->epoch_vocab(), scenario.probes[p]);
      const std::string context = scenario.name + " probe " + std::to_string(p);
      const Checked in_ram = ExpectAccumulationMatchesBruteForce(
          *snapshot, *snapshot, probe, {}, context + " (snapshot)");
      const Checked paged = ExpectAccumulationMatchesBruteForce(
          **stored, *snapshot, probe, {}, context + " (stored)");
      EXPECT_EQ(paged.postings_scanned, in_ram.postings_scanned) << context;
      graphs += in_ram.graphs;

      // The full pipeline agrees with the brute-force decisions too.
      const auto query = snapshot->LinkQuery({"probe", scenario.probes[p]});
      EXPECT_EQ(query.linked_to, in_ram.linked) << context;
      EXPECT_EQ(query.candidates, in_ram.graphs) << context;
      EXPECT_EQ(query.postings_scanned, in_ram.postings_scanned) << context;
    }
    EXPECT_GT(graphs, 0u) << scenario.name << ": the property must not hold vacuously";
    ASSERT_TRUE(storage::RemoveFile(path).ok());
  }
}

TEST(AccumulateTest, ArrivalGraphsUnderTheRecordCutoffMatchBruteForce) {
  for (const Scenario& scenario : Scenarios()) {
    const auto linker = BuildLinker(scenario);
    // A batch whose later arrivals replay earlier ones, so cross-arrival
    // edges exist and the cutoff has something to cut.
    std::vector<GroupArrival> batch;
    for (size_t p = 0; p < scenario.probes.size(); ++p) {
      batch.push_back({"arrival " + std::to_string(p), scenario.probes[p]});
    }
    batch.push_back({"replay", scenario.probes.front()});
    const std::vector<IncrementalLinker::AddResult> added = linker->AddGroups(batch);
    const auto snapshot = CorpusSnapshot::Capture(*linker);
    for (size_t k = 0; k < added.size(); ++k) {
      const int32_t group = added[k].group_index;
      const std::vector<int32_t>& records =
          snapshot->group_records()[static_cast<size_t>(group)];
      const ProbePlacement placement{group, records.front()};
      const std::string context = scenario.name + " arrival " + std::to_string(k);
      const Checked checked = ExpectAccumulationMatchesBruteForce(
          *snapshot, *snapshot, GroupVectors(*snapshot, group), placement, context);
      EXPECT_EQ(added[k].linked_to, checked.linked) << context;
      EXPECT_EQ(added[k].candidates, checked.graphs) << context;
      EXPECT_EQ(added[k].postings_scanned, checked.postings_scanned) << context;
    }
    // The replay links to the arrival it repeats: an in-batch edge.
    EXPECT_NE(std::find(added.back().linked_to.begin(), added.back().linked_to.end(),
                        added.front().group_index),
              added.back().linked_to.end())
        << scenario.name;
  }
}

TEST(AccumulateTest, MergeGraphsKeepThePairOrientation) {
  const Dataset dataset = MakeCorpus(25, 13);
  // into < from (later groups get the transposed graph) and into > from.
  for (const auto& [into, from] : {std::pair{3, 17}, std::pair{20, 6}}) {
    auto linker = IncrementalLinker::Create(dataset, TestConfig());
    ASSERT_TRUE(linker.ok());
    const IncrementalLinker::AddResult merged = linker->MergeGroups(into, from);
    const auto snapshot = CorpusSnapshot::Capture(*linker);
    const std::string context =
        "merge " + std::to_string(from) + " into " + std::to_string(into);
    const Checked checked =
        ExpectAccumulationMatchesBruteForce(*snapshot, *snapshot, GroupVectors(*snapshot, into),
                                            {into, ProbePlacement::kNone}, context);
    EXPECT_EQ(merged.linked_to, checked.linked) << context;
    EXPECT_EQ(merged.candidates, checked.graphs) << context;
    EXPECT_EQ(merged.postings_scanned, checked.postings_scanned) << context;
    EXPECT_GT(checked.graphs, 0u) << context;
    if (into < from) {
      EXPECT_GT(checked.transposed, 0u) << context;
    }
  }
}

TEST(AccumulateTest, PostingsStayTheTransposeOfTheLiveVectors) {
  const Dataset full = MakeCorpus(30, 31);
  Dataset seed;
  std::vector<GroupArrival> arrivals;
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (g < 2 * full.num_groups() / 3) {
      Group rebased = full.groups[static_cast<size_t>(g)];
      rebased.record_ids.clear();
      for (const int32_t r : full.groups[static_cast<size_t>(g)].record_ids) {
        rebased.record_ids.push_back(seed.num_records());
        seed.records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed.groups.push_back(std::move(rebased));
    } else {
      arrivals.push_back({full.groups[static_cast<size_t>(g)].label, GroupTexts(full, g)});
    }
  }
  ASSERT_TRUE(seed.Validate().ok());

  auto created = IncrementalLinker::Create(seed, TestConfig(2));
  ASSERT_TRUE(created.ok());
  IncrementalLinker& linker = *created;
  ExpectPostingsAreTheLiveTranspose(*CorpusSnapshot::Capture(linker), "Create");
  (void)linker.AddGroups(arrivals);
  ExpectPostingsAreTheLiveTranspose(*CorpusSnapshot::Capture(linker), "AddGroups");
  linker.RemoveGroup(4);
  ExpectPostingsAreTheLiveTranspose(*CorpusSnapshot::Capture(linker), "RemoveGroup");
  (void)linker.MergeGroups(1, linker.num_groups() - 1);
  ExpectPostingsAreTheLiveTranspose(*CorpusSnapshot::Capture(linker), "MergeGroups");
  const std::unique_ptr<IncrementalLinker> clone = linker.Clone();
  const auto cloned = CorpusSnapshot::Capture(*clone);
  ExpectPostingsAreTheLiveTranspose(*cloned, "Clone");
  EXPECT_EQ(cloned->postings(), CorpusSnapshot::Capture(linker)->postings());
  linker.Refresh();
  const auto refreshed = CorpusSnapshot::Capture(linker);
  ExpectPostingsAreTheLiveTranspose(*refreshed, "Refresh");

  // Warm restart from a tombstoned, pre-refresh epoch and from a stored one.
  auto restarted = IncrementalLinker::FromSnapshot(*cloned);
  ASSERT_TRUE(restarted.ok());
  ExpectPostingsAreTheLiveTranspose(*CorpusSnapshot::Capture(**restarted), "FromSnapshot");
  EXPECT_EQ(CorpusSnapshot::Capture(**restarted)->postings(), cloned->postings());
  const std::string path = StorePath("accumulate_postings.glsnap");
  ASSERT_TRUE(storage::SnapshotStore::Persist(*cloned, path).ok());
  const auto loaded = storage::SnapshotStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ExpectPostingsAreTheLiveTranspose(**loaded, "Load");
  EXPECT_EQ((*loaded)->postings(), cloned->postings());
  EXPECT_EQ((*loaded)->record_vectors().size(), cloned->record_vectors().size());
  for (size_t r = 0; r < cloned->record_vectors().size(); ++r) {
    EXPECT_EQ((*loaded)->record_vectors()[r].ids, cloned->record_vectors()[r].ids);
    EXPECT_EQ((*loaded)->record_vectors()[r].weights, cloned->record_vectors()[r].weights);
  }
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

/// A scenario's live corpus as the batch engine sees it: the seed after its
/// merges and removals, live records in record-id order and live groups
/// in slot order (the linker's own orders). `group_map[slot]` is the
/// group's index in the dataset, -1 for a tombstone.
Dataset LiveDataset(const Scenario& scenario, std::vector<int32_t>* group_map) {
  const Dataset& seed = scenario.seed;
  std::vector<std::vector<int32_t>> members;
  for (const Group& group : seed.groups) members.push_back(group.record_ids);
  std::vector<char> group_alive(members.size(), 1);
  std::vector<char> record_alive(seed.records.size(), 1);
  for (const auto& [into, from] : scenario.merges) {
    auto& target = members[static_cast<size_t>(into)];
    auto& source = members[static_cast<size_t>(from)];
    target.insert(target.end(), source.begin(), source.end());
    std::sort(target.begin(), target.end());
    source.clear();
    group_alive[static_cast<size_t>(from)] = 0;
  }
  for (const int32_t g : scenario.removals) {
    for (const int32_t r : members[static_cast<size_t>(g)]) {
      record_alive[static_cast<size_t>(r)] = 0;
    }
    members[static_cast<size_t>(g)].clear();
    group_alive[static_cast<size_t>(g)] = 0;
  }
  Dataset live;
  std::vector<int32_t> record_map(seed.records.size(), -1);
  for (size_t r = 0; r < seed.records.size(); ++r) {
    if (!record_alive[r]) continue;
    record_map[r] = live.num_records();
    live.records.push_back(seed.records[r]);
  }
  group_map->assign(members.size(), -1);
  for (size_t g = 0; g < members.size(); ++g) {
    if (!group_alive[g]) continue;
    (*group_map)[g] = live.num_groups();
    Group group = seed.groups[g];
    group.record_ids.clear();
    for (const int32_t r : members[g]) {
      group.record_ids.push_back(record_map[static_cast<size_t>(r)]);
    }
    live.groups.push_back(std::move(group));
  }
  return live;
}

bool SharesToken(const SparseVector& a, const SparseVector& b) {
  for (size_t i = 0, j = 0; i < a.ids.size() && j < b.ids.size();) {
    if (a.ids[i] == b.ids[j]) return true;
    a.ids[i] < b.ids[j] ? ++i : ++j;
  }
  return false;
}

/// Checks a self-join of the unmutated corpus `snapshot`, whose groups are
/// `dataset`'s, against brute force: every group pair (g1 < g2) whose
/// cosine matrix has a θ-edge is exactly one bucket, in ascending order,
/// and its graph is BuildSimilarityGraph's edge for edge and bit for bit;
/// the join stage's record_candidates and postings_scanned are counted
/// record pair by record pair. Adds the buckets compared to `*compared`.
void ExpectSelfJoinMatchesBruteForce(const CorpusSnapshot& snapshot, const Dataset& dataset,
                                     const JoinBuckets& joined, const RunReport& report,
                                     const std::string& context, size_t* compared) {
  const std::vector<SparseVector>& vectors = snapshot.record_vectors();
  const RecordSimFn sim = [&](int32_t a, int32_t b) {
    return PrenormalizedCosineSimilarity(vectors[static_cast<size_t>(a)],
                                         vectors[static_cast<size_t>(b)]);
  };
  size_t next = 0;
  for (int32_t g1 = 0; g1 < dataset.num_groups(); ++g1) {
    for (int32_t g2 = g1 + 1; g2 < dataset.num_groups(); ++g2) {
      const BipartiteGraph want = BuildSimilarityGraph(dataset, g1, g2, sim, kTheta);
      if (want.edges().empty()) continue;
      const std::string where =
          context + " pair " + std::to_string(g1) + "," + std::to_string(g2);
      ASSERT_LT(next, joined.buckets.size()) << where << " has no bucket";
      const JoinBuckets::Bucket& bucket = joined.buckets[next];
      ASSERT_EQ(std::make_pair(bucket.g1, bucket.g2), std::make_pair(g1, g2)) << where;
      ExpectSameGraph(joined.Graph(next), want, where);
      ++next;
    }
  }
  EXPECT_EQ(next, joined.buckets.size()) << context << ": a bucket with no edge";
  *compared += next;
  EXPECT_EQ(report.StageCounter("bucket", "group_pairs"),
            static_cast<int64_t>(joined.buckets.size()))
      << context;
  // Record r accumulates against the records below it.
  int64_t record_pairs = 0;
  size_t scanned = 0;
  for (size_t r = 0; r < vectors.size(); ++r) {
    scanned += BruteForceScanned(snapshot, std::span(vectors).subspan(r, 1),
                                 static_cast<int32_t>(r));
    for (size_t q = 0; q < r; ++q) record_pairs += SharesToken(vectors[r], vectors[q]) ? 1 : 0;
  }
  EXPECT_EQ(report.StageCounter("join", "record_candidates"), record_pairs) << context;
  EXPECT_EQ(report.StageCounter("join", "postings_scanned"), static_cast<int64_t>(scanned))
      << context;
}

TEST(AccumulateSelfJoinTest, BucketGraphsMatchTheCosineMatrixAtAnyThreadCount) {
  // On the unmutated corpora, the join equals brute force at 1, 2 and 7
  // threads, and so its work counters are equal at every thread count.
  size_t compared = 0;
  for (const Scenario& scenario : Scenarios()) {
    if (!scenario.merges.empty() || !scenario.removals.empty()) continue;
    const auto snapshot = CorpusSnapshot::Capture(*BuildLinker(scenario));
    RunReport reference;
    for (const int32_t threads : {1, 2, 7}) {
      const std::string context = scenario.name + " @ " + std::to_string(threads);
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
      RunReport report;
      JoinBuckets joined;
      ASSERT_TRUE(AccumulateSelfJoin(*snapshot, snapshot->record_vectors(), kTheta, pool.get(),
                                     nullptr, &report, &joined)
                      .ok())
          << context;
      ExpectSelfJoinMatchesBruteForce(*snapshot, scenario.seed, joined, report, context,
                                      &compared);
      if (threads == 1) {
        reference = report;
        EXPECT_GT(report.StageCounter("join", "postings_scanned"), 0) << context;
        continue;
      }
      for (const char* counter : {"record_candidates", "edges", "postings_scanned"}) {
        EXPECT_EQ(report.StageCounter("join", counter),
                  reference.StageCounter("join", counter))
            << context << " " << counter;
      }
    }
  }
  EXPECT_GT(compared, 0u) << "the property must not hold vacuously";
}

TEST(AccumulateSelfJoinTest, AJoinThatSkipsRecordsKeepsOnlyCompleteBuckets) {
  // Eight groups of three identical records: every cross-group record
  // pair is an edge. The execution.deadline fault stops the serial join
  // before record 8 (one poll before the shard, then one per record), so
  // groups 0 and 1 are complete and group 2 is cut after two of its
  // records. Its buckets with groups 0 and 1 would hold 6 of their 9
  // edges; they must be dropped, leaving only the complete bucket (0, 1).
  const Dataset seed = Uniform(8, 3, "group linkage of author records");
  const auto linker = IncrementalLinker::Create(seed, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  const std::vector<SparseVector>& vectors = snapshot->record_vectors();
  const RecordSimFn sim = [&](int32_t a, int32_t b) {
    return PrenormalizedCosineSimilarity(vectors[static_cast<size_t>(a)],
                                         vectors[static_cast<size_t>(b)]);
  };
  ScopedFaultClear clear;
  ASSERT_TRUE(FaultInjector::Default().ArmFromSpec("execution.deadline:after=9").ok());
  ExecutionContext ctx;
  RunReport report;
  JoinBuckets joined;
  ASSERT_TRUE(AccumulateSelfJoin(*snapshot, vectors, kTheta, nullptr, &ctx, &report, &joined).ok());
  EXPECT_TRUE(ctx.degraded());
  EXPECT_EQ(report.StageCounter("join", "probes_skipped"), 24 - 8);
  ASSERT_EQ(joined.buckets.size(), 1u);
  EXPECT_EQ(std::make_pair(joined.buckets[0].g1, joined.buckets[0].g2), std::make_pair(0, 1));
  ExpectSameGraph(joined.Graph(0), BuildSimilarityGraph(seed, 0, 1, sim, kTheta), "bucket 0,1");
}

TEST(AccumulateSelfJoinTest, EdgeJoinLinksEqualAllPairsWithAndWithoutBounds) {
  for (const Scenario& scenario : Scenarios()) {
    if (!scenario.merges.empty() || !scenario.removals.empty()) continue;
    for (const bool bounds : {true, false}) {
      LinkageConfig all_pairs = TestConfig();
      all_pairs.candidates = CandidateMethod::kAllPairs;
      all_pairs.use_filter_refine = bounds;
      const auto want = RunGroupLinkage(scenario.seed, all_pairs);
      ASSERT_TRUE(want.ok());
      for (const int32_t threads : {1, 2, 7}) {
        LinkageConfig edge_join = TestConfig(threads);
        edge_join.use_edge_join = true;
        edge_join.use_filter_refine = bounds;
        const auto got = RunGroupLinkage(scenario.seed, edge_join);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got->linked_pairs, want->linked_pairs)
            << scenario.name << " bounds=" << bounds << " @ " << threads;
      }
    }
  }
}

TEST(AccumulateSelfJoinTest, RefreshEqualsTheBatchEngineOnEveryCorpus) {
  // Tombstones and merged groups included: Refresh's edge join over the
  // live postings reproduces the per-pair batch run of engine_config() on
  // the live corpus.
  for (const Scenario& scenario : Scenarios()) {
    std::vector<int32_t> group_map;
    const Dataset live = LiveDataset(scenario, &group_map);
    for (const int32_t threads : {1, 2, 7}) {
      const auto linker = BuildLinker(scenario, threads);
      linker->Refresh();
      const auto batch = RunGroupLinkage(live, linker->engine_config());
      ASSERT_TRUE(batch.ok());
      std::vector<std::pair<int32_t, int32_t>> mapped;
      for (const auto& [a, b] : linker->linked_pairs()) {
        mapped.emplace_back(group_map[static_cast<size_t>(a)],
                            group_map[static_cast<size_t>(b)]);
      }
      EXPECT_EQ(mapped, batch->linked_pairs) << scenario.name << " @ " << threads;
      EXPECT_FALSE(mapped.empty()) << scenario.name;
    }
  }
}

/// A corpus whose one posting names record 1, which its group (0) does not
/// list: a store whose metadata and postings disagree.
class MislistedCorpus final : public PostingsCorpus {
 public:
  Status FetchPostings(std::span<const int32_t> tokens,
                       FetchedPostings* out) const override {
    out->lists.assign(tokens.size(), list_);
    return Status::Ok();
  }
  const std::vector<int32_t>& record_group() const override { return record_group_; }
  const std::vector<int32_t>& GroupRecords(int32_t /*g*/) const override {
    return members_;
  }

 private:
  PostingList list_{{1, 1.0}};
  std::vector<int32_t> record_group_{0, 0};
  std::vector<int32_t> members_{0};
};

TEST(AccumulateTest, PostingOfAnUnlistedRecordIsDataLoss) {
  const MislistedCorpus corpus;
  SparseVector probe;
  probe.ids = {0};
  probe.weights = {1.0};
  size_t scanned = 0;
  const auto graphs =
      AccumulateGraphs(corpus, std::vector<SparseVector>{probe}, {}, kTheta, nullptr, &scanned,
                       nullptr);
  ASSERT_FALSE(graphs.ok());
  EXPECT_EQ(graphs.status().code(), StatusCode::kDataLoss);
}

TEST(AccumulateTest, EveryCallLeavesTheThreadsAccumulatorAtZero) {
  // Every accumulation on a thread shares one dense accumulator, whose
  // sums are all +0.0 between calls. Interleave on this thread the calls
  // that leave early or size it for another corpus — a DataLoss, a
  // self-join over a larger corpus, a query stopped between records —
  // with queries on a smaller corpus: every answer stays the brute-force
  // one, graphs, links and postings_scanned.
  const Dataset small_set = MakeCorpus(12, 3);
  const Dataset large_set = MakeCorpus(40, 5);
  auto small_linker = IncrementalLinker::Create(small_set, TestConfig());
  auto large_linker = IncrementalLinker::Create(large_set, TestConfig());
  ASSERT_TRUE(small_linker.ok() && large_linker.ok());
  const auto small = CorpusSnapshot::Capture(*small_linker);
  const auto large = CorpusSnapshot::Capture(*large_linker);
  ASSERT_GT(large->num_records(), small->num_records());
  const auto query_small = [&](const std::string& when) {
    for (int32_t g = 0; g < small_set.num_groups(); g += 2) {
      (void)ExpectAccumulationMatchesBruteForce(
          *small, *small, Vectorize(small->epoch_vocab(), GroupTexts(small_set, g)), {},
          when + ", probe " + std::to_string(g));
    }
  };
  query_small("first");

  const MislistedCorpus mislisted;
  SparseVector token_zero;
  token_zero.ids = {0};
  token_zero.weights = {1.0};
  size_t scanned = 0;
  const auto lost = AccumulateGraphs(mislisted, std::vector<SparseVector>{token_zero}, {},
                                     kTheta, nullptr, &scanned, nullptr);
  EXPECT_EQ(lost.status().code(), StatusCode::kDataLoss);
  query_small("after a DataLoss");

  RunReport report;
  JoinBuckets joined;
  ASSERT_TRUE(AccumulateSelfJoin(*large, large->record_vectors(), kTheta, nullptr, nullptr,
                                 &report, &joined)
                  .ok());
  size_t compared = 0;
  ExpectSelfJoinMatchesBruteForce(*large, large_set, joined, report, "larger self-join",
                                  &compared);
  EXPECT_GT(compared, 0u);
  query_small("after a larger self-join");

  // One poll before the fetch and one before record 1: the stop comes
  // after the probe's first record.
  const std::vector<SparseVector> probe =
      Vectorize(small->epoch_vocab(), GroupTexts(small_set, 0));
  ASSERT_GT(probe.size(), 1u);
  {
    ScopedFaultClear clear;
    ASSERT_TRUE(FaultInjector::Default().ArmFromSpec("execution.deadline:after=1").ok());
    const ExecutionContext ctx;
    scanned = 0;
    bool stopped = false;
    const auto none = AccumulateGraphs(*small, probe, {}, kTheta, &ctx, &scanned, &stopped);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(stopped);
    EXPECT_TRUE(none->empty());
    EXPECT_EQ(scanned,
              BruteForceScanned(*small, std::span(probe).first(1), ProbePlacement::kNone));
  }
  query_small("after a stopped query");
}

TEST(AccumulateTest, AStopDuringAccumulationDecidesNoGraph) {
  // A 10,000-record probe: the corpus's records, cycled. The
  // execution.deadline fault stops it after kAccumulated records (a poll
  // before each record, the first before the fetch; an arrival's
  // ParallelFor polls once more, before the arrival). Its graphs then lack
  // the other records' edges, and BM is not monotone in the edge set, so
  // the snapshot query, the stored query and the arrival each come back
  // degraded with no candidate and no link, having read the postings of
  // the accumulated records only.
  const Dataset dataset = MakeCorpus(20, 42);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  const std::string path = StorePath("accumulate_stopped.glsnap");
  ASSERT_TRUE(storage::SnapshotStore::Persist(*snapshot, path).ok());
  auto stored = storage::StoredCorpus::Open(path);
  ASSERT_TRUE(stored.ok()) << stored.status().message();

  constexpr size_t kAccumulated = 3;
  GroupArrival probe{"probe", {}};
  for (size_t i = 0; probe.record_texts.size() < 10000; ++i) {
    probe.record_texts.push_back(dataset.records[i % dataset.records.size()].text);
  }
  const std::vector<SparseVector> vectors =
      Vectorize(snapshot->epoch_vocab(), probe.record_texts);
  const size_t accumulated = BruteForceScanned(
      *snapshot, std::span(vectors).first(kAccumulated), ProbePlacement::kNone);
  const auto full = snapshot->LinkQuery(probe);
  ASSERT_FALSE(full.degraded);
  ASSERT_GT(full.candidates, 0u);
  ASSERT_GT(full.postings_scanned, accumulated);

  ScopedFaultClear clear;
  const auto arm = [](size_t after) {
    return FaultInjector::Default()
        .ArmFromSpec("execution.deadline:after=" + std::to_string(after))
        .ok();
  };
  ASSERT_TRUE(arm(kAccumulated));
  const CorpusSnapshot::QueryResult in_ram = snapshot->LinkQuery(probe);
  ASSERT_TRUE(arm(kAccumulated));
  const auto paged = (*stored)->LinkQuery(probe);
  ASSERT_TRUE(paged.ok()) << paged.status().message();
  for (const CorpusSnapshot::QueryResult* answer : {&in_ram, &*paged}) {
    EXPECT_TRUE(answer->degraded);
    EXPECT_TRUE(answer->linked_to.empty());
    EXPECT_EQ(answer->candidates, 0u);
    EXPECT_EQ(answer->postings_scanned, accumulated);
  }

  ASSERT_TRUE(arm(kAccumulated + 1));
  const std::vector<IncrementalLinker::AddResult> added = linker->AddGroups({probe});
  ASSERT_EQ(added.size(), 1u);
  EXPECT_TRUE(added[0].degraded);
  EXPECT_TRUE(added[0].linked_to.empty());
  EXPECT_EQ(added[0].candidates, 0u);
  EXPECT_EQ(added[0].postings_scanned, accumulated);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

// Four records over five epoch tokens; "apple" is in two of them.
Dataset TinyCorpus() {
  auto dataset = MakeDataset({{"0", "apple banana", {}},
                              {"1", "cherry", {}},
                              {"2", "apple date", {}},
                              {"3", "elder", {}}},
                             {0, 0, 1, 2}, 3);
  GL_CHECK(dataset.ok());
  return *dataset;
}

TEST(AccumulateTest, PostingsScannedIsPinnedAndMirroredIntoTheRegistry) {
  // The probe's first record reads the lists of "apple" (records 0 and 2)
  // and "cherry" (record 1): 3 entries. "fig" is unknown to the epoch, so
  // the second record reads nothing.
  const GroupArrival probe{"probe", {"apple cherry", "fig"}};
  constexpr size_t kScanned = 3;

  MetricsRegistry& registry = MetricsRegistry::Default();
  ServiceConfig config;
  config.engine = TestConfig();
  auto service = LinkageService::Create(TinyCorpus(), config);
  ASSERT_TRUE(service.ok());
  Counter& query_counter = registry.CounterRef("service.query_postings_scanned");
  const uint64_t queried_before = query_counter.Value();
  const auto query = service->LinkQuery(probe);
  EXPECT_EQ(query.postings_scanned, kScanned);
  EXPECT_EQ(query_counter.Value() - queried_before, kScanned);

  // The arrival reads the same three entries: its own records, appended
  // to the same lists, lie past its cutoff.
  Counter& add_counter = registry.CounterRef("incremental.postings_scanned");
  const uint64_t added_before = add_counter.Value();
  const auto added = service->AddGroup(probe.label, probe.record_texts);
  EXPECT_EQ(added.postings_scanned, kScanned);
  EXPECT_EQ(added.candidates, query.candidates);
  EXPECT_EQ(add_counter.Value() - added_before, kScanned);
}

/// A seed corpus (the first 20 groups of a 30-entity corpus, renumbered)
/// and an arrival batch: the other groups, then a replay of group 20.
std::pair<Dataset, std::vector<GroupArrival>> SeedAndArrivals() {
  const Dataset full = MakeCorpus(30, 57);
  Dataset seed;
  for (int32_t g = 0; g < 20; ++g) {
    Group group = full.groups[static_cast<size_t>(g)];
    group.record_ids.clear();
    for (const int32_t r : full.groups[static_cast<size_t>(g)].record_ids) {
      group.record_ids.push_back(seed.num_records());
      seed.records.push_back(full.records[static_cast<size_t>(r)]);
    }
    seed.groups.push_back(std::move(group));
  }
  std::vector<GroupArrival> batch;
  for (int32_t g = 20; g < full.num_groups(); ++g) {
    batch.push_back({"arrival", GroupTexts(full, g)});
  }
  batch.push_back({"replay", GroupTexts(full, 20)});
  return {std::move(seed), std::move(batch)};
}

TEST(AccumulateTest, PostingsScannedIsEqualAtAnyThreadCount) {
  const auto [seed, batch] = SeedAndArrivals();
  std::vector<IncrementalLinker::AddResult> reference;
  for (const int32_t threads : {1, 2, 7}) {
    auto linker = IncrementalLinker::Create(seed, TestConfig(threads));
    ASSERT_TRUE(linker.ok());
    const std::vector<IncrementalLinker::AddResult> added = linker->AddGroups(batch);
    if (reference.empty()) {
      reference = added;
      size_t total = 0;
      for (const auto& result : added) total += result.postings_scanned;
      EXPECT_GT(total, 0u);
      continue;
    }
    ASSERT_EQ(added.size(), reference.size());
    for (size_t k = 0; k < added.size(); ++k) {
      EXPECT_EQ(added[k].postings_scanned, reference[k].postings_scanned)
          << threads << " threads, arrival " << k;
      EXPECT_EQ(added[k].candidates, reference[k].candidates) << threads << " threads";
      EXPECT_EQ(added[k].linked_to, reference[k].linked_to) << threads << " threads";
    }
  }
}

TEST(AccumulateTest, AStopDuringAParallelArrivalBatchDegradesArrivalsCleanly) {
  // The batch's workers share one context, so one worker's stop reaches
  // the others between or inside their accumulations, possibly while the
  // first is still noting it. Whichever poll trips, every arrival reads
  // the stop as a stop, not an error: the batch completes, an arrival
  // that is not degraded is the unconstrained one, and a degraded arrival
  // only loses links.
  const auto [seed, batch] = SeedAndArrivals();
  auto reference_linker = IncrementalLinker::Create(seed, TestConfig(4));
  ASSERT_TRUE(reference_linker.ok());
  const std::vector<IncrementalLinker::AddResult> reference =
      reference_linker->AddGroups(batch);
  for (const auto& result : reference) ASSERT_FALSE(result.degraded);
  for (int after = 0; after < 24; ++after) {
    auto linker = IncrementalLinker::Create(seed, TestConfig(4));
    ASSERT_TRUE(linker.ok());
    ScopedFaultClear clear;
    ASSERT_TRUE(FaultInjector::Default()
                    .ArmFromSpec("execution.deadline:after=" + std::to_string(after))
                    .ok());
    const std::vector<IncrementalLinker::AddResult> added = linker->AddGroups(batch);
    ASSERT_EQ(added.size(), reference.size());
    size_t degraded = 0;
    for (size_t k = 0; k < added.size(); ++k) {
      const std::string where =
          "stop after " + std::to_string(after) + " polls, arrival " + std::to_string(k);
      const std::vector<int32_t>& got = added[k].linked_to;
      const std::vector<int32_t>& want = reference[k].linked_to;
      if (!added[k].degraded) {
        EXPECT_EQ(got, want) << where;
        EXPECT_EQ(added[k].postings_scanned, reference[k].postings_scanned) << where;
        continue;
      }
      ++degraded;
      EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(), got.end())) << where;
    }
    EXPECT_GT(degraded, 0u) << "stop after " << after << " polls";
  }
}

TEST(AccumulateTest, ConcurrentQueriesWithPerThreadScratchStayExact) {
  const Dataset dataset = MakeCorpus(25, 61);
  auto linker = IncrementalLinker::Create(dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  linker->RemoveGroup(5);
  const auto snapshot = CorpusSnapshot::Capture(*linker);
  const std::string path = StorePath("accumulate_concurrent.glsnap");
  storage::StorageOptions options;
  options.page_bytes = 512;
  ASSERT_TRUE(storage::SnapshotStore::Persist(*snapshot, path, options).ok());
  constexpr int kThreads = 4;
  storage::StorageOptions open_options;
  open_options.buffer_pool_pages = kThreads;  // One pin per reader.
  auto stored = storage::StoredCorpus::Open(path, open_options);
  ASSERT_TRUE(stored.ok());

  std::vector<CorpusSnapshot::QueryResult> serial;
  for (int32_t g = 0; g < dataset.num_groups(); ++g) {
    serial.push_back(snapshot->LinkQuery({"probe", GroupTexts(dataset, g)}));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int32_t g = 0; g < dataset.num_groups(); ++g) {
          const GroupArrival probe{"probe", GroupTexts(dataset, g)};
          const auto want = serial[static_cast<size_t>(g)];
          const auto in_ram = snapshot->LinkQuery(probe);
          const auto paged = (*stored)->LinkQuery(probe);
          if (in_ram.linked_to != want.linked_to ||
              in_ram.postings_scanned != want.postings_scanned || !paged.ok() ||
              paged->linked_to != want.linked_to ||
              paged->postings_scanned != want.postings_scanned) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0);
  ASSERT_TRUE(storage::RemoveFile(path).ok());
}

}  // namespace
}  // namespace grouplink
