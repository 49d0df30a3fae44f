// Differential property suite for the streaming linker: streaming with an
// epoch refresh at (or after) the last arrival must reproduce the batch
// engine's link set *exactly*, under batched arrivals, interleaved
// removals, re-adds, and merges, at any thread count. Without refresh the
// streaming output is approximate (frozen IDF + dropped OOV tokens) and is
// checked against the documented subset relation on these workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/linkage_engine.h"
#include "data/bibliographic_generator.h"

namespace grouplink {
namespace {

LinkageConfig TestConfig(int32_t threads = 1) {
  LinkageConfig config;
  config.theta = 0.35;
  config.group_threshold = 0.2;
  config.num_threads = threads;
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

// Mirror of the streaming linker's id spaces, driven by the test alongside
// the linker itself. From it we can build, at any point, the dataset a
// batch engine would see: live records in record-id (= arrival) order,
// live groups in slot order.
struct StreamMirror {
  std::vector<std::string> record_texts;
  std::vector<char> record_alive;
  std::vector<std::vector<int32_t>> group_records;
  std::vector<std::string> group_labels;
  std::vector<char> group_alive;

  void Seed(const Dataset& dataset) {
    for (const Record& record : dataset.records) {
      record_texts.push_back(record.text);
      record_alive.push_back(1);
    }
    for (const Group& group : dataset.groups) {
      group_records.push_back(group.record_ids);
      group_labels.push_back(group.label);
      group_alive.push_back(1);
    }
  }

  void Add(const GroupArrival& arrival) {
    std::vector<int32_t> records;
    for (const std::string& text : arrival.record_texts) {
      records.push_back(static_cast<int32_t>(record_texts.size()));
      record_texts.push_back(text);
      record_alive.push_back(1);
    }
    group_records.push_back(std::move(records));
    group_labels.push_back(arrival.label);
    group_alive.push_back(1);
  }

  void Remove(int32_t group) {
    for (const int32_t r : group_records[static_cast<size_t>(group)]) {
      record_alive[static_cast<size_t>(r)] = 0;
    }
    group_records[static_cast<size_t>(group)].clear();
    group_alive[static_cast<size_t>(group)] = 0;
  }

  void Merge(int32_t into, int32_t from) {
    auto& target = group_records[static_cast<size_t>(into)];
    auto& source = group_records[static_cast<size_t>(from)];
    target.insert(target.end(), source.begin(), source.end());
    std::sort(target.begin(), target.end());
    source.clear();
    group_alive[static_cast<size_t>(from)] = 0;
  }

  // The live corpus as a batch dataset; `group_map[slot]` is the compacted
  // group index (or -1 for tombstones). Record and group orders match the
  // streaming linker's exactly, which is what makes the comparison
  // bit-exact rather than merely set-equal.
  Dataset Compact(std::vector<int32_t>* group_map) const {
    Dataset dataset;
    std::vector<int32_t> record_map(record_texts.size(), -1);
    for (size_t r = 0; r < record_texts.size(); ++r) {
      if (!record_alive[r]) continue;
      record_map[r] = static_cast<int32_t>(dataset.records.size());
      Record record;
      record.id = "r" + std::to_string(r);
      record.text = record_texts[r];
      dataset.records.push_back(std::move(record));
    }
    group_map->assign(group_records.size(), -1);
    for (size_t g = 0; g < group_records.size(); ++g) {
      if (!group_alive[g]) continue;
      (*group_map)[g] = static_cast<int32_t>(dataset.groups.size());
      Group group;
      group.id = "g" + std::to_string(g);
      group.label = group_labels[g];
      for (const int32_t r : group_records[g]) {
        group.record_ids.push_back(record_map[static_cast<size_t>(r)]);
      }
      dataset.groups.push_back(std::move(group));
    }
    return dataset;
  }
};

std::vector<std::pair<int32_t, int32_t>> MapPairs(
    const std::vector<std::pair<int32_t, int32_t>>& pairs,
    const std::vector<int32_t>& group_map) {
  std::vector<std::pair<int32_t, int32_t>> mapped;
  mapped.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    mapped.emplace_back(group_map[static_cast<size_t>(a)],
                        group_map[static_cast<size_t>(b)]);
  }
  return mapped;
}

std::vector<std::pair<int32_t, int32_t>> BatchPairs(const Dataset& dataset,
                                                    const LinkageConfig& config) {
  const auto result = RunGroupLinkage(dataset, config);
  EXPECT_TRUE(result.ok());
  return result->linked_pairs;
}

// Splits `full` into a seed prefix dataset and the remaining arrivals.
void Split(const Dataset& full, int32_t seed_groups, Dataset* seed,
           std::vector<GroupArrival>* arrivals) {
  for (int32_t g = 0; g < full.num_groups(); ++g) {
    if (g < seed_groups) {
      Group rebased;
      rebased.id = full.groups[static_cast<size_t>(g)].id;
      rebased.label = full.groups[static_cast<size_t>(g)].label;
      for (const int32_t r : full.groups[static_cast<size_t>(g)].record_ids) {
        rebased.record_ids.push_back(static_cast<int32_t>(seed->records.size()));
        seed->records.push_back(full.records[static_cast<size_t>(r)]);
      }
      seed->groups.push_back(std::move(rebased));
    } else {
      arrivals->push_back(
          {full.groups[static_cast<size_t>(g)].label, GroupTexts(full, g)});
    }
  }
  ASSERT_TRUE(seed->Validate().ok());
}

TEST(StreamingEquivalenceTest, RefreshEveryArrivalMatchesBatchExactly) {
  for (const uint64_t seed : {7u, 21u, 42u}) {
    for (const int32_t entities : {15, 35}) {
      const Dataset full = MakeCorpus(entities, seed);
      Dataset seed_dataset;
      std::vector<GroupArrival> arrivals;
      Split(full, full.num_groups() / 2, &seed_dataset, &arrivals);
      ASSERT_FALSE(arrivals.empty());

      StreamingConfig streaming;
      streaming.refresh_every_n_groups = 1;  // Refresh at every arrival.
      auto linker = IncrementalLinker::Create(seed_dataset, TestConfig(), streaming);
      ASSERT_TRUE(linker.ok());
      StreamMirror mirror;
      mirror.Seed(seed_dataset);
      for (const GroupArrival& arrival : arrivals) {
        const auto added = linker->AddGroup(arrival.label, arrival.record_texts);
        EXPECT_TRUE(added.triggered_refresh);
        mirror.Add(arrival);
      }

      std::vector<int32_t> group_map;
      const Dataset accumulated = mirror.Compact(&group_map);
      EXPECT_EQ(MapPairs(linker->linked_pairs(), group_map),
                BatchPairs(accumulated, linker->engine_config()))
          << "seed=" << seed << " entities=" << entities;
    }
  }
}

TEST(StreamingEquivalenceTest, BatchedArrivalsWithFinalRefreshMatchBatch) {
  for (const uint64_t seed : {3u, 101u}) {
    const Dataset full = MakeCorpus(30, seed);
    Dataset seed_dataset;
    std::vector<GroupArrival> arrivals;
    Split(full, full.num_groups() / 3, &seed_dataset, &arrivals);

    auto linker = IncrementalLinker::Create(seed_dataset, TestConfig());
    ASSERT_TRUE(linker.ok());
    StreamMirror mirror;
    mirror.Seed(seed_dataset);
    // Feed the stream in irregular batch sizes (1, 3, 5, 1, 3, ...).
    const int32_t sizes[] = {1, 3, 5};
    size_t next = 0;
    size_t size_index = 0;
    while (next < arrivals.size()) {
      const size_t take = std::min<size_t>(
          static_cast<size_t>(sizes[size_index % 3]), arrivals.size() - next);
      ++size_index;
      std::vector<GroupArrival> batch(arrivals.begin() + static_cast<ptrdiff_t>(next),
                                      arrivals.begin() +
                                          static_cast<ptrdiff_t>(next + take));
      for (const GroupArrival& arrival : batch) mirror.Add(arrival);
      const auto results = linker->AddGroups(batch);
      EXPECT_EQ(results.size(), take);
      next += take;
    }
    linker->Refresh();

    std::vector<int32_t> group_map;
    const Dataset accumulated = mirror.Compact(&group_map);
    EXPECT_EQ(MapPairs(linker->linked_pairs(), group_map),
              BatchPairs(accumulated, linker->engine_config()))
        << "seed=" << seed;
  }
}

TEST(StreamingEquivalenceTest, InterleavedRemoveReAddConvergesToBatch) {
  const Dataset full = MakeCorpus(30, 55);
  Dataset seed_dataset;
  std::vector<GroupArrival> arrivals;
  Split(full, full.num_groups() / 2, &seed_dataset, &arrivals);
  ASSERT_GE(arrivals.size(), 4u);

  auto linker = IncrementalLinker::Create(seed_dataset, TestConfig());
  ASSERT_TRUE(linker.ok());
  StreamMirror mirror;
  mirror.Seed(seed_dataset);

  // Interleave: add two, remove a seed group, add the rest, remove one
  // streamed group, then re-add its texts as a brand-new group.
  mirror.Add(arrivals[0]);
  linker->AddGroup(arrivals[0].label, arrivals[0].record_texts);
  mirror.Add(arrivals[1]);
  const auto second = linker->AddGroup(arrivals[1].label, arrivals[1].record_texts);

  linker->RemoveGroup(2);
  mirror.Remove(2);

  for (size_t k = 2; k < arrivals.size(); ++k) {
    mirror.Add(arrivals[k]);
    linker->AddGroup(arrivals[k].label, arrivals[k].record_texts);
  }

  linker->RemoveGroup(second.group_index);
  mirror.Remove(second.group_index);
  mirror.Add(arrivals[1]);
  linker->AddGroup(arrivals[1].label, arrivals[1].record_texts);

  linker->Refresh();
  std::vector<int32_t> group_map;
  const Dataset accumulated = mirror.Compact(&group_map);
  EXPECT_EQ(MapPairs(linker->linked_pairs(), group_map),
            BatchPairs(accumulated, linker->engine_config()));
}

TEST(StreamingEquivalenceTest, MergeThenRefreshConvergesToBatch) {
  const Dataset full = MakeCorpus(25, 13);
  auto linker = IncrementalLinker::Create(full, TestConfig());
  ASSERT_TRUE(linker.ok());
  ASSERT_FALSE(linker->linked_pairs().empty());
  StreamMirror mirror;
  mirror.Seed(full);

  const auto [into, from] = linker->linked_pairs().front();
  linker->MergeGroups(into, from);
  mirror.Merge(into, from);

  linker->Refresh();
  std::vector<int32_t> group_map;
  const Dataset accumulated = mirror.Compact(&group_map);
  EXPECT_EQ(MapPairs(linker->linked_pairs(), group_map),
            BatchPairs(accumulated, linker->engine_config()));
}

TEST(StreamingEquivalenceTest, NoRefreshStreamingUnderLinksOnTheseWorkloads) {
  // Without refresh the epoch statistics freeze at the seed: arrivals'
  // novel tokens are dropped from vectors and IDF drifts, so streaming
  // typically misses links batch finds. This is the documented
  // approximation, checked as a subset relation on fixed-seed workloads
  // (it is not a theorem — dropping tokens can also *raise* a normalized
  // similarity — hence fixed seeds rather than random ones).
  for (const uint64_t seed : {7u, 21u, 42u}) {
    const Dataset full = MakeCorpus(25, seed);
    Dataset seed_dataset;
    std::vector<GroupArrival> arrivals;
    Split(full, full.num_groups() / 2, &seed_dataset, &arrivals);

    auto linker = IncrementalLinker::Create(seed_dataset, TestConfig());
    ASSERT_TRUE(linker.ok());
    StreamMirror mirror;
    mirror.Seed(seed_dataset);
    for (const GroupArrival& arrival : arrivals) {
      linker->AddGroup(arrival.label, arrival.record_texts);
      mirror.Add(arrival);
    }

    std::vector<int32_t> group_map;
    const Dataset accumulated = mirror.Compact(&group_map);
    const auto batch = BatchPairs(accumulated, linker->engine_config());
    const auto streamed = MapPairs(linker->linked_pairs(), group_map);
    for (const auto& pair : streamed) {
      EXPECT_TRUE(std::binary_search(batch.begin(), batch.end(), pair))
          << "streaming invented link (" << pair.first << ", " << pair.second
          << ") absent from batch, seed=" << seed;
    }
    // And a refresh closes the gap completely.
    linker->Refresh();
    EXPECT_EQ(MapPairs(linker->linked_pairs(), group_map), batch);
  }
}

TEST(StreamingEquivalenceTest, AddGroupsBitIdenticalAcrossThreadCounts) {
  const Dataset full = MakeCorpus(30, 77);
  Dataset seed_dataset;
  std::vector<GroupArrival> arrivals;
  Split(full, full.num_groups() / 2, &seed_dataset, &arrivals);

  std::vector<std::vector<std::pair<int32_t, int32_t>>> linked_by_threads;
  std::vector<std::vector<size_t>> labels_by_threads;
  std::vector<std::vector<size_t>> candidates_by_threads;
  for (const int32_t threads : {1, 2, 7}) {
    auto linker = IncrementalLinker::Create(seed_dataset, TestConfig(threads));
    ASSERT_TRUE(linker.ok());
    // One big batch exercises the parallel arrival phases hardest.
    const auto results = linker->AddGroups(arrivals);
    std::vector<size_t> candidates;
    for (const auto& result : results) candidates.push_back(result.candidates);
    linked_by_threads.push_back(linker->linked_pairs());
    labels_by_threads.push_back(linker->ClusterLabels());
    candidates_by_threads.push_back(std::move(candidates));
  }
  for (size_t i = 1; i < linked_by_threads.size(); ++i) {
    EXPECT_EQ(linked_by_threads[i], linked_by_threads[0]);
    EXPECT_EQ(labels_by_threads[i], labels_by_threads[0]);
    EXPECT_EQ(candidates_by_threads[i], candidates_by_threads[0]);
  }
}

TEST(StreamingEquivalenceTest, RefreshBitIdenticalAcrossThreadCounts) {
  const Dataset full = MakeCorpus(25, 31);
  std::vector<std::vector<std::pair<int32_t, int32_t>>> linked_by_threads;
  for (const int32_t threads : {1, 4}) {
    auto linker = IncrementalLinker::Create(full, TestConfig(threads));
    ASSERT_TRUE(linker.ok());
    linker->RemoveGroup(1);
    linker->Refresh();
    linked_by_threads.push_back(linker->linked_pairs());
  }
  EXPECT_EQ(linked_by_threads[0], linked_by_threads[1]);
}

}  // namespace
}  // namespace grouplink
