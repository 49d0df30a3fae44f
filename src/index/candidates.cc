#include "index/candidates.h"

#include <algorithm>

#include "common/logging.h"
#include "index/minhash.h"
#include "index/prefix_filter.h"

namespace grouplink {
namespace {

// Maps record pairs to unordered group pairs, dropping intra-group pairs,
// then sorts/dedups.
std::vector<std::pair<int32_t, int32_t>> LiftToGroupPairs(
    const std::vector<std::pair<int32_t, int32_t>>& record_pairs,
    const std::vector<int32_t>& record_group) {
  std::vector<std::pair<int32_t, int32_t>> group_pairs;
  group_pairs.reserve(record_pairs.size());
  for (const auto& [r1, r2] : record_pairs) {
    const int32_t g1 = record_group[static_cast<size_t>(r1)];
    const int32_t g2 = record_group[static_cast<size_t>(r2)];
    if (g1 == g2) continue;
    group_pairs.emplace_back(std::min(g1, g2), std::max(g1, g2));
  }
  std::sort(group_pairs.begin(), group_pairs.end());
  group_pairs.erase(std::unique(group_pairs.begin(), group_pairs.end()),
                    group_pairs.end());
  return group_pairs;
}

}  // namespace

std::vector<std::pair<int32_t, int32_t>> AllGroupPairs(int32_t num_groups) {
  std::vector<std::pair<int32_t, int32_t>> pairs;
  pairs.reserve(static_cast<size_t>(num_groups) * (num_groups > 0 ? num_groups - 1 : 0) / 2);
  for (int32_t i = 0; i < num_groups; ++i) {
    for (int32_t j = i + 1; j < num_groups; ++j) {
      pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromRecordJoin(
    const std::vector<std::vector<int32_t>>& record_tokens,
    const std::vector<int32_t>& record_group, int32_t num_tokens, int32_t num_groups,
    double record_threshold, size_t* record_pairs) {
  GL_CHECK_EQ(record_tokens.size(), record_group.size());
  const auto pairs = PrefixFilterSelfJoin(record_tokens, num_tokens, record_threshold);
  if (record_pairs != nullptr) *record_pairs = pairs.size();
  auto group_pairs = LiftToGroupPairs(pairs, record_group);
  for (const auto& [g1, g2] : group_pairs) {
    GL_CHECK_GE(g1, 0);
    GL_CHECK_LT(g2, num_groups);
  }
  return group_pairs;
}

std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromBlocking(
    BlockingScheme scheme, const std::vector<std::string>& record_texts,
    const std::vector<int32_t>& record_group, int32_t num_groups,
    size_t* record_pairs) {
  GL_CHECK_EQ(record_texts.size(), record_group.size());
  if (scheme == BlockingScheme::kNone) {
    if (record_pairs != nullptr) *record_pairs = 0;
    return AllGroupPairs(num_groups);
  }
  Blocker blocker(scheme);
  for (size_t r = 0; r < record_texts.size(); ++r) {
    blocker.Add(static_cast<int32_t>(r), record_texts[r]);
  }
  const auto pairs = blocker.CandidatePairs();
  if (record_pairs != nullptr) *record_pairs = pairs.size();
  return LiftToGroupPairs(pairs, record_group);
}

std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromMinHash(
    const std::vector<std::vector<int32_t>>& record_tokens,
    const std::vector<int32_t>& record_group, size_t bands, size_t rows_per_band,
    size_t* record_pairs) {
  GL_CHECK_EQ(record_tokens.size(), record_group.size());
  const auto pairs = MinHashSelfJoin(record_tokens, bands, rows_per_band);
  if (record_pairs != nullptr) *record_pairs = pairs.size();
  return LiftToGroupPairs(pairs, record_group);
}

std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromLabelBlocking(
    BlockingScheme scheme, const std::vector<std::string>& group_labels) {
  Blocker blocker(scheme);
  for (size_t g = 0; g < group_labels.size(); ++g) {
    blocker.Add(static_cast<int32_t>(g), group_labels[g]);
  }
  return blocker.CandidatePairs();
}

}  // namespace grouplink
