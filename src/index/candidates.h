#ifndef GROUPLINK_INDEX_CANDIDATES_H_
#define GROUPLINK_INDEX_CANDIDATES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "index/blocking.h"

namespace grouplink {

/// Candidate generation lifts record-level joins to group pairs: two
/// groups become a candidate pair when at least one record of one shares
/// a record-level candidate (blocking key or prefix-filter hit) with a
/// record of the other. A group pair with no record-level hit cannot have
/// any similarity-graph edge, so its BM score is 0 and it is safe to skip
/// whenever the group threshold Θ > 0. A non-null `record_pairs` receives
/// the number of record-level candidate pairs the join inspected (0 when
/// a blocking scheme of kNone skips the join).

/// Every unordered pair (i < j) of `num_groups` groups.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> AllGroupPairs(int32_t num_groups);

/// Group candidates via the prefix-filter Jaccard self-join over record
/// token sets at `record_threshold` (see index/prefix_filter.h).
/// `record_group[r]` maps record r to its group id in [0, num_groups).
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromRecordJoin(
    const std::vector<std::vector<int32_t>>& record_tokens,
    const std::vector<int32_t>& record_group, int32_t num_tokens, int32_t num_groups,
    double record_threshold, size_t* record_pairs = nullptr);

/// Group candidates via a Blocker over record texts.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromBlocking(
    BlockingScheme scheme, const std::vector<std::string>& record_texts,
    const std::vector<int32_t>& record_group, int32_t num_groups,
    size_t* record_pairs = nullptr);

/// Group candidates via a MinHash/LSH self-join over record token sets
/// (see index/minhash.h). Probabilistic: qualifying pairs can be missed
/// with small probability, but the cost is insensitive to token-frequency
/// skew. `record_group[r]` maps records to groups.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromMinHash(
    const std::vector<std::vector<int32_t>>& record_tokens,
    const std::vector<int32_t>& record_group, size_t bands, size_t rows_per_band,
    size_t* record_pairs = nullptr);

/// Group candidates by blocking directly on group labels (author name
/// variant, household address, ...) — the classic cheap scheme: two groups
/// are candidates iff their labels share a blocking key. Aggressive
/// schemes (kFirstToken) trade recall for far smaller candidate sets;
/// benchmark E8 quantifies the trade-off.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> GroupCandidatesFromLabelBlocking(
    BlockingScheme scheme, const std::vector<std::string>& group_labels);

}  // namespace grouplink

#endif  // GROUPLINK_INDEX_CANDIDATES_H_
