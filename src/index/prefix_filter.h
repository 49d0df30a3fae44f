#ifndef GROUPLINK_INDEX_PREFIX_FILTER_H_
#define GROUPLINK_INDEX_PREFIX_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace grouplink {

/// Prefix-filtering set-similarity self-join (the SSJoin / AllPairs family
/// of techniques the paper leans on for scalable candidate generation).
///
/// Key fact: order the universe of tokens by a fixed global order
/// (rarest-first works best). If Jaccard(x, y) >= t, then x and y must
/// share a token within the first
///     prefix(x) = |x| - ceil(t * |x|) + 1
/// tokens of x (and likewise for y). So indexing only prefixes yields a
/// candidate set guaranteed to contain every qualifying pair — the
/// completeness property is property-tested against a brute-force join.
///
/// Thread safety: every function here is a pure read of its `documents`
/// input — none mutates or retains it — so concurrent joins over the same
/// corpus are safe as long as the caller does not mutate `documents`
/// mid-call.

/// Returns the number of prefix tokens to index for a set of `size`
/// elements under Jaccard threshold `t` (0 for an empty set).
[[nodiscard]] size_t JaccardPrefixLength(size_t size, double t);

/// A global token order: token ids sorted by ascending frequency in
/// `documents` (ties by id). Returns rank[token_id] for dense token ids in
/// [0, num_tokens).
[[nodiscard]] std::vector<int32_t> RarityRanks(const std::vector<std::vector<int32_t>>& documents,
                                 int32_t num_tokens);

/// Candidate pairs (i < j) of documents that may satisfy
/// Jaccard(documents[i], documents[j]) >= `threshold`.
///
/// Documents are sorted-unique token-id vectors over dense ids in
/// [0, num_tokens). Applies both the prefix filter and the length filter
/// (|y| >= t * |x|). The result is sorted and deduplicated; it is a
/// superset of the true result and typically far smaller than all pairs.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> PrefixFilterSelfJoin(
    const std::vector<std::vector<int32_t>>& documents, int32_t num_tokens,
    double threshold);

}  // namespace grouplink

#endif  // GROUPLINK_INDEX_PREFIX_FILTER_H_
