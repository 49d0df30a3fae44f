#ifndef GROUPLINK_RELATIONAL_LINKAGE_PLANS_H_
#define GROUPLINK_RELATIONAL_LINKAGE_PLANS_H_

// gl-lint: allow(unreached-header) E14 runs linkage as relational plans with it.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/group_measures.h"
#include "relational/operators.h"

namespace grouplink {

/// The paper's "group linkage inside a DBMS" evaluation path: the
/// candidate join, the similarity-UDF verification, and the upper-bound
/// measure are all expressed as relational plans over the mini engine in
/// relational/operators.h. The functions below build/execute those plans;
/// the test suite checks them against the native (index/matching-based)
/// implementations.

/// Builds `tokens(record_id INT, group_id INT, token STRING)` — one row
/// per distinct word token per record, the exploded representation that
/// set-overlap SQL joins run on.
Table MakeTokensTable(const Dataset& dataset);

/// Builds `group_sizes(group_id INT, group_size INT)`.
Table MakeGroupSizesTable(const Dataset& dataset);

/// SQL candidate generation — record pairs of different groups sharing at
/// least `min_overlap` tokens:
///
///   SELECT t1.record_id AS r1, t1.group_id AS g1,
///          t2.record_id AS r2, t2.group_id AS g2, COUNT(*) AS overlap
///   FROM tokens t1 JOIN tokens t2 ON t1.token = t2.token
///   WHERE t1.record_id < t2.record_id AND t1.group_id <> t2.group_id
///   GROUP BY r1, g1, r2, g2
///   HAVING COUNT(*) >= :min_overlap
///
/// Output schema: (r1 INT, g1 INT, r2 INT, g2 INT, overlap INT).
Table SqlRecordPairCandidates(const Table& tokens, int64_t min_overlap);

/// Verification step — applies the record-similarity UDF to each
/// candidate pair, keeps pairs with sim >= theta, and orients every row
/// so that g1 < g2. Output: (g1 INT, g2 INT, r1 INT, r2 INT, sim DOUBLE).
Table SqlVerifiedEdges(const Table& candidates, const RecordSimFn& sim, double theta);

/// The upper-bound group measure as pure SQL aggregation over the edge
/// relation (this is what makes UB "DBMS-friendly" in the paper — no
/// matching code, just GROUP BY / MAX / SUM):
///
///   WITH best_l AS (SELECT g1, g2, r1, MAX(sim) AS b FROM edges
///                   GROUP BY g1, g2, r1),
///        agg_l  AS (SELECT g1, g2, SUM(b) AS sum_l, COUNT(*) AS cov_l
///                   FROM best_l GROUP BY g1, g2),
///        -- best_r / agg_r symmetric on r2 --
///   SELECT g1, g2,
///          (sum_l + sum_r) / 2
///            / (size1 + size2 - MIN(cov_l, cov_r)) AS ub
///   FROM agg_l JOIN agg_r USING (g1, g2)
///        JOIN group_sizes s1 ON s1.group_id = g1
///        JOIN group_sizes s2 ON s2.group_id = g2;
///
/// Output: (g1 INT, g2 INT, ub DOUBLE), sorted by (g1, g2). Agrees
/// exactly with core UpperBoundMeasure when `edges` holds every record
/// pair with sim >= θ of each group pair (verified in tests).
Table SqlUpperBoundScores(const Table& edges, const Table& group_sizes);

/// End-to-end SQL filter: token join (min_overlap), UDF verification at
/// `theta`, SQL UB aggregation, and the Θ filter. Returns the group pairs
/// whose UB clears `group_threshold` — the SQL rendition of the filter
/// phase, whose survivors the native refine step would then process.
[[nodiscard]] std::vector<std::pair<int32_t, int32_t>> SqlUpperBoundFilter(
    const Dataset& dataset, const RecordSimFn& sim, double theta,
    double group_threshold, int64_t min_overlap = 1);

}  // namespace grouplink

#endif  // GROUPLINK_RELATIONAL_LINKAGE_PLANS_H_
