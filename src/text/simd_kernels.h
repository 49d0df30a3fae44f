#ifndef GROUPLINK_TEXT_SIMD_KERNELS_H_
#define GROUPLINK_TEXT_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace grouplink {

/// Batched, branch-light kernels behind the verify/score hot path:
/// sorted-set intersection (Jaccard overlap), scatter/gather TF-IDF
/// cosine, the score accumulator's sweep, and bit-parallel edit distance.
/// Intersection and the sweep have a scalar path and faster tiers
/// selected by ActiveSimdLevel() (common/simd_dispatch.h); the sweep's
/// scalar path is the postings walk it replaces, in core/accumulate.cc.
/// The cosine and the edit distance are one path at every tier.
///
/// THE contract (PR 1 determinism, extended in DESIGN.md §10): every
/// kernel returns a bit-identical result at every dispatch tier. The
/// integer kernels are exact by nature; ScatterDot is one scalar loop in
/// one canonical accumulation order — ascending candidate-token position —
/// compiled without fused multiply-adds.

// ---------------------------------------------------------------------------
// Sorted-set intersection (Jaccard overlap numerator).
// ---------------------------------------------------------------------------

/// Count of elements common to two sorted, duplicate-free u32 arrays.
/// Reference implementation: linear merge.
[[nodiscard]] size_t SortedIntersectCountScalar(const uint32_t* a, size_t na,
                                                const uint32_t* b, size_t nb);

/// Dispatched count: galloping binary search when the sizes are lopsided,
/// an SSE4.2 4x4 all-pairs block compare otherwise, scalar merge as the
/// fallback. Always equals SortedIntersectCountScalar.
[[nodiscard]] size_t SortedIntersectCount(const uint32_t* a, size_t na,
                                          const uint32_t* b, size_t nb);

// ---------------------------------------------------------------------------
// Scatter/gather cosine (one probe vs many candidates).
// ---------------------------------------------------------------------------
// The probe's weights are scattered into a dense array indexed by token
// id (+0.0 everywhere else); each candidate is then scored by gathering
// dense[id] for its tokens. Because every TF-IDF weight is strictly
// positive, non-matching terms contribute +0.0, which is a bitwise no-op
// on a never-negative partial sum — so the scatter dot equals the
// classic sorted-merge DotProduct bit for bit (DESIGN.md §10 carries the
// full argument).

/// The sum over k of dense[ids[k]] * weights[k], in index order, at
/// every tier: AVX2 gathers and SSE4.2 pairs were measured slower than
/// this loop (bench_micro_kernels) and are not built.
[[nodiscard]] double ScatterDot(const double* dense, const int32_t* ids,
                                const double* weights, size_t n);

// ---------------------------------------------------------------------------
// Accumulator sweep (pass 2 of score accumulation, core/accumulate.cc).
// ---------------------------------------------------------------------------
// A score accumulator holds one sum per corpus record and is all +0.0
// between probe records. Its pass 2 reads each sum pass 1 wrote, keeps it
// when it reaches θ, and writes +0.0 back. The scalar and SSE4.2 tiers do
// that by re-walking the probe record's postings, so their cost follows
// the posting entries; the AVX2 tier sweeps the slots pass 1 could have
// written instead, so its cost follows their range. Both only compare and
// zero, so they keep the same sums and the same count of nonzero slots;
// only the order of the kept slots differs (ascending after a sweep).

/// A record whose accumulated sum reached θ, and that sum.
struct AccumulatorHit {
  int32_t record;
  double sum;
};

/// True when pass 2 sweeps (SweepAccumulator) instead of walking the
/// postings: at the AVX2 tier only, where a sweep beats the walk.
[[nodiscard]] bool SweepAccumulatorApplies();

/// Sweeps sum[lo, hi) (nothing when hi ≤ lo), 8 doubles a step: appends
/// every slot with a sum ≥ `theta` to *hits in ascending slot order,
/// stores +0.0 in every slot, and returns the number of slots whose sum
/// was nonzero (`!= 0.0`). Requires SweepAccumulatorApplies() and
/// hi ≤ 2^31.
size_t SweepAccumulator(double* sum, size_t lo, size_t hi, double theta,
                        std::vector<AccumulatorHit>* hits);

// ---------------------------------------------------------------------------
// Bit-parallel edit distance.
// ---------------------------------------------------------------------------

/// True when the Myers bit-parallel path applies: the shorter string fits
/// in one 64-bit word.
[[nodiscard]] bool BitParallelEditDistanceApplies(size_t len_a, size_t len_b);

/// Myers (1999) bit-parallel Levenshtein distance. Word-parallel rather
/// than vector-ISA, but gated behind the same dispatch switch so
/// GROUPLINK_FORCE_SCALAR exercises the classic DP everywhere. Exact:
/// always equals LevenshteinDistance. Requires
/// BitParallelEditDistanceApplies(a.size(), b.size()).
[[nodiscard]] size_t BitParallelEditDistance(std::string_view a,
                                             std::string_view b);

}  // namespace grouplink

#endif  // GROUPLINK_TEXT_SIMD_KERNELS_H_
