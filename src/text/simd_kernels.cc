#include "text/simd_kernels.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd_dispatch.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(GROUPLINK_DISABLE_SIMD)
#define GROUPLINK_SIMD_X86 1
#include <immintrin.h>
#endif

namespace grouplink {
namespace {

// Galloping intersection for lopsided inputs: walk the smaller array,
// binary-search (with doubling start) into the larger. Exact count, so it
// is freely interchangeable with every other tier.
size_t SortedIntersectCountGallop(const uint32_t* small, size_t ns,
                                  const uint32_t* large, size_t nl) {
  size_t count = 0;
  size_t lo = 0;
  for (size_t i = 0; i < ns && lo < nl; ++i) {
    const uint32_t needle = small[i];
    // Gallop: double the step until the window covers needle.
    size_t step = 1;
    size_t hi = lo;
    while (hi < nl && large[hi] < needle) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    const uint32_t* pos = std::lower_bound(large + lo, large + std::min(hi, nl), needle);
    lo = static_cast<size_t>(pos - large);
    if (lo < nl && large[lo] == needle) {
      ++count;
      ++lo;
    }
  }
  return count;
}

// A size ratio past this uses galloping instead of a linear pass.
constexpr size_t kGallopRatio = 32;

#if defined(GROUPLINK_SIMD_X86)

// 4x4 all-pairs block compare (Schlegel/Katsogiannis-style "V1"
// intersection): compare a block of A against every rotation of a block
// of B, popcount the match mask, advance the block with the smaller max.
// Sorted-unique inputs mean each common value is counted exactly once.
__attribute__((target("sse4.2"))) size_t SortedIntersectCountSse42(
    const uint32_t* a, size_t na, const uint32_t* b, size_t nb) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i hits = _mm_cmpeq_epi32(va, vb);
    hits = _mm_or_si128(
        hits, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    hits = _mm_or_si128(
        hits, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    hits = _mm_or_si128(
        hits, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    count += static_cast<size_t>(
        __builtin_popcount(_mm_movemask_ps(_mm_castsi128_ps(hits))));
    const uint32_t a_max = a[i + 3];
    const uint32_t b_max = b[j + 3];
    if (a_max <= b_max) i += 4;
    if (b_max <= a_max) j += 4;
  }
  return count + SortedIntersectCountScalar(a + i, na - i, b + j, nb - j);
}

// Two-lane scatter dot: gather dense values for a pair of candidate
// tokens, skip the (common) all-zero case with one mask test, and add the
// matched products in lane order — ascending token order, exactly the
// scalar accumulation sequence.
__attribute__((target("sse4.2"))) double ScatterDotSse42(const double* dense,
                                                         const int32_t* ids,
                                                         const double* weights,
                                                         size_t n) {
  double sum = 0.0;
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m128d gathered =
        _mm_set_pd(dense[ids[k + 1]], dense[ids[k]]);  // lane0 = k, lane1 = k+1
    const int mask = _mm_movemask_pd(_mm_cmpneq_pd(gathered, _mm_setzero_pd()));
    if (mask == 0) continue;
    const __m128d products = _mm_mul_pd(gathered, _mm_loadu_pd(weights + k));
    alignas(16) double lanes[2];
    _mm_store_pd(lanes, products);
    if ((mask & 1) != 0) sum += lanes[0];
    if ((mask & 2) != 0) sum += lanes[1];
  }
  for (; k < n; ++k) sum += dense[ids[k]] * weights[k];
  return sum;
}

// Four-lane gather via AVX2: one vgatherdpd + one mask test skips four
// non-matching tokens per iteration.
__attribute__((target("avx2"))) double ScatterDotAvx2(const double* dense,
                                                      const int32_t* ids,
                                                      const double* weights,
                                                      size_t n) {
  double sum = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128i index =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + k));
    // Masked gather with an explicit zero source: the plain gather
    // intrinsic reads GCC's _mm256_undefined_pd and trips
    // -Wmaybe-uninitialized under -Werror.
    const __m256d gathered = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), dense, index,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(gathered, _mm256_setzero_pd(), _CMP_NEQ_OQ));
    if (mask == 0) continue;
    const __m256d products =
        _mm256_mul_pd(gathered, _mm256_loadu_pd(weights + k));
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, products);
    // Lowest set lane first: ascending token order = canonical order.
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      sum += lanes[lane];
      mask &= mask - 1;
    }
  }
  for (; k < n; ++k) sum += dense[ids[k]] * weights[k];
  return sum;
}

// The accumulator sweep, two 4-lane blocks a step. A true compare is -1
// in each 64-bit lane, so subtracting the nonzero masks counts the nonzero
// slots in four lane counters with no branch; the rare slots ≥ θ are
// appended in lane order before the step stores its zeros. _CMP_NEQ_UQ
// and _CMP_GE_OQ are C++'s != and >= (NaN included), as in the tail.
__attribute__((target("avx2"))) size_t SweepAccumulatorAvx2(
    double* sum, size_t lo, size_t hi, double theta, std::vector<AccumulatorHit>* hits) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d threshold = _mm256_set1_pd(theta);
  __m256i nonzero = _mm256_setzero_si256();
  size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m256d a = _mm256_loadu_pd(sum + i);
    const __m256d b = _mm256_loadu_pd(sum + i + 4);
    nonzero = _mm256_sub_epi64(
        nonzero, _mm256_castpd_si256(_mm256_cmp_pd(a, zero, _CMP_NEQ_UQ)));
    nonzero = _mm256_sub_epi64(
        nonzero, _mm256_castpd_si256(_mm256_cmp_pd(b, zero, _CMP_NEQ_UQ)));
    int kept = _mm256_movemask_pd(_mm256_cmp_pd(a, threshold, _CMP_GE_OQ)) |
               _mm256_movemask_pd(_mm256_cmp_pd(b, threshold, _CMP_GE_OQ)) << 4;
    for (; kept != 0; kept &= kept - 1) {
      const size_t slot = i + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(kept)));
      hits->push_back({static_cast<int32_t>(slot), sum[slot]});
    }
    _mm256_storeu_pd(sum + i, zero);
    _mm256_storeu_pd(sum + i + 4, zero);
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), nonzero);
  size_t count = static_cast<size_t>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
  for (; i < hi; ++i) {
    if (sum[i] >= theta) hits->push_back({static_cast<int32_t>(i), sum[i]});
    count += sum[i] != 0.0 ? 1 : 0;
    sum[i] = 0.0;
  }
  return count;
}

#endif  // GROUPLINK_SIMD_X86

}  // namespace

size_t SortedIntersectCountScalar(const uint32_t* a, size_t na, const uint32_t* b,
                                  size_t nb) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

size_t SortedIntersectCount(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb) {
  if (na == 0 || nb == 0) return 0;
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na * kGallopRatio < nb) return SortedIntersectCountGallop(a, na, b, nb);
#if defined(GROUPLINK_SIMD_X86)
  if (ActiveSimdLevel() >= SimdLevel::kSse42) {
    return SortedIntersectCountSse42(a, na, b, nb);
  }
#endif
  return SortedIntersectCountScalar(a, na, b, nb);
}

double ScatterDotScalar(const double* dense, const int32_t* ids,
                        const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    sum += dense[ids[k]] * weights[k];
  }
  return sum;
}

double ScatterDot(const double* dense, const int32_t* ids, const double* weights,
                  size_t n) {
#if defined(GROUPLINK_SIMD_X86)
  const SimdLevel level = ActiveSimdLevel();
  if (level >= SimdLevel::kAvx2) return ScatterDotAvx2(dense, ids, weights, n);
  if (level >= SimdLevel::kSse42) return ScatterDotSse42(dense, ids, weights, n);
#endif
  return ScatterDotScalar(dense, ids, weights, n);
}

bool SweepAccumulatorApplies() {
#if defined(GROUPLINK_SIMD_X86)
  return ActiveSimdLevel() >= SimdLevel::kAvx2;
#else
  return false;
#endif
}

size_t SweepAccumulator([[maybe_unused]] double* sum, [[maybe_unused]] size_t lo,
                        [[maybe_unused]] size_t hi, [[maybe_unused]] double theta,
                        [[maybe_unused]] std::vector<AccumulatorHit>* hits) {
#if defined(GROUPLINK_SIMD_X86)
  GL_DCHECK(SweepAccumulatorApplies());
  GL_DCHECK_LE(hi, size_t{1} << 31);
  return SweepAccumulatorAvx2(sum, lo, hi, theta, hits);
#else
  GL_CHECK(false) << "SweepAccumulator without a vector tier";
  return 0;
#endif
}

bool BitParallelEditDistanceApplies(size_t len_a, size_t len_b) {
  return std::min(len_a, len_b) <= 64;
}

size_t BitParallelEditDistance(std::string_view a, std::string_view b) {
  // Levenshtein is symmetric; take the shorter string as the pattern so
  // its characteristic vectors fit one word.
  const std::string_view pattern = a.size() <= b.size() ? a : b;
  const std::string_view text = a.size() <= b.size() ? b : a;
  const size_t m = pattern.size();
  GL_DCHECK_LE(m, 64u) << "pattern must fit one machine word";
  if (m == 0) return text.size();

  uint64_t match[256] = {0};
  for (size_t i = 0; i < m; ++i) {
    match[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }

  uint64_t positive = ~uint64_t{0};  // PV: positions where the DP row grows.
  uint64_t negative = 0;             // MV: positions where it shrinks.
  size_t score = m;
  const uint64_t high_bit = uint64_t{1} << (m - 1);
  for (const char c : text) {
    const uint64_t eq = match[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | negative;
    const uint64_t xh = (((eq & positive) + positive) ^ positive) | eq;
    uint64_t ph = negative | ~(xh | positive);
    uint64_t mh = positive & xh;
    if ((ph & high_bit) != 0) ++score;
    if ((mh & high_bit) != 0) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    positive = mh | ~(xv | ph);
    negative = ph & xv;
  }
  return score;
}

}  // namespace grouplink
