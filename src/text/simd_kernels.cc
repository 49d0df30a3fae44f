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

double ScatterDot(const double* dense, const int32_t* ids, const double* weights,
                  size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    sum += dense[ids[k]] * weights[k];
  }
  return sum;
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
