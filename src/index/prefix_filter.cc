#include "index/prefix_filter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"

namespace grouplink {
namespace {

// Probe/posting counters of the join. The scan batches into a local and
// flushes once per join, so instrumentation adds no atomic traffic to the
// posting scan itself.
Counter& ProbeCounter() {
  static Counter& counter =
      MetricsRegistry::Default().CounterRef("prefix_filter.probes");
  return counter;
}

Counter& PostingsCounter() {
  static Counter& counter =
      MetricsRegistry::Default().CounterRef("prefix_filter.postings_scanned");
  return counter;
}

// Contract predicates for GL_DCHECK. Join inputs must be sorted-unique
// token sets: duplicates skew the rarity ranks and break the linear-merge
// Jaccard verify; disorder breaks the prefix selection. Posting lists in
// the shared index must stay ascending for the `other < d` probe cut.
bool DocumentsAreSortedSets(const std::vector<std::vector<int32_t>>& documents) {
  for (const auto& doc : documents) {
    if (!std::is_sorted(doc.begin(), doc.end())) return false;
    if (std::adjacent_find(doc.begin(), doc.end()) != doc.end()) return false;
  }
  return true;
}

// CSR form of the ascending-postings contract: every [offsets[t],
// offsets[t+1]) span of the flat posting array must be sorted.
bool PostingSpansAscending(const std::vector<size_t>& offsets,
                           const std::vector<int32_t>& postings) {
  for (size_t t = 0; t + 1 < offsets.size(); ++t) {
    if (!std::is_sorted(postings.data() + offsets[t],
                        postings.data() + offsets[t + 1])) {
      return false;
    }
  }
  return true;
}

// Jaccard over sorted-unique int vectors.
double JaccardInt(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0;
  size_t j = 0;
  size_t inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

size_t JaccardPrefixLength(size_t size, double t) {
  if (size == 0) return 0;
  t = std::clamp(t, 0.0, 1.0);
  const size_t required_overlap = static_cast<size_t>(std::ceil(t * static_cast<double>(size)));
  if (required_overlap == 0) return size;
  return size - required_overlap + 1;
}

std::vector<int32_t> RarityRanks(const std::vector<std::vector<int32_t>>& documents,
                                 int32_t num_tokens) {
  std::vector<int64_t> frequency(static_cast<size_t>(num_tokens), 0);
  for (const auto& doc : documents) {
    for (const int32_t token : doc) {
      GL_CHECK_GE(token, 0);
      GL_CHECK_LT(token, num_tokens);
      ++frequency[static_cast<size_t>(token)];
    }
  }
  std::vector<int32_t> order(static_cast<size_t>(num_tokens));
  for (int32_t t = 0; t < num_tokens; ++t) order[static_cast<size_t>(t)] = t;
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const int64_t fa = frequency[static_cast<size_t>(a)];
    const int64_t fb = frequency[static_cast<size_t>(b)];
    if (fa != fb) return fa < fb;
    return a < b;
  });
  std::vector<int32_t> rank(static_cast<size_t>(num_tokens));
  for (int32_t r = 0; r < num_tokens; ++r) {
    rank[static_cast<size_t>(order[static_cast<size_t>(r)])] = r;
  }
  return rank;
}

std::vector<std::pair<int32_t, int32_t>> PrefixFilterSelfJoin(
    const std::vector<std::vector<int32_t>>& documents, int32_t num_tokens,
    double threshold) {
  const size_t n = documents.size();
  if (n == 0) return {};
  GL_DCHECK(DocumentsAreSortedSets(documents));
  GL_CHECK_GE(num_tokens, 0);
  const std::vector<int32_t> rank = RarityRanks(documents, num_tokens);

  // Rank-space documents as CSR (doc_offsets + one contiguous id array)
  // instead of a vector-of-vectors — one allocation, and probe loops walk
  // contiguous memory.
  std::vector<size_t> doc_offsets(n + 1, 0);
  for (size_t d = 0; d < n; ++d) {
    doc_offsets[d + 1] = doc_offsets[d] + documents[d].size();
  }
  std::vector<int32_t> ranked(doc_offsets[n]);
  for (size_t d = 0; d < n; ++d) {
    int32_t* out = ranked.data() + doc_offsets[d];
    const std::vector<int32_t>& doc = documents[d];
    for (size_t k = 0; k < doc.size(); ++k) {
      out[k] = rank[static_cast<size_t>(doc[k])];
    }
    std::sort(out, out + doc.size());
  }
  const auto doc_size = [&](size_t d) { return doc_offsets[d + 1] - doc_offsets[d]; };

  // Full prefix index over *all* documents as flat CSR postings:
  // histogram the prefix tokens, prefix-sum into offsets, then fill in
  // document order — every posting span is ascending by construction.
  // Probing doc d keeps only postings `other < d`, so each pair is
  // emitted once, by its later document.
  std::vector<size_t> posting_offsets(static_cast<size_t>(num_tokens) + 1, 0);
  for (size_t d = 0; d < n; ++d) {
    const size_t prefix = JaccardPrefixLength(doc_size(d), threshold);
    for (size_t k = 0; k < prefix; ++k) {
      ++posting_offsets[static_cast<size_t>(ranked[doc_offsets[d] + k]) + 1];
    }
  }
  for (size_t t = 1; t < posting_offsets.size(); ++t) {
    posting_offsets[t] += posting_offsets[t - 1];
  }
  std::vector<int32_t> postings(posting_offsets.back());
  {
    std::vector<size_t> cursor(posting_offsets.begin(), posting_offsets.end() - 1);
    for (size_t d = 0; d < n; ++d) {
      const size_t prefix = JaccardPrefixLength(doc_size(d), threshold);
      for (size_t k = 0; k < prefix; ++k) {
        const size_t token = static_cast<size_t>(ranked[doc_offsets[d] + k]);
        postings[cursor[token]++] = static_cast<int32_t>(d);
      }
    }
  }
  GL_DCHECK(PostingSpansAscending(posting_offsets, postings))
      << "prefix index must stay ascending for the other < d cut";

  std::vector<std::pair<int32_t, int32_t>> candidates;
  std::vector<int32_t> last_probe(n, -1);  // Dedups a pair within one probe.
  uint64_t postings_scanned = 0;
  for (size_t d = 0; d < n; ++d) {
    const size_t prefix = JaccardPrefixLength(doc_size(d), threshold);
    const double size_d = static_cast<double>(doc_size(d));
    for (size_t k = 0; k < prefix; ++k) {
      const size_t token = static_cast<size_t>(ranked[doc_offsets[d] + k]);
      const int32_t* list = postings.data() + posting_offsets[token];
      const int32_t* list_end = postings.data() + posting_offsets[token + 1];
      // Postings ascend: one binary search finds the `other < d` cut up
      // front, so the scan loop carries no per-posting range branch.
      const int32_t* cut = std::lower_bound(list, list_end, static_cast<int32_t>(d));
      postings_scanned += static_cast<uint64_t>(cut - list);
      for (const int32_t* p = list; p != cut; ++p) {
        const int32_t other = *p;
        if (last_probe[static_cast<size_t>(other)] == static_cast<int32_t>(d)) continue;
        last_probe[static_cast<size_t>(other)] = static_cast<int32_t>(d);
        const double size_o = static_cast<double>(doc_size(static_cast<size_t>(other)));
        const double smaller = std::min(size_d, size_o);
        const double larger = std::max(size_d, size_o);
        if (smaller + 0.5 < threshold * larger) continue;
        candidates.emplace_back(other, static_cast<int32_t>(d));
      }
    }
  }
  ProbeCounter().Increment(n);
  PostingsCounter().Increment(postings_scanned);
  // Each unordered pair was emitted once, so sorting alone gives the
  // documented sorted-and-deduplicated output.
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::vector<std::pair<int32_t, int32_t>> BruteForceJaccardSelfJoin(
    const std::vector<std::vector<int32_t>>& documents, double threshold) {
  GL_DCHECK(DocumentsAreSortedSets(documents));
  std::vector<std::pair<int32_t, int32_t>> result;
  for (size_t i = 0; i < documents.size(); ++i) {
    for (size_t j = i + 1; j < documents.size(); ++j) {
      if (JaccardInt(documents[i], documents[j]) >= threshold) {
        result.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  return result;
}

}  // namespace grouplink
