// Microbenchmarks of the batched kernels (text/simd_kernels.h): sorted-set
// intersection (scalar reference vs the dispatched tier), one probe scatter
// with many ScatterDot gathers vs per-pair PrenormalizedCosineSimilarity,
// and Myers bit-parallel edit distance vs the classic DP.
//
// Every timed comparison doubles as a differential check: the reference
// and contender answers are asserted bit-identical before the numbers are
// reported, so a kernel that got fast by getting wrong fails the bench
// (and its --smoke ctest registration) outright.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/simd_dispatch.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/run_report.h"
#include "data/bibliographic_generator.h"
#include "eval/table.h"
#include "text/edit_distance.h"
#include "text/simd_kernels.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace {

using namespace grouplink;

// One timed kernel variant: `ops` operations took `seconds`, producing
// `checksum` (asserted equal across variants of the same kernel).
struct KernelTiming {
  std::string kernel;   // e.g. "intersect"
  std::string variant;  // "scalar" / "dispatched" / ...
  size_t ops = 0;
  double seconds = 0.0;
  double checksum = 0.0;
};

RunReport TimingToReport(const KernelTiming& timing) {
  RunReport report;
  report.strategy = "micro-kernel";
  report.candidate_method = timing.kernel;
  report.measure = timing.variant;
  report.kernel = SimdLevelName(ActiveSimdLevel());
  report.threads = 1;
  StageStats& stage = report.AddStage("kernel", timing.seconds);
  stage.AddCounter("ops", static_cast<int64_t>(timing.ops));
  report.AddExtra("ops_per_second",
                  timing.seconds > 0.0 ? timing.ops / timing.seconds : 0.0);
  report.AddExtra("checksum", timing.checksum);
  return report;
}

// Realistic token/vector corpus: the E5 workload's own representation.
struct Corpus {
  std::vector<std::vector<uint32_t>> token_sets;  // Sorted-unique ids.
  std::vector<SparseVector> vectors;              // Unit TF-IDF vectors.
  std::vector<std::string> texts;
  size_t dimension = 0;
};

Corpus BuildCorpus(int32_t entities) {
  const Dataset dataset =
      GenerateBibliographic(bench::HardBibliographic(entities, 0.25));
  Corpus corpus;
  Vocabulary vocabulary;
  for (const Record& record : dataset.records) {
    vocabulary.AddDocument(ToTokenSet(Tokenize(record.text)));
    corpus.texts.push_back(record.text);
  }
  const TfIdfVectorizer vectorizer(&vocabulary);
  for (const Record& record : dataset.records) {
    corpus.vectors.push_back(vectorizer.Vectorize(Tokenize(record.text)));
    // A vector's ids are the record's sorted-unique token ids.
    const std::vector<int32_t>& ids = corpus.vectors.back().ids;
    corpus.token_sets.emplace_back(ids.begin(), ids.end());
  }
  corpus.dimension = vocabulary.size();
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt64("entities", 250, "author entities behind the corpus");
  flags.AddInt64("repeat", 20, "timed passes over the corpus");
  flags.AddString("metrics-json", "BENCH_micro.json",
                  "unified metrics report path ('' = skip)");
  flags.AddBool("smoke", false, "tiny CI workload (overrides size knobs)");
  GL_CHECK(flags.Parse(argc, argv).ok());
  const bool smoke = flags.GetBool("smoke");
  const int32_t entities =
      smoke ? 20 : static_cast<int32_t>(flags.GetInt64("entities"));
  const size_t repeat =
      smoke ? 2 : static_cast<size_t>(flags.GetInt64("repeat"));

  const Corpus corpus = BuildCorpus(entities);
  const size_t n = corpus.token_sets.size();
  std::printf(
      "Kernel microbenchmarks on %zu records, vocabulary %zu, "
      "cpu tier %s, %zu passes\n\n",
      n, corpus.dimension, SimdLevelName(DetectCpuSimdLevel()), repeat);

  std::vector<KernelTiming> timings;
  const size_t stride = 17;  // Co-prime probe/candidate pairing.

  // ---------------------------------------------- Sorted intersection.
  {
    auto run = [&](bool dispatched) {
      KernelTiming t{"intersect", dispatched ? "dispatched" : "scalar", 0, 0.0,
                     0.0};
      size_t total = 0;
      WallTimer timer;
      for (size_t pass = 0; pass < repeat; ++pass) {
        for (size_t i = 0; i < n; ++i) {
          const auto& a = corpus.token_sets[i];
          const auto& b = corpus.token_sets[(i * stride + pass) % n];
          total += dispatched
                       ? SortedIntersectCount(a.data(), a.size(), b.data(),
                                              b.size())
                       : SortedIntersectCountScalar(a.data(), a.size(),
                                                    b.data(), b.size());
          ++t.ops;
        }
      }
      t.seconds = timer.ElapsedSeconds();
      t.checksum = static_cast<double>(total);
      return t;
    };
    const KernelTiming scalar = run(false);
    const KernelTiming dispatched = run(true);
    GL_CHECK_EQ(scalar.checksum, dispatched.checksum)
        << "intersect kernel diverged from scalar reference";
    timings.push_back(scalar);
    timings.push_back(dispatched);
  }

  // ------------- One scatter, many gathers vs per-pair cosine (the
  // per-pair pipeline's graph build, BuildSimilarityGraphBatched).
  {
    KernelTiming per_pair{"batch_cosine", "per_pair", 0, 0.0, 0.0};
    {
      double total = 0.0;
      WallTimer timer;
      for (size_t pass = 0; pass < repeat; ++pass) {
        for (size_t probe = 0; probe < n; probe += stride) {
          for (size_t i = 0; i < n; ++i) {
            total += PrenormalizedCosineSimilarity(corpus.vectors[probe],
                                                   corpus.vectors[i]);
            ++per_pair.ops;
          }
        }
      }
      per_pair.seconds = timer.ElapsedSeconds();
      per_pair.checksum = total;
    }

    KernelTiming batched{"batch_cosine", "batched", 0, 0.0, 0.0};
    {
      std::vector<double> dense(corpus.dimension, 0.0);
      double total = 0.0;
      WallTimer timer;
      for (size_t pass = 0; pass < repeat; ++pass) {
        for (size_t probe = 0; probe < n; probe += stride) {
          const SparseVector& v = corpus.vectors[probe];
          for (size_t k = 0; k < v.size(); ++k) {
            dense[static_cast<size_t>(v.ids[k])] = v.weights[k];
          }
          for (const SparseVector& cand : corpus.vectors) {
            total += ScatterDot(dense.data(), cand.ids.data(), cand.weights.data(),
                                cand.size());
          }
          for (const int32_t id : v.ids) dense[static_cast<size_t>(id)] = 0.0;
          batched.ops += n;
        }
      }
      batched.seconds = timer.ElapsedSeconds();
      batched.checksum = total;
    }
    GL_CHECK_EQ(per_pair.checksum, batched.checksum)
        << "scatter-dot gathers diverged from per-pair cosine";
    timings.push_back(per_pair);
    timings.push_back(batched);
  }

  // ---------------------------------------------------- Edit distance.
  {
    auto run = [&](bool myers) {
      KernelTiming t{"edit_distance", myers ? "myers" : "dp", 0, 0.0, 0.0};
      size_t total = 0;
      WallTimer timer;
      for (size_t pass = 0; pass < repeat; ++pass) {
        for (size_t i = 0; i < n; ++i) {
          const std::string& a = corpus.texts[i];
          const std::string& b = corpus.texts[(i * stride + pass) % n];
          if (!BitParallelEditDistanceApplies(a.size(), b.size())) continue;
          total += myers ? BitParallelEditDistance(a, b)
                         : LevenshteinDistance(a, b);
          ++t.ops;
        }
      }
      t.seconds = timer.ElapsedSeconds();
      t.checksum = static_cast<double>(total);
      return t;
    };
    // Force scalar so LevenshteinDistance runs the DP, not Myers.
    SetSimdLevelForTesting(SimdLevel::kScalar);
    const KernelTiming dp = run(false);
    ClearSimdLevelForTesting();
    const KernelTiming myers = run(true);
    GL_CHECK_EQ(dp.checksum, myers.checksum)
        << "Myers edit distance diverged from the DP";
    timings.push_back(dp);
    timings.push_back(myers);
  }

  // ------------------------------------------------------- Reporting.
  TextTable table({"kernel", "variant", "ops", "seconds", "Mops/s", "speedup"});
  std::vector<RunReport> reports;
  for (size_t i = 0; i < timings.size(); ++i) {
    const KernelTiming& t = timings[i];
    // Variant rows come in (reference, contender) pairs per kernel.
    const bool is_contender = i % 2 == 1;
    const double baseline_seconds = timings[i - (is_contender ? 1 : 0)].seconds;
    const double speedup =
        is_contender && t.seconds > 0.0 ? baseline_seconds / t.seconds : 1.0;
    table.AddRow({t.kernel, t.variant, std::to_string(t.ops),
                  FormatDouble(t.seconds, 4),
                  FormatDouble(t.seconds > 0.0 ? t.ops / t.seconds / 1e6 : 0.0, 2),
                  FormatDouble(speedup, 2) + "x"});
    RunReport report = TimingToReport(t);
    report.AddExtra("speedup_vs_reference", speedup);
    reports.push_back(std::move(report));
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nEvery contender matched its reference bit for bit (checked).\n");

  return bench::ExitCode(bench::WriteMetricsJson(
      flags.GetString("metrics-json"), "micro_kernels", reports));
}
