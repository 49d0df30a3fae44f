// perfbench: runs one benchmark workload and prints, as the last line of
// standard output, one JSON report: provenance, the correctness gates,
// the end-to-end metrics (and, with --trace, the per-layer metrics),
// measured workload properties and sample counts. perfbench/run.py builds
// this binary and turns the report into the benchmark's result line.
//
//   perfbench --workload=serve --seed=42 --seconds=20 [--trace]
//             --work-dir=.bench_build/run [--trace-out=spans.json]
//
// Exit code 1, with the failed gates on stderr and no report, when any
// correctness gate fails.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/simd_dispatch.h"
#include "harness.h"
#include "trace.h"

namespace {

using namespace grouplink;
using namespace grouplink::perfbench;

// Writes `"key": {"<name>": {"value": V, "unit": "<unit>"}, ...}`.
void WriteMetrics(JsonWriter* json, std::string_view key,
                  const std::vector<Metric>& metrics) {
  json->Key(key);
  json->BeginObject();
  for (const Metric& m : metrics) {
    json->Key(m.name);
    json->BeginObject();
    json->Field("value", m.value);
    json->Field("unit", m.unit);
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "", "batch, serve or paged");
  flags.AddInt64("seed", 42, "generator seed of the workload's inputs");
  flags.AddDouble("seconds", 0.0, "length of the measured phase (required)");
  flags.AddBool("trace", false, "record spans and report per-layer metrics");
  flags.AddString("work-dir", ".", "scratch directory for run files");
  flags.AddString("trace-out", "", "where a traced run writes its spans");
  flags.AddString("git-sha", "unknown", "provenance: commit of the sources");
  flags.AddString("source-digest", "unknown", "provenance: digest of the sources");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.ToString().c_str());
    return 2;
  }

  RunOptions options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.work_dir = flags.GetString("work-dir");
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be given and positive\n");
    return 2;
  }

  Trace trace;
  Trace* spans = flags.GetBool("trace") ? &trace : nullptr;
  Gates gates;
  Outcome outcome;
  if (options.workload == "batch") {
    outcome = RunBatch(options, spans, &gates);
  } else if (options.workload == "serve") {
    outcome = RunServe(options, spans, &gates);
  } else if (options.workload == "paged") {
    outcome = RunPaged(options, spans, &gates);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  const std::string trace_out = flags.GetString("trace-out");
  if (spans != nullptr && !trace_out.empty()) {
    const Status written = trace.WriteJson(trace_out);
    gates.Check(written.ok(), "spans written to " + trace_out);
  }
  if (!gates.passed()) {
    for (const std::string& failure : gates.failures()) {
      std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", failure.c_str());
    }
    return 1;
  }

  JsonWriter json(0);
  json.BeginObject();
  json.Field("workload", options.workload);
  json.Field("seed", static_cast<uint64_t>(options.seed));
  json.Field("seconds", options.seconds);
  json.Field("trace", spans != nullptr);
  json.Key("provenance");
  json.BeginObject();
  json.Field("git_sha", flags.GetString("git-sha"));
  json.Field("source_digest", flags.GetString("source-digest"));
  json.Field("compiler", PERFBENCH_COMPILER);
  json.Field("build_type", PERFBENCH_BUILD_TYPE);
  json.Field("simd", SimdLevelName(ActiveSimdLevel()));
  json.Field("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.Field("seed", static_cast<uint64_t>(options.seed));
  json.EndObject();
  json.Key("gates");
  json.BeginArray();
  for (const std::string& check : gates.checks()) json.String(check);
  json.EndArray();
  json.Field("attempted", outcome.attempted);
  json.Field("failed", outcome.failed);
  WriteMetrics(&json, "end_to_end", outcome.end_to_end);
  WriteMetrics(&json, "per_layer", outcome.per_layer);
  WriteMetrics(&json, "properties", outcome.properties);
  if (spans != nullptr) json.Field("spans", static_cast<int64_t>(trace.num_spans()));
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
