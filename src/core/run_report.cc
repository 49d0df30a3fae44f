#include "core/run_report.h"

#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace grouplink {

int64_t StageStats::Counter(std::string_view key) const {
  for (const auto& [entry_name, value] : counters) {
    if (entry_name == key) return value;
  }
  return 0;
}

double StageStats::Timing(std::string_view key) const {
  for (const auto& [entry_name, value] : timings) {
    if (entry_name == key) return value;
  }
  return 0.0;
}

StageStats& StageStats::AddCounter(std::string_view key, int64_t value) {
  for (auto& [entry_name, existing] : counters) {
    if (entry_name == key) {
      existing = value;
      return *this;
    }
  }
  counters.emplace_back(std::string(key), value);
  return *this;
}

StageStats& StageStats::AddTiming(std::string_view key, double value) {
  for (auto& [entry_name, existing] : timings) {
    if (entry_name == key) {
      existing = value;
      return *this;
    }
  }
  timings.emplace_back(std::string(key), value);
  return *this;
}

StageStats& RunReport::AddStage(std::string_view name, double seconds) {
  if (StageStats* stage = MutableStage(name)) {
    // Get-or-create: a lookup with the default seconds must not clobber a
    // previously recorded time.
    if (seconds != 0.0) stage->seconds = seconds;
    return *stage;
  }
  StageStats stage;
  stage.name = std::string(name);
  stage.seconds = seconds;
  stages.push_back(std::move(stage));
  return stages.back();
}

const StageStats* RunReport::FindStage(std::string_view name) const {
  for (const StageStats& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

StageStats* RunReport::MutableStage(std::string_view name) {
  for (StageStats& stage : stages) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

double RunReport::StageSeconds(std::string_view name) const {
  const StageStats* stage = FindStage(name);
  return stage == nullptr ? 0.0 : stage->seconds;
}

int64_t RunReport::StageCounter(std::string_view name, std::string_view key) const {
  const StageStats* stage = FindStage(name);
  return stage == nullptr ? 0 : stage->Counter(key);
}

double RunReport::TotalSeconds() const {
  double total = 0.0;
  for (const StageStats& stage : stages) total += stage.seconds;
  return total;
}

void RunReport::AddExtra(std::string_view key, double value) {
  for (auto& [name, existing] : extra) {
    if (name == key) {
      existing = value;
      return;
    }
  }
  extra.emplace_back(std::string(key), value);
}

void RunReport::WriteJson(JsonWriter* json_ptr) const {
  JsonWriter& json = *json_ptr;
  json.BeginObject();
  json.Field("strategy", strategy);
  json.Field("candidate_method", candidate_method);
  json.Field("measure", measure);
  json.Field("kernel", kernel);
  json.Field("threads", static_cast<int64_t>(threads));
  json.Field("records", records);
  json.Field("groups", groups);
  json.Field("links", links);
  json.Field("clusters", clusters);
  json.Field("degraded", degraded);
  json.Field("stop_reason", stop_reason);
  json.Field("seconds_total", TotalSeconds());
  json.Key("stages");
  json.BeginArray();
  for (const StageStats& stage : stages) {
    json.BeginObject();
    json.Field("stage", stage.name);
    json.Field("seconds", stage.seconds);
    json.Key("counters");
    json.BeginObject();
    for (const auto& [key, value] : stage.counters) json.Field(key, value);
    json.EndObject();
    json.Key("timings");
    json.BeginObject();
    for (const auto& [key, value] : stage.timings) json.Field(key, value);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("extra");
  json.BeginObject();
  for (const auto& [key, value] : extra) json.Field(key, value);
  json.EndObject();
  json.EndObject();
}

std::string RunReport::ToJson(int indent) const {
  JsonWriter json(indent);
  WriteJson(&json);
  return json.str();
}

void MirrorToRegistry(const StageStats& stage, std::string_view prefix,
                      std::initializer_list<std::string_view> keys) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  for (const std::string_view key : keys) {
    for (const auto& [name, value] : stage.counters) {
      if (name != key) continue;
      std::string full_name(prefix);
      full_name.append(".").append(key);
      registry.CounterRef(full_name).Increment(static_cast<uint64_t>(value));
    }
  }
}

std::string ExperimentReportJson(std::string_view experiment,
                                 const std::vector<RunReport>& runs, int indent) {
  JsonWriter json(indent);
  json.BeginObject();
  json.Field("schema", "grouplink.metrics.v1");
  json.Field("experiment", experiment);
  json.Field("hardware_threads", static_cast<int64_t>(DefaultThreadCount()));
  json.Key("runs");
  json.BeginArray();
  for (const RunReport& run : runs) run.WriteJson(&json);
  json.EndArray();
  json.Key("metrics");
  MetricsRegistry::Default().Snapshot().WriteJson(&json);
  json.EndObject();
  return json.str();
}

}  // namespace grouplink
