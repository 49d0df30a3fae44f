#include "trace.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.h"

namespace grouplink {
namespace perfbench {

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
      .count();
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name, int64_t op)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = buffer_->open_;
  span.op = op;
  index_ = static_cast<int32_t>(buffer_->spans_.size());
  buffer_->open_ = index_;
  span.start_ns = NowNs();
  buffer_->spans_.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  Span& span = buffer_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  buffer_->open_ = span.parent;
}

SpanBuffer* Trace::NewBuffer() {
  buffers_.emplace_back(static_cast<int32_t>(buffers_.size()));
  return &buffers_.back();
}

std::vector<double> Trace::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      if (name == span.name) out.push_back(span.millis());
    }
  }
  return out;
}

std::vector<double> Trace::PairedDifferenceMs(std::string_view a,
                                              std::string_view b) const {
  std::vector<double> out;
  for (const SpanBuffer& buffer : buffers_) {
    std::map<int64_t, double> first;
    std::map<int64_t, double> second;
    for (const Span& span : buffer.spans()) {
      if (span.op < 0) continue;
      if (a == span.name) first[span.op] = span.millis();
      if (b == span.name) second[span.op] = span.millis();
    }
    for (const auto& [op, ms] : first) {
      const auto it = second.find(op);
      if (it != second.end()) out.push_back(ms - it->second);
    }
  }
  return out;
}

size_t Trace::num_spans() const {
  size_t total = 0;
  for (const SpanBuffer& buffer : buffers_) total += buffer.spans().size();
  return total;
}

Status Trace::WriteJson(const std::string& path) const {
  struct Summary {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summary;
  for (const SpanBuffer& buffer : buffers_) {
    std::vector<double> child_ms(buffer.spans().size(), 0.0);
    for (const Span& span : buffer.spans()) {
      if (span.parent >= 0) child_ms[static_cast<size_t>(span.parent)] += span.millis();
    }
    for (size_t i = 0; i < buffer.spans().size(); ++i) {
      const Span& span = buffer.spans()[i];
      Summary& s = summary[span.name];
      ++s.count;
      s.total_ms += span.millis();
      s.self_ms += span.millis() - child_ms[i];
    }
  }

  JsonWriter json(0);
  json.BeginObject();
  json.Key("summary");
  json.BeginObject();
  for (const auto& [name, s] : summary) {
    json.Key(name);
    json.BeginObject();
    json.Field("count", s.count);
    json.Field("total_ms", s.total_ms);
    json.Field("self_ms", s.self_ms);
    json.EndObject();
  }
  json.EndObject();
  // One row per span: [thread, name, start_ns, end_ns, parent, op].
  json.Key("spans");
  json.BeginArray();
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      json.BeginArray();
      json.Int(buffer.thread());
      json.String(span.name);
      json.Int(span.start_ns);
      json.Int(span.end_ns);
      json.Int(span.parent);
      json.Int(span.op);
      json.EndArray();
    }
  }
  json.EndArray();
  json.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for writing");
  const std::string& text = json.str();
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fclose(f) != 0 || written != text.size()) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace perfbench
}  // namespace grouplink
