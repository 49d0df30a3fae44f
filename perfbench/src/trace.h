#ifndef GROUPLINK_PERFBENCH_TRACE_H_
#define GROUPLINK_PERFBENCH_TRACE_H_

// The benchmark's span recorder. Spans are opened by the benchmark's own
// code around calls into the library's public functions (the library
// itself carries no benchmark instrumentation). Each thread records into
// its own SpanBuffer, so recording takes no lock; buffers stay in memory
// until the run ends and are written out once.

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace grouplink {
namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

/// One timed interval. `parent` is the index of the enclosing span in the
/// same buffer (-1 for a root); `op` ties the spans of one query or one
/// arrival together (-1 for set-up and phase-level spans).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t op = -1;

  double millis() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// The spans of one thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(int32_t thread) : thread_(thread) {}

  int32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;

  int32_t thread_;
  int32_t open_ = -1;  // Innermost open span, the parent of the next one.
  std::vector<Span> spans_;
};

/// Records one span for its scope. A null buffer means tracing is off and
/// the object does nothing, not even read the clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t op = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_ = -1;
};

/// Every span buffer of one run plus the queries over them that the
/// per-layer metrics need.
class Trace {
 public:
  /// A fresh buffer for one thread. Call before the thread starts; the
  /// returned pointer stays valid for the Trace's lifetime.
  SpanBuffer* NewBuffer();

  /// Duration in ms of every span named `name`, across all threads.
  std::vector<double> DurationsMs(std::string_view name) const;

  /// For every op that has both a span `a` and a span `b` in one buffer:
  /// duration(a) - duration(b), in ms.
  std::vector<double> PairedDifferenceMs(std::string_view a,
                                         std::string_view b) const;

  /// Writes every span plus a per-name summary (count, total and self
  /// time, where self time is a span's duration minus its children's).
  [[nodiscard]] Status WriteJson(const std::string& path) const;

  size_t num_spans() const;

 private:
  std::deque<SpanBuffer> buffers_;
};

}  // namespace perfbench
}  // namespace grouplink

#endif  // GROUPLINK_PERFBENCH_TRACE_H_
