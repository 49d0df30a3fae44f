#ifndef GROUPLINK_OK_BENCH_ONLY_H_
#define GROUPLINK_OK_BENCH_ONLY_H_

// Clean fixture: no shipped file includes this header, and the reasoned
// marker below keeps it from being a finding (counted as a suppression).
// gl-lint: allow(unreached-header) fixture; stands for a header only an experiment reaches

namespace grouplink {
inline int BenchOnly() { return 2; }
}  // namespace grouplink

#endif  // GROUPLINK_OK_BENCH_ONLY_H_
