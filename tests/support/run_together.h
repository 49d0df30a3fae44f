#ifndef GROUPLINK_TESTS_SUPPORT_RUN_TOGETHER_H_
#define GROUPLINK_TESTS_SUPPORT_RUN_TOGETHER_H_

#include <functional>

namespace grouplink {

/// Runs body(0) … body(threads − 1) on `threads` threads that start
/// together, and waits at most `bound_seconds` for all of them. A thread
/// still running then — one whose wake-up was lost, say — cannot be
/// joined, so the test binary aborts with a message: the test fails
/// instead of hanging.
void RunTogether(int threads, const std::function<void(int)>& body,
                 double bound_seconds = 60.0);

}  // namespace grouplink

#endif  // GROUPLINK_TESTS_SUPPORT_RUN_TOGETHER_H_
