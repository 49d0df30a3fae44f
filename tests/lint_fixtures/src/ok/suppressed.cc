// Clean fixture: each would-be violation carries a gl-lint allow with a
// reason, so the linter must report zero findings here (and count the
// suppressions).
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>

#include "common/mutex.h"
#include "ok/clean.h"  // Reaches clean.h: no unreached-header finding there.

namespace grouplink {

void SanctionedUses() {
  // gl-lint: allow(raw-thread) fixture exercising the standalone-marker form
  std::thread probe([] {});
  probe.join();
  std::cout << "ok\n";  // gl-lint: allow(raw-stdio) fixture exercising the same-line form
  std::mutex bare;  // gl-lint: allow(raw-mutex) fixture; a reasoned escape from the wrapper rule
  bare.lock();
  bare.unlock();
}

void SanctionedSlowLock(Mutex* mu) {
  MutexLock lock(mu);
  // gl-lint: allow(lock-blocking-call) fixture; the lock exists to serialize this sleep
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

struct Box {
  Box(int v) : value(v) {}  // NOLINT(runtime/explicit): fixture; reasoned NOLINT is not a finding
  int value;
};

}  // namespace grouplink
