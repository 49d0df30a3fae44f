#include "support/run_together.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace grouplink {

void RunTogether(int threads, const std::function<void(int)>& body,
                 double bound_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(bound_seconds));
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // A spin barrier, so the bodies overlap as much as they can.
      started.fetch_add(1);
      while (started.load() < threads && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      body(t);
      finished.fetch_add(1);
    });
  }
  while (finished.load() < threads && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  GL_CHECK_EQ(finished.load(), threads)
      << "test threads still running after " << bound_seconds
      << " s: a wait never ended";
  for (std::thread& thread : pool) thread.join();
}

}  // namespace grouplink
