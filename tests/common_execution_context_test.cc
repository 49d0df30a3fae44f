#include "common/execution_context.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace grouplink {
namespace {

TEST(ExecutionContextTest, DefaultContextNeverStops) {
  ExecutionContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.StopRequested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kNone);
  EXPECT_STREQ(ctx.stop_reason_name(), "");
  EXPECT_FALSE(ctx.degraded());
  EXPECT_TRUE(ctx.ToStatus().ok());
}

TEST(ExecutionContextTest, CancellationIsSharedAndSticky) {
  CancellationToken token;
  ExecutionContext ctx;
  ctx.SetCancellation(token);
  EXPECT_FALSE(ctx.StopRequested());
  token.Cancel();
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled);
  EXPECT_STREQ(ctx.stop_reason_name(), "cancelled");
  EXPECT_TRUE(ctx.degraded());
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kCancelled);
}

TEST(ExecutionContextTest, CopiedTokenObservesCancel) {
  CancellationToken token;
  CancellationToken copy = token;
  copy.Cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(ExecutionContextTest, ExpiredDeadlineStopsTheRun) {
  ExecutionContext ctx;
  ctx.SetDeadline(0.01);  // 10 microseconds: expires essentially at once.
  EXPECT_TRUE(ctx.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadlineExpired);
  EXPECT_STREQ(ctx.stop_reason_name(), "deadline");
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecutionContextTest, GenerousDeadlineDoesNotStop) {
  ExecutionContext ctx;
  ctx.SetDeadline(60'000.0);
  EXPECT_FALSE(ctx.StopRequested());
  ctx.SetDeadline(0.0);  // Disarm.
  EXPECT_FALSE(ctx.has_deadline());
}

TEST(ExecutionContextTest, DeadlinesPastTheClockRangeAreNoDeadline) {
  // now + ms must fit the steady clock's time_point. A deadline it cannot
  // hold, or no number at all, can never expire: it must not overflow
  // into the past and stop the run at once.
  for (const double ms : {1e13, 1e300, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    ExecutionContext ctx;
    ctx.SetDeadline(ms);
    EXPECT_FALSE(ctx.has_deadline()) << ms;
    EXPECT_FALSE(ctx.StopRequested()) << ms;
    EXPECT_FALSE(ctx.degraded()) << ms;
  }
  // A deadline decades away still fits the clock and arms.
  ExecutionContext ctx;
  ctx.SetDeadline(1e12);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.StopRequested());
}

TEST(ExecutionContextTest, FirstStopCauseWins) {
  CancellationToken token;
  ExecutionContext ctx;
  ctx.SetCancellation(token);
  token.Cancel();
  EXPECT_TRUE(ctx.StopRequested());
  ctx.SetDeadline(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCancelled)
      << "the sticky first cause must not be overwritten";
}

TEST(ExecutionContextTest, EveryThreadThatSeesAStopReadsItsReason) {
  // Threads poll one context while three causes race to stop it: one
  // thread cancels the token, the deadline expires, and the
  // execution.deadline fault fires; the cancel's poll, the fault's and
  // the deadline move with the round, so each cause wins some rounds.
  // Whichever wins, every thread that sees the stop must read that same
  // cause, a non-Ok status and a degraded context, never kNone and Ok.
  constexpr int kThreads = 6;
  for (int round = 0; round < 60; ++round) {
    ScopedFaultClear clear;
    FaultSpec spec;
    spec.after = 3 * (round % 20);
    FaultInjector::Default().Arm(faults::kDeadline, spec);
    CancellationToken token;
    std::optional<ExecutionContext> ctx;  // Armed once every thread waits.
    std::atomic<bool> go{false};
    std::vector<StopReason> seen(kThreads, StopReason::kNone);
    std::vector<char> ok_status(kThreads, 1);
    std::vector<char> degraded(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int polls = 0; !ctx->StopRequested(); ++polls) {
          if (t == 0 && polls == 2 * (round % 30)) token.Cancel();
        }
        seen[static_cast<size_t>(t)] = ctx->stop_reason();
        ok_status[static_cast<size_t>(t)] = ctx->ToStatus().ok() ? 1 : 0;
        degraded[static_cast<size_t>(t)] = ctx->degraded() ? 1 : 0;
      });
    }
    ctx.emplace(/*deadline_ms=*/0.01 * (round % 10 + 1), token, 0, 0);
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      const size_t i = static_cast<size_t>(t);
      const std::string where = "round " + std::to_string(round) + ", thread " + std::to_string(t);
      EXPECT_NE(seen[i], StopReason::kNone) << where;
      EXPECT_EQ(seen[i], seen[0]) << where << ": the first cause is everyone's";
      EXPECT_EQ(ok_status[i], 0) << where;
      EXPECT_EQ(degraded[i], 1) << where;
    }
  }
}

TEST(ExecutionContextTest, InjectedDeadlineFaultStops) {
  ScopedFaultClear clear;
  ExecutionContext ctx;
  EXPECT_FALSE(ctx.StopRequested());
  FaultInjector::Default().Arm(faults::kDeadline, FaultSpec{});
  EXPECT_TRUE(ctx.StopRequested());
  EXPECT_EQ(ctx.stop_reason(), StopReason::kFaultInjected);
  EXPECT_STREQ(ctx.stop_reason_name(), "fault-injected");
  EXPECT_EQ(ctx.ToStatus().code(), StatusCode::kDeadlineExceeded);
  // Sticky even after the fault is disarmed.
  FaultInjector::Default().DisarmAll();
  EXPECT_TRUE(ctx.StopRequested());
}

TEST(ExecutionContextTest, MatcherBudget) {
  ExecutionContext ctx;
  EXPECT_FALSE(ctx.ExceedsMatcherBudget(1 << 30));  // Unlimited by default.
  ctx.SetMaxMatcherCost(100);
  EXPECT_FALSE(ctx.ExceedsMatcherBudget(100));
  EXPECT_TRUE(ctx.ExceedsMatcherBudget(101));
}

TEST(ExecutionContextTest, CandidateCap) {
  ExecutionContext ctx;
  EXPECT_EQ(ctx.EffectiveCandidateCap(50), 50u);
  ctx.SetMaxCandidatePairs(10);
  EXPECT_EQ(ctx.EffectiveCandidateCap(50), 10u);
  EXPECT_EQ(ctx.EffectiveCandidateCap(5), 5u);  // Never raises the count.
}

TEST(ExecutionContextTest, OversizedCandidatesFaultShrinksTheCap) {
  ScopedFaultClear clear;
  ExecutionContext ctx;
  FaultSpec spec;
  spec.magnitude = 3;
  FaultInjector::Default().Arm(faults::kOversizedCandidates, spec);
  EXPECT_EQ(ctx.EffectiveCandidateCap(50), 3u);

  FaultInjector::Default().Arm(faults::kOversizedCandidates, FaultSpec{});
  EXPECT_EQ(ctx.EffectiveCandidateCap(50), 25u) << "magnitude 0 halves the list";
}

TEST(ExecutionContextTest, NoteDegradedIsObservableAndIdempotent) {
  ExecutionContext ctx;
  ctx.NoteDegraded();
  ctx.NoteDegraded();
  EXPECT_TRUE(ctx.degraded());
  EXPECT_FALSE(ctx.StopRequested()) << "degraded alone is not a stop request";
}

TEST(ExecutionContextTest, ParallelForStopsWithinOneTaskQuantum) {
  // Tentpole proof #1 (serial half): once the token is cancelled, at most
  // the in-flight iteration finishes; every later iteration is shed.
  CancellationToken token;
  ExecutionContext ctx;
  ctx.SetCancellation(token);
  size_t executed_iterations = 0;
  const size_t executed = ParallelFor(
      /*pool=*/nullptr, 1000,
      [&](size_t i) {
        ++executed_iterations;
        if (i == 4) token.Cancel();
      },
      &ctx);
  EXPECT_EQ(executed, 5u) << "iterations 0..4 ran; 5 onward were shed";
  EXPECT_EQ(executed_iterations, 5u);
  EXPECT_TRUE(ctx.StopRequested());
}

TEST(ExecutionContextTest, ParallelForStopsWithinOneQuantumPerWorker) {
  ThreadPool pool(2);
  CancellationToken token;
  ExecutionContext ctx;
  ctx.SetCancellation(token);
  std::atomic<size_t> executed_iterations{0};
  constexpr size_t kN = 10'000;
  token.Cancel();  // Cancelled before the loop even starts.
  const size_t executed = ParallelFor(
      &pool, kN, [&](size_t) { executed_iterations.fetch_add(1); }, &ctx);
  // Each chunk observes the stop on its first poll, so nothing runs.
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(executed_iterations.load(), 0u);
}

TEST(ExecutionContextTest, ParallelForWithoutContextRunsEverything) {
  std::atomic<size_t> executed_iterations{0};
  const size_t executed = ParallelFor(
      /*pool=*/nullptr, 100, [&](size_t) { executed_iterations.fetch_add(1); },
      /*ctx=*/nullptr);
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(executed_iterations.load(), 100u);
}

TEST(ExecutionContextTest, FailTaskFaultShedsChunksAndMarksDegraded) {
  ScopedFaultClear clear;
  FaultInjector::Default().Arm(faults::kFailTask, FaultSpec{});
  ExecutionContext ctx;
  std::atomic<size_t> executed_iterations{0};
  const size_t executed = ParallelFor(
      /*pool=*/nullptr, 100, [&](size_t) { executed_iterations.fetch_add(1); },
      &ctx);
  EXPECT_EQ(executed, 0u) << "the single serial chunk was dropped";
  EXPECT_EQ(executed_iterations.load(), 0u);
  EXPECT_TRUE(ctx.degraded());
  EXPECT_FALSE(ctx.StopRequested()) << "a failed task is shed, not a stop";
}

}  // namespace
}  // namespace grouplink
