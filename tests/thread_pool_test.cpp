// Unit tests for the engine thread pool: coverage and exactly-once semantics
// of parallel_for, the serial escape hatch and cutoff, exception propagation
// (caller and helper lanes), per-pool nesting (inline within one pool, fan
// out from another pool's worker), concurrent callers, allocation-free
// dispatch, submit inside a task, and the global pool's reaction to the
// SPECMATCH_THREADS knob.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"

namespace specmatch {
namespace {

TEST(ThreadPoolTest, SingleLanePoolRunsInAscendingOrderInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(3, 9, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr std::size_t kRange = 10'000;
  std::vector<std::atomic<int>> hits(kRange);
  pool.parallel_for(0, kRange, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kRange; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, PerIndexSlotsGiveDeterministicResults) {
  // The engine's contract: writing to result[i] from iteration i produces
  // the same output as the serial loop, regardless of lane count.
  constexpr std::size_t kRange = 257;
  std::vector<int> serial(kRange), parallel(kRange);
  ThreadPool one(1), many(4);
  one.parallel_for(0, kRange,
                   [&](std::size_t i) { serial[i] = static_cast<int>(i * i); });
  many.parallel_for(
      0, kRange, [&](std::size_t i) { parallel[i] = static_cast<int>(i * i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom 37");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionDoesNotPoisonThePool) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 8, [](std::size_t) {
      throw std::runtime_error("every iteration fails");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "every iteration fails");
  }
  // The pool keeps working after a throwing parallel_for.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, SerialPathExceptionPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(0, 3, [](std::size_t) { throw std::logic_error("s"); }),
      std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> counts(kOuter);
  pool.parallel_for(0, kOuter, [&](std::size_t o) {
    // A parallel_for on the *same* pool runs inline on whichever lane
    // executes iteration o (a worker of this pool, or the caller finding
    // the dispatch slot busy); it must not re-enter the pool and wait on
    // itself.
    pool.parallel_for(0, kInner, [&](std::size_t) { ++counts[o]; });
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    EXPECT_EQ(counts[o].load(), static_cast<int>(kInner));
}

TEST(ThreadPoolTest, ParallelForFromAnotherPoolsWorkerFansOut) {
  // A MatchServer drain lane is a worker of the server's pool; the engine's
  // parallel_for on the global pool must still fan out from it. Nesting is
  // inline only within one pool.
  ThreadPool outer(2);
  ThreadPool engine(4);
  std::atomic<bool> fanned_out{false};
  std::atomic<int> calls{0};
  outer.submit([&] {
    const std::thread::id caller = std::this_thread::get_id();
    engine.parallel_for_lanes(0, 64, [&](std::size_t lane, std::size_t) {
      if (lane != 0 || std::this_thread::get_id() != caller)
        fanned_out = true;
      ++calls;
      // Long enough for a woken engine worker to join the dispatch.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  });
  outer.wait_idle();
  EXPECT_EQ(calls.load(), 64);
  EXPECT_TRUE(fanned_out.load())
      << "parallel_for from another pool's worker ran inline on one lane";
}

TEST(ThreadPoolTest, DispatchIsAllocationFree) {
  const bool metrics_were_on = metrics::enabled();
  metrics::set_enabled(true);
  ThreadPool pool(4);
  constexpr std::size_t kRange = 256;
  std::vector<std::size_t> slots(kRange);
  const auto body = [&](std::size_t i) { slots[i] += i; };
  pool.parallel_for(0, kRange, body);  // registers the dispatch counter
  auto& dispatches =
      metrics::Registry::global().counter("pool.parallel_for_dispatches");
  const std::int64_t dispatches_before = dispatches.value();

  alloc_count::set_counting(true);
  const std::int64_t allocs_before = alloc_count::total();
  for (int d = 0; d < 1000; ++d) pool.parallel_for(0, kRange, body);
  const std::int64_t allocs = alloc_count::total() - allocs_before;
  alloc_count::set_counting(false);
  metrics::set_enabled(metrics_were_on);

  EXPECT_EQ(allocs, 0) << "parallel_for allocated while dispatching";
  // Every call took the parallel branch (one caller: the slot is never
  // busy), so the zero above was measured on the fan-out path.
  EXPECT_EQ(dispatches.value() - dispatches_before, 1000);
  for (std::size_t i = 0; i < kRange; ++i) EXPECT_EQ(slots[i], 1001 * i);
}

TEST(ThreadPoolTest, ConcurrentCallersCoverEveryIndexExactlyOnce) {
  // Several drain lanes may solve markets at once on the one engine pool:
  // one caller holds the dispatch slot, the others run serially.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr std::size_t kRange = 5'000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& caller_hits : hits)
    caller_hits = std::vector<std::atomic<int>>(kRange);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r)
        pool.parallel_for_lanes(0, kRange, [&](std::size_t lane,
                                               std::size_t i) {
          EXPECT_LT(lane, pool.num_threads());
          ++hits[static_cast<std::size_t>(c)][i];
        });
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& caller_hits : hits)
    for (std::size_t i = 0; i < kRange; ++i)
      ASSERT_EQ(caller_hits[i].load(), kRounds) << "index " << i;
}

TEST(ThreadPoolTest, ExceptionOnHelperLanePropagates) {
  ThreadPool pool(4);
  std::atomic<bool> helper_ran{false};
  try {
    pool.parallel_for_lanes(0, 1'000, [&](std::size_t lane, std::size_t) {
      if (lane != 0) {
        helper_ran = true;
        throw std::runtime_error("helper lane");
      }
      // Lane 0 holds its first index until a helper has joined and thrown.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!helper_ran && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
    FAIL() << "expected the helper's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "helper lane");
  }
  EXPECT_TRUE(helper_ran.load());
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, CheapRangesBelowTheCutoffRunSerially) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  // 100 indices at 1 unit each is far below kSerialCutoff: no fan-out, so
  // the unsynchronised push_back is safe and the order is ascending.
  pool.parallel_for(
      0, 100,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      1);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, NestedSubmitIsAccepted) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  pool.submit([&] {
    ++ran;
    pool.submit([&] { ++ran; });
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, SubmitOnSingleLanePoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // no workers: submit executes before returning
}

TEST(ThreadPoolTest, WaitIdleDrainsTheQueue) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int t = 0; t < 64; ++t) pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, FreeParallelForTracksTheConfigKnob) {
  auto& config = SpecmatchConfig::global();
  const int saved = config.num_threads;

  config.num_threads = 1;
  EXPECT_EQ(ThreadPool::global().num_threads(), 1u);
  std::vector<std::size_t> order;
  parallel_for(0, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));

  config.num_threads = 3;
  EXPECT_EQ(ThreadPool::global().num_threads(), 3u);
  std::atomic<int> calls{0};
  parallel_for(0, 100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);

  config.num_threads = saved;
  (void)ThreadPool::global();  // restore the pool for later tests
}

}  // namespace
}  // namespace specmatch
