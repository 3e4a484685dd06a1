// A small fixed-size thread pool with a deterministic, allocation-free
// parallel_for.
//
// ThreadPool(n) spawns n - 1 workers; the calling thread always participates
// in parallel_for, so n == 1 means zero workers and every entry point
// degenerates to the exact serial loop (the engine's SPECMATCH_THREADS=1
// escape hatch). Callers are expected to write results into per-index slots,
// which is what makes the parallel engine bit-for-bit deterministic
// regardless of thread count or of which lane ran which index.
//
// parallel_for is a fork-join on one preallocated dispatch slot per pool: the
// caller publishes (body, range, cursor) into the slot, bumps an epoch that
// the sleeping workers wait on, and runs as lane 0; each woken worker that
// joins before the caller closes the slot takes the next lane. Lanes claim
// *chunks* of consecutive indices from the shared atomic cursor: about
// kChunkWork of estimated work each, and at least eight per lane so uneven
// indices still balance (heavy indices are claimed one at a time). No
// queue, no task object, no heap allocation per dispatch. Exceptions thrown by the body are
// captured per lane and the first one (in lane order) is rethrown on the
// calling thread once every joined lane has returned.
//
// Serial cutoff: a call site passes `index_cost`, its estimate of one
// index's work in work units (about a nanosecond each; every engine call
// site states the serial measurement its estimate comes from). A range
// whose total estimate (end - begin) * index_cost is below kSerialCutoff
// runs serially on the caller: waking workers would cost more than it
// saves. The default cost assumes every index is worth a fan-out on its
// own.
//
// Nesting is per pool: a parallel_for issued by a worker of *this* pool runs
// inline on that worker (no new dispatch, no deadlock), whereas a worker of a
// different pool — e.g. a MatchServer drain lane — fans out here as any
// other caller would. The slot holds one dispatch at a time: a caller that
// finds it busy (another thread's dispatch, or its own enclosing one) runs
// its range serially as lane 0 instead of waiting, queueing or allocating.
// submit() from inside a task just enqueues.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/metrics.hpp"

namespace specmatch {

class ThreadPool {
 public:
  /// Estimated total work (units of index_cost) below which a parallel_for
  /// runs serially. Picked from the threads x N sweep of bench/large_market
  /// recorded in EXPERIMENTS.md ("Per-pool nesting and the chunked
  /// fork-join").
  static constexpr std::size_t kSerialCutoff = 25'000;
  /// Estimated work per claimed chunk (same units).
  static constexpr std::size_t kChunkWork = 4'000;

  /// A pool presenting `num_threads` lanes of execution: the caller plus
  /// num_threads - 1 workers. Requires num_threads >= 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes including the calling thread (constructor argument).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Enqueues `task` for a worker. On a 1-lane pool the task runs inline
  /// before submit returns. Tasks may themselves call submit.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  /// Calls fn(i) for every i in [begin, end). Blocks until all calls have
  /// returned, then rethrows the first captured exception, if any. Runs
  /// serially (in ascending index order, on the calling thread) when the
  /// pool has one lane, the range has one index, (end - begin) * index_cost
  /// is below kSerialCutoff, the caller is a worker of this pool, or the
  /// dispatch slot is busy.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                    std::size_t index_cost = kSerialCutoff) {
    parallel_for_lanes(
        begin, end, [&fn](std::size_t /*lane*/, std::size_t i) { fn(i); },
        index_cost);
  }

  /// parallel_for variant whose body also receives the executing lane index
  /// (0 = the calling thread, always < num_threads()): fn(lane, i). Lanes let
  /// callers hand each participant its own scratch slot (e.g. the
  /// MatchWorkspace per-lane MWIS scratch) without sharing or locking. Which
  /// lane runs which index is scheduling-dependent — results stay
  /// deterministic only if the scratch never influences outputs (it must be
  /// fully reinitialised per use). Serial fallbacks run everything as lane 0.
  template <typename Fn>
  void parallel_for_lanes(std::size_t begin, std::size_t end, Fn&& fn,
                          std::size_t index_cost = kSerialCutoff) {
    if (begin >= end) return;
    using Body = std::remove_reference_t<Fn>;
    if (!fans_out(end - begin, index_cost) ||
        !dispatch(&run_chunk<Body>,
                  const_cast<void*>(static_cast<const void*>(&fn)), begin,
                  end, index_cost)) {
      for (std::size_t i = begin; i < end; ++i) fn(std::size_t{0}, i);
    }
  }

  /// The engine-wide pool, sized from SpecmatchConfig::global().num_threads.
  /// Recreated (workers joined and respawned) when the knob changed since
  /// the last call; do not change the knob while a run is in flight.
  static ThreadPool& global();

 private:
  using ChunkFn = void (*)(void* body, std::size_t lane, std::size_t begin,
                           std::size_t end);

  template <typename Body>
  static void run_chunk(void* body, std::size_t lane, std::size_t begin,
                        std::size_t end) {
    Body& fn = *static_cast<Body*>(body);
    for (std::size_t i = begin; i < end; ++i) fn(lane, i);
  }

  /// True when a range of `n` indices at `index_cost` each is worth waking
  /// workers for (and there are workers, and we are not one of them).
  bool fans_out(std::size_t n, std::size_t index_cost) const {
    if (workers_.empty() || n < 2 || t_worker_of == this) return false;
    return index_cost >= kSerialCutoff || n * index_cost >= kSerialCutoff;
  }

  /// The parallel branch: claims the dispatch slot, runs [begin, end) across
  /// the caller (lane 0) and every worker that joins, and rethrows the first
  /// lane's exception. Returns false, having run nothing, when the slot is
  /// busy.
  bool dispatch(ChunkFn chunk_fn, void* body, std::size_t begin,
                std::size_t end, std::size_t index_cost);
  /// Claims chunks of the current dispatch until the cursor passes its end.
  void run_lane(std::size_t lane) noexcept;
  /// A woken worker's attempt to join dispatch `epoch` as a helper lane.
  void join_dispatch(std::uint64_t epoch);
  void worker_loop();

  /// The pool whose worker the current thread is (nullptr elsewhere).
  static thread_local const ThreadPool* t_worker_of;

  // join_ packs (epoch << kEpochShift) | kOpen | helpers-joined: helpers
  // join a dispatch only while its epoch is current and it is open, and the
  // caller's close returns the exact number of helpers to wait for.
  static constexpr unsigned kEpochShift = 16;
  static constexpr std::uint64_t kOpen = std::uint64_t{1} << 15;
  static constexpr std::uint64_t kJoinedMask = kOpen - 1;

  // The dispatch slot. Written by the owner of busy_ before publishing
  // through join_ (release); helpers read it after joining (acquire).
  std::atomic<bool> busy_{false};
  ChunkFn chunk_fn_ = nullptr;
  void* body_ = nullptr;
  std::size_t end_ = 0;
  std::size_t chunk_ = 1;
  std::vector<std::exception_ptr> errors_;  // one slot per lane
  alignas(64) std::atomic<std::size_t> next_{0};
  alignas(64) std::atomic<std::uint64_t> join_{0};
  alignas(64) std::atomic<std::uint32_t> finished_{0};

  std::mutex mutex_;  // guards queue_, epoch_, active_, stop_
  std::deque<std::function<void()>> queue_;
  std::uint64_t epoch_ = 0;  ///< last published dispatch
  std::size_t active_ = 0;
  bool stop_ = false;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::vector<std::thread> workers_;  // last: the workers use every member
};

/// Convenience: parallel_for on the engine-wide pool.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t index_cost = ThreadPool::kSerialCutoff) {
  ThreadPool::global().parallel_for(begin, end, std::forward<Fn>(fn),
                                    index_cost);
}

/// Convenience: parallel_for_lanes on the engine-wide pool.
template <typename Fn>
void parallel_for_lanes(std::size_t begin, std::size_t end, Fn&& fn,
                        std::size_t index_cost = ThreadPool::kSerialCutoff) {
  ThreadPool::global().parallel_for_lanes(begin, end, std::forward<Fn>(fn),
                                          index_cost);
}

}  // namespace specmatch
