#include "common/thread_pool.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace specmatch {

thread_local const ThreadPool* ThreadPool::t_worker_of = nullptr;

ThreadPool::ThreadPool(std::size_t num_threads) : errors_(num_threads) {
  SPECMATCH_CHECK_MSG(num_threads >= 1, "ThreadPool needs >= 1 lane");
  SPECMATCH_CHECK_MSG(num_threads <= kJoinedMask, "ThreadPool: too many lanes");
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  metrics::count("pool.tasks");
  if (workers_.empty()) {
    // Serial pool: run inline so SPECMATCH_THREADS=1 is the exact serial
    // path with no queueing machinery in the way.
    task();
    return;
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  if (metrics::enabled())
    metrics::observe("pool.queue_depth", static_cast<double>(depth));
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

bool ThreadPool::dispatch(ChunkFn chunk_fn, void* body, std::size_t begin,
                          std::size_t end, std::size_t index_cost) {
  if (busy_.exchange(true, std::memory_order_acquire)) return false;
  metrics::count("pool.parallel_for_dispatches");
  chunk_fn_ = chunk_fn;
  body_ = body;
  end_ = end;
  // A chunk holds about kChunkWork of estimated work, so claiming one (an
  // atomic add) stays cheap next to running it, but never more than an
  // eighth of a lane's share, so uneven indices still balance. Indices at
  // or above kChunkWork each (and the default cost) are claimed one by one.
  chunk_ = std::clamp<std::size_t>(
      std::min(kChunkWork / std::max<std::size_t>(1, index_cost),
               (end - begin) / (8 * num_threads())),
      1, end - begin);
  next_.store(begin, std::memory_order_relaxed);
  finished_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++epoch_;
    join_.store((epoch_ << kEpochShift) | kOpen, std::memory_order_release);
  }
  work_available_.notify_all();

  run_lane(0);  // the caller is lane 0

  // Close the slot: helpers that have not joined yet never will, and the
  // ones that did are exactly the ones to wait for.
  const auto joined = static_cast<std::uint32_t>(
      join_.fetch_and(~kOpen, std::memory_order_acq_rel) & kJoinedMask);
  for (std::uint32_t done = finished_.load(std::memory_order_acquire);
       done != joined; done = finished_.load(std::memory_order_acquire))
    finished_.wait(done, std::memory_order_acquire);

  std::exception_ptr error;
  for (std::size_t lane = 0; lane <= joined; ++lane) {
    if (errors_[lane] && !error) error = errors_[lane];
    errors_[lane] = nullptr;
  }
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
  return true;
}

void ThreadPool::run_lane(std::size_t lane) noexcept {
  try {
    while (true) {
      const std::size_t begin =
          next_.fetch_add(chunk_, std::memory_order_relaxed);
      if (begin >= end_) break;
      chunk_fn_(body_, lane, begin, std::min(begin + chunk_, end_));
    }
  } catch (...) {
    errors_[lane] = std::current_exception();
  }
}

void ThreadPool::join_dispatch(std::uint64_t epoch) {
  std::uint64_t state = join_.load(std::memory_order_acquire);
  do {
    if ((state >> kEpochShift) != epoch || (state & kOpen) == 0) return;
  } while (!join_.compare_exchange_weak(state, state + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire));
  run_lane((state & kJoinedMask) + 1);
  finished_.fetch_add(1, std::memory_order_release);
  finished_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(lock, [&] {
      return stop_ || !queue_.empty() || epoch_ != seen_epoch;
    });
    if (epoch_ != seen_epoch) {
      seen_epoch = epoch_;
      lock.unlock();
      join_dispatch(seen_epoch);
      lock.lock();
      continue;
    }
    if (queue_.empty()) return;  // stopping and drained
    {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      lock.unlock();
      task();  // bare submits must not throw
    }
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_.notify_all();
  }
}

ThreadPool& ThreadPool::global() {
  static std::mutex mutex;
  static std::unique_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(mutex);
  const int configured = SpecmatchConfig::global().num_threads;
  const auto want = static_cast<std::size_t>(configured < 1 ? 1 : configured);
  if (pool == nullptr || pool->num_threads() != want) {
    pool = std::make_unique<ThreadPool>(want);
    metrics::gauge_set("pool.lanes", static_cast<double>(want));
  }
  return *pool;
}

}  // namespace specmatch
