// Fixed-size thread pool for embarrassingly parallel simulation work.
//
// Deliberately simple — one shared FIFO queue, no work stealing: experiment
// cells are coarse (hundreds of thousands of simulated accesses each), so
// queue contention is negligible and FIFO keeps scheduling deterministic
// enough to reason about. Exceptions thrown by a task are captured in the
// task's future and rethrown at get().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace steins {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a nullary callable; the returned future yields its result or
  /// rethrows its exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for every i in [0, n) across the pool and wait for all of
  /// them. The first exception (lowest index) is rethrown after every task
  /// has finished, so no task is left running against destroyed state.
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// for_each_index on a fresh pool of `jobs` workers, or in index order
  /// on the calling thread when jobs <= 1.
  static void run_indexed(unsigned jobs, std::size_t n,
                          const std::function<void(std::size_t)>& fn);

  /// Job-count policy shared by every CLI entry point: STEINS_JOBS if set
  /// (values < 1 clamp to 1), else hardware_concurrency (min 1).
  static unsigned default_jobs();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Persistent per-shard worker gang with a full epoch barrier, built for the
/// concurrent KV serving engine: `shards` fixed work slots are statically
/// partitioned over `jobs` long-lived threads (shard s runs on thread
/// s % jobs), so a shard's epochs always execute on the same thread in
/// program order. `run_epoch(fn)` invokes fn(shard) for every shard and
/// returns only after ALL shards finished (the barrier) — between epochs no
/// worker touches shared state, which is what makes merge-at-barrier stats
/// and deterministic cross-shard exchange safe without per-access locks.
///
/// jobs == 1 is the sequential reference path: no threads are spawned and
/// every epoch runs shards 0..N-1 in order on the calling thread. Engines
/// built on ShardGang are bit-identical across jobs values by construction
/// as long as per-shard work only reads/writes per-shard state plus
/// barrier-exchanged snapshots.
///
/// Exceptions: the first error by lowest shard index is rethrown from
/// run_epoch after the barrier completes, so no worker is left running
/// against destroyed state (same contract as ThreadPool::for_each_index).
class ShardGang {
 public:
  ShardGang(std::size_t shards, unsigned jobs);
  ~ShardGang();

  ShardGang(const ShardGang&) = delete;
  ShardGang& operator=(const ShardGang&) = delete;

  std::size_t shards() const { return shards_; }
  /// Actual worker count after clamping to [1, shards].
  unsigned jobs() const { return jobs_; }

  /// Run fn(shard) for every shard in [0, shards) and wait for all of them
  /// (full barrier). Not reentrant; call from one coordinating thread.
  void run_epoch(const std::function<void(std::size_t)>& fn);

 private:
  void gang_loop(unsigned worker);

  std::size_t shards_;
  unsigned jobs_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;     // bumped to release workers into an epoch
  std::size_t remaining_ = 0;   // workers still running the current epoch
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<std::exception_ptr> errors_;  // per shard, cleared each epoch
  bool stop_ = false;
};

}  // namespace steins
