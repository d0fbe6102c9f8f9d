#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace steins {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      job = std::move(queue_.front());
      queue_.pop();
    }
    job();
  }
}

void ThreadPool::for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::run_indexed(unsigned jobs, std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(jobs);
  pool.for_each_index(n, fn);
}

ShardGang::ShardGang(std::size_t shards, unsigned jobs) : shards_(shards) {
  if (jobs < 1) jobs = 1;
  if (shards_ > 0 && jobs > shards_) jobs = static_cast<unsigned>(shards_);
  jobs_ = jobs;
  errors_.assign(shards_, nullptr);
  if (jobs_ <= 1) return;  // sequential reference path: no threads
  workers_.reserve(jobs_);
  for (unsigned w = 0; w < jobs_; ++w) {
    workers_.emplace_back([this, w] { gang_loop(w); });
  }
}

ShardGang::~ShardGang() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardGang::gang_loop(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      fn = fn_;
    }
    // Static partition: shard s always runs on thread s % jobs, ascending,
    // so a given shard's epochs execute on one thread in program order.
    for (std::size_t s = worker; s < shards_; s += jobs_) {
      try {
        (*fn)(s);
      } catch (...) {
        errors_[s] = std::current_exception();  // slot owned by this worker
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void ShardGang::run_epoch(const std::function<void(std::size_t)>& fn) {
  if (shards_ == 0) return;
  std::fill(errors_.begin(), errors_.end(), nullptr);
  if (jobs_ <= 1) {
    for (std::size_t s = 0; s < shards_; ++s) {
      try {
        fn(s);
      } catch (...) {
        errors_[s] = std::current_exception();
      }
    }
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      remaining_ = jobs_;
      ++epoch_;
    }
    start_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return remaining_ == 0; });
    }
  }
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

unsigned ThreadPool::default_jobs() {
  if (const char* env = std::getenv("STEINS_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    return v < 1 ? 1u : static_cast<unsigned>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1u : hc;
}

}  // namespace steins
