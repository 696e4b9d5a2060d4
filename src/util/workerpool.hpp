#pragma once

// detlint:allow-file(thread-order) the pool below is barrier-structured scaffolding: workers only pick WHICH core runs job i, every job's inputs are fixed before the pool is released, and callers read results by index (seed sweeps in seed order, PDES windows in partition order), so output never depends on the worker count

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/threadbudget.hpp"

namespace msim {

// The one host-thread pool: seed sweeps (core/seedsweep.hpp) and PDES rounds
// (pdes/pdes.hpp) both run on it. It sizes itself the one way both need: a
// pinned thread count, or a lease on the process ThreadBudget, never more
// workers than jobs. Workers park on a condition variable between jobs;
// each job they drain a shared atomic index, so load-balancing is dynamic
// (which worker runs which index is scheduler-dependent) while results are
// not (every index's job is fixed before the pool is released). The
// mutex/condvar pair is the barrier on both edges, and the index hand-out is
// an acquire/release chain headed by the job's release store, so every write
// made before a job happens-before any worker's read of it and every job's
// writes happen-before forEach() returns — TSan-clean by construction.
class WorkerPool {
 public:
  using Job = std::function<void(std::size_t)>;

  /// A pool for `jobs` indices per forEach(). `pinned` > 0 fixes the worker
  /// count; 0 leases extra workers from ThreadBudget::process(). Zero jobs
  /// make a one-worker pool whose forEach() does nothing.
  WorkerPool(unsigned pinned, std::size_t jobs)
      : lease_{ThreadBudget::process(),
               pinned > 0 || jobs == 0 ? 0 : static_cast<unsigned>(jobs - 1)},
        count_{jobs},
        workers_{static_cast<unsigned>(std::clamp<std::size_t>(
            pinned > 0 ? pinned : lease_.workers(), 1,
            std::max<std::size_t>(jobs, 1)))},
        errors_(jobs) {
    threads_.reserve(workers_ - 1);
    for (unsigned t = 1; t < workers_; ++t) {
      threads_.emplace_back([this] { workerLoop(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// One forEach() on a fresh pool; once every worker has joined, rethrows
  /// the exception of the lowest index that threw.
  static void run(unsigned pinned, std::size_t jobs, const Job& job) {
    std::exception_ptr failure;
    {
      WorkerPool pool{pinned, jobs};
      failure = pool.forEach(job);
    }
    if (failure) std::rethrow_exception(failure);
  }

  /// Runs job(i) for every index i, across the pool plus the calling thread,
  /// and returns once all are done: the exception the job threw for the
  /// lowest index, or null when none threw.
  std::exception_ptr forEach(const Job& job) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      job_ = &job;
      pending_ = count_;
      ++generation_;
      next_.store(0, std::memory_order_release);
    }
    cv_.notify_all();
    drain();
    {
      std::unique_lock<std::mutex> lock{mu_};
      doneCv_.wait(lock, [this] { return pending_ == 0; });
    }
    std::exception_ptr first;
    for (std::exception_ptr& e : errors_) {
      if (e && !first) first = e;
      e = nullptr;
    }
    return first;
  }

 private:
  void drain() {
    std::size_t done = 0;
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_acquire);
      if (i >= count_) break;
      try {
        (*job_)(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      ++done;
    }
    if (done == 0) return;
    const std::lock_guard<std::mutex> lock{mu_};
    pending_ -= done;
    if (pending_ == 0) doneCv_.notify_one();
  }

  void workerLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock{mu_};
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      drain();
    }
  }

  ThreadBudget::Lease lease_;
  std::size_t count_;
  unsigned workers_;
  std::vector<std::exception_ptr> errors_;  // per index, current job
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  const Job* job_{nullptr};
  std::uint64_t generation_{0};
  std::size_t pending_{0};
  bool stop_{false};
  std::atomic<std::size_t> next_{0};
};

}  // namespace msim
