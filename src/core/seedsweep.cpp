#include "core/seedsweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/threadbudget.hpp"

namespace msim {

unsigned seedSweepThreads() { return ThreadBudget::process().capacity(); }

std::vector<std::uint64_t> defaultSeeds(int count) {
  std::vector<std::uint64_t> seeds;
  if (count > 0) seeds.reserve(static_cast<std::size_t>(count));
  for (int run = 0; run < count; ++run) {
    seeds.push_back(1000 + static_cast<std::uint64_t>(run) * 7919);
  }
  return seeds;
}

namespace detail {

void runIndexedTasks(std::size_t count,
                     const std::function<void(std::size_t)>& task,
                     unsigned threads) {
  if (count == 0) return;
  if (threads == 0) {
    // Default path: lease extra workers from the process budget so nested
    // parallel layers (a PDES engine inside each run) see what's left.
    unsigned want = seedSweepThreads();
    if (want > count) want = static_cast<unsigned>(count);
    const ThreadBudget::Lease lease{ThreadBudget::process(),
                                    want > 0 ? want - 1 : 0};
    runIndexedTasks(count, task, lease.workers());
    return;
  }
  if (threads > count) threads = static_cast<unsigned>(count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr firstError;
  // detlint:allow(thread-order) orders only the error-capture race; results are merged in seed order regardless of which worker ran what
  std::mutex errorMu;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(i);
      } catch (...) {
        // detlint:allow(thread-order) first-error capture; any of the racing exceptions is a valid report
        const std::lock_guard<std::mutex> lock{errorMu};
        if (!firstError) firstError = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();  // the calling thread pulls tasks too
  for (auto& t : pool) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace detail

}  // namespace msim
