#include "core/seedsweep.hpp"

#include "util/threadbudget.hpp"
#include "util/workerpool.hpp"

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

void runIndexedTasks(std::size_t count,
                     const std::function<void(std::size_t)>& task,
                     unsigned threads) {
  WorkerPool::run(threads, count, task);
}

}  // namespace msim
