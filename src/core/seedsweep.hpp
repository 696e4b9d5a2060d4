#pragma once

// Parallel seed sweeps.
//
// One simulation is strictly single-threaded (sim/simulator.hpp), but the
// paper averages every headline number "over more than 20 experiments"
// (§3.2) — independent runs differing only in their seed. Those runs share
// no mutable state (all identity counters are per-Simulator, see
// Simulator::nextId()), so they can execute on a thread pool.
//
// Determinism contract: runSeedSweep() returns results ordered by seed
// position, never by completion order, and callers reduce that vector
// serially. A sweep therefore produces bit-identical output for any thread
// count, including 1.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace msim {

/// Worker count a sweep uses when the caller passes 0: the capacity of
/// ThreadBudget::process(), i.e. MSIM_THREADS if set (>=1), else the
/// hardware concurrency (minimum 1), read once at first use.
[[nodiscard]] unsigned seedSweepThreads();

/// The repo-wide seed schedule for run r = 0..count-1 (matches the
/// historical `1000 + 7919 * run` progression used by the experiments).
[[nodiscard]] std::vector<std::uint64_t> defaultSeeds(int count);

/// Runs task(0..count-1), each exactly once, on a util/workerpool.hpp pool
/// of up to `threads` workers (the calling thread is one of them). When
/// threads == 0, extra workers are leased from the process-wide
/// ThreadBudget, so seed-level and partition-level parallelism compose
/// without oversubscription — a nested PDES engine inside each run sees
/// whatever the sweep left over. Every task runs; then the exception of the
/// lowest throwing index, if any, is rethrown.
void runIndexedTasks(std::size_t count,
                     const std::function<void(std::size_t)>& task,
                     unsigned threads = 0);

/// Runs `fn(seed)` for every seed — in parallel when `threads` (or the
/// MSIM_THREADS default) allows — and returns the results in seed order.
/// `fn` must be safe to call concurrently from several threads, which holds
/// for anything that builds its own Simulator/Testbed per call; `Result`
/// must be default-constructible and movable.
template <typename Fn>
auto runSeedSweep(const std::vector<std::uint64_t>& seeds, Fn&& fn,
                  unsigned threads = 0)
    -> std::vector<decltype(fn(std::uint64_t{}))> {
  using Result = decltype(fn(std::uint64_t{}));
  std::vector<Result> results(seeds.size());
  runIndexedTasks(
      seeds.size(), [&](std::size_t i) { results[i] = fn(seeds[i]); },
      threads);
  return results;
}

}  // namespace msim
