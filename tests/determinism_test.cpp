// Golden-trace determinism: the kernel contract is that one seed produces
// one behaviour — bit-identical event order, stats, and packet traces —
// regardless of how many times, or on how many threads, the sweep runs.
// These tests exercise the hot-path machinery end to end (slot-pooled event
// queue with cancellation churn, equal-timestamp ties, periodic tasks, TCP
// control transfers, relay broadcast fan-out) and hash everything observable.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"
#include "core/seedsweep.hpp"
#include "core/testbed.hpp"
#include "util/threadbudget.hpp"

namespace msim {
namespace {

// FNV-1a, the usual trace-fingerprint workhorse.
struct TraceHash {
  std::uint64_t h{14695981039346656037ull};
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  void mix(TimePoint t) { mix(static_cast<std::uint64_t>(t.toNanos())); }
};

/// A mixed workload covering every hot path at once, reduced to one hash.
std::uint64_t runScenario(std::uint64_t seed) {
  TraceHash trace;

  Testbed bed{seed};
  bed.deploy(platforms::vrchat());
  TestUserConfig cfg;
  cfg.muted = true;
  for (int i = 0; i < 3; ++i) bed.addUser(cfg);

  Simulator& sim = bed.sim();

  // Periodic task interleaved with the platform's own timers.
  PeriodicTask ticker{sim, Duration::millis(333), [&] {
                        trace.mix("tick");
                        trace.mix(sim.now());
                      }};

  // Cancellation churn: every 500 ms schedule five events and cancel the
  // even-indexed ones before they fire.
  for (int burst = 0; burst < 20; ++burst) {
    sim.schedule(TimePoint::epoch() + Duration::millis(500.0 * burst), [&] {
      std::vector<EventId> ids;
      for (int i = 0; i < 5; ++i) {
        ids.push_back(sim.scheduleAfter(Duration::millis(100 + i), [&, i] {
          trace.mix("fire");
          trace.mix(static_cast<std::uint64_t>(i));
          trace.mix(sim.now());
        }));
      }
      for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    });
  }

  // Equal-timestamp events must fire in scheduling order.
  const auto tie = TimePoint::epoch() + Duration::seconds(7);
  for (int i = 0; i < 8; ++i) {
    sim.schedule(tie, [&, i] { trace.mix(static_cast<std::uint64_t>(100 + i)); });
  }

  // Launch + join drives the full stack: TLS-over-TCP control downloads,
  // UDP relay broadcast with viewport/LoD filtering, periodic avatar and
  // voice streams.
  sim.schedule(TimePoint::epoch(), [&] {
    for (auto& u : bed.users()) u->client->launch();
  });
  for (int i = 0; i < 3; ++i) {
    sim.schedule(TimePoint::epoch() + Duration::seconds(3 + i),
                 [&, i] { bed.user(i).client->joinEvent(); });
  }

  bed.sim().runFor(Duration::seconds(10));

  // Everything observable goes into the fingerprint: the packet trace
  // (timestamps, sizes, directions), room counters, and kernel counters.
  trace.mix(bed.user(0).capture->exportTraceText());
  trace.mix(bed.deployment().room()->forwardedBytes().toBytes());
  trace.mix(bed.deployment().room()->viewportFilteredBytes().toBytes());
  trace.mix(sim.executedEvents());
  trace.mix(sim.now());
  return trace.h;
}

TEST(GoldenTrace, SameSeedSameTrace) {
  const std::uint64_t first = runScenario(4242);
  const std::uint64_t second = runScenario(4242);
  EXPECT_EQ(first, second);
}

TEST(GoldenTrace, DifferentSeedsDiverge) {
  // Not a strict guarantee, but a hash collision across seeds would itself
  // be a red flag worth failing on.
  EXPECT_NE(runScenario(4242), runScenario(4243));
}

// ---------------------------------------------------------------- SeedSweep

TEST(SeedSweepTest, ResultsArriveInSeedOrder) {
  const std::vector<std::uint64_t> seeds{9, 3, 7, 1};
  const auto out =
      runSeedSweep(seeds, [](std::uint64_t s) { return s * 10; }, 4);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{90, 30, 70, 10}));
}

TEST(SeedSweepTest, ThreadCountDoesNotChangeResults) {
  const auto seeds = defaultSeeds(4);
  const auto serial =
      runSeedSweep(seeds, [](std::uint64_t s) { return runScenario(s); }, 1);
  const auto parallel =
      runSeedSweep(seeds, [](std::uint64_t s) { return runScenario(s); }, 4);
  EXPECT_EQ(serial, parallel);
}

TEST(SeedSweepTest, DefaultSeedsMatchHistoricalSchedule) {
  const auto seeds = defaultSeeds(3);
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_EQ(seeds[0], 1000u);
  EXPECT_EQ(seeds[1], 8919u);
  EXPECT_EQ(seeds[2], 16838u);
}

TEST(SeedSweepTest, ExceptionsPropagate) {
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  const auto boom = [](std::uint64_t s) -> int {
    if (s == 3) throw std::runtime_error{"seed 3 failed"};
    return static_cast<int>(s);
  };
  EXPECT_THROW(runSeedSweep(seeds, boom, 2), std::runtime_error);
  EXPECT_THROW(runSeedSweep(seeds, boom, 1), std::runtime_error);
}

TEST(SeedSweepTest, EmptySweepIsFine) {
  const auto out =
      runSeedSweep({}, [](std::uint64_t s) { return s; }, 8);
  EXPECT_TRUE(out.empty());
  // The leased (threads == 0) path too: no workers, no jobs, no throw.
  EXPECT_TRUE(runSeedSweep({}, [](std::uint64_t s) { return s; }).empty());
  EXPECT_TRUE(runUsersSweepCells({}).empty());
}

TEST(SeedSweepTest, LowestIndexExceptionIsRethrown) {
  // Two failing seeds: whichever worker finishes first, the report is the
  // lower index's, at every worker count.
  const auto seeds = defaultSeeds(8);
  const auto boom = [&seeds](std::uint64_t s) -> int {
    if (s == seeds[2]) throw std::runtime_error{"index 2"};
    if (s == seeds[5]) throw std::runtime_error{"index 5"};
    return 0;
  };
  for (const unsigned threads : {1u, 2u, 4u}) {
    try {
      (void)runSeedSweep(seeds, boom, threads);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "index 2") << "threads=" << threads;
    }
  }
}

// A multi-cell call hands back, per cell, exactly the point a one-cell call
// computes: the flat job list and its longest-first order change wall time
// only, for any cell order and worker count. The runner leases its workers
// from the process ThreadBudget, so holding every spare worker pins the
// forward call to one; the reversed call gets the budget's capacity
// (MSIM_THREADS, else the hardware concurrency — four on the CI runners).
// Kept to 1-2 users and 1 s windows: the TSan job runs it too.
TEST(SeedSweepCellsTest, MatchesOneCellCallsInAnyOrder) {
  std::vector<SweepCell> cells;
  for (const PlatformSpec& spec : {platforms::vrchat(), platforms::hubs()}) {
    for (const int users : {1, 2}) {
      cells.push_back({spec, users, 2, Duration::seconds(1)});
    }
  }
  std::vector<SweepPoint> single;
  for (const SweepCell& c : cells) {
    single.push_back(runUsersSweepPoint(c.spec, c.users, c.seeds, c.measureFor));
  }
  std::vector<SweepPoint> forward;
  {
    ThreadBudget& budget = ThreadBudget::process();
    const ThreadBudget::Lease hog{budget, budget.capacity()};
    forward = runUsersSweepCells(cells);
  }
  const std::vector<SweepCell> reversed(cells.rbegin(), cells.rend());
  const std::vector<SweepPoint> backward = runUsersSweepCells(reversed);

  const auto expectSame = [](const SweepPoint& a, const SweepPoint& b) {
    EXPECT_EQ(a.users, b.users);
    EXPECT_EQ(a.downMbps, b.downMbps);
    EXPECT_EQ(a.downMbpsCi, b.downMbpsCi);
    EXPECT_EQ(a.upMbps, b.upMbps);
    EXPECT_EQ(a.fps, b.fps);
    EXPECT_EQ(a.fpsCi, b.fpsCi);
    EXPECT_EQ(a.cpuPct, b.cpuPct);
    EXPECT_EQ(a.cpuCi, b.cpuCi);
    EXPECT_EQ(a.gpuPct, b.gpuPct);
    EXPECT_EQ(a.gpuCi, b.gpuCi);
    EXPECT_EQ(a.memGB, b.memGB);
    EXPECT_EQ(a.batteryDropPct, b.batteryDropPct);
  };
  ASSERT_EQ(forward.size(), cells.size());
  ASSERT_EQ(backward.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expectSame(forward[i], single[i]);
    expectSame(backward[cells.size() - 1 - i], single[i]);
  }
}

}  // namespace
}  // namespace msim
