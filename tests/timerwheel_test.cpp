// Timer-wheel-specific coverage for the Simulator event queue: dispatch
// order across the wheel/overflow boundary, cascade correctness, the
// schedule-while-draining paths, and the introspection counters. The
// behavioural contract under test is single: dispatch order is exactly
// (time, schedule order) no matter which tier an event waited in or how
// many times it was re-homed on the way down the wheel levels.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace msim {
namespace {

TimePoint at(std::int64_t ns) { return TimePoint::epoch() + Duration::nanos(ns); }

// ---- golden cascade-heavy trace -------------------------------------------
//
// Events pinned across every tier: the current lane, a far level-0 lane, two
// level-1 windows, a shared level-2 window, and the far-future overflow tier
// (beyond the ~134ms horizon), with exact-tie pairs in both the wheel and
// overflow. The expected order is written out explicitly; if a cascade or a
// promotion ever reordered entries, this is the test that names the victim.
TEST(TimerWheelGolden, CascadeHeavyScenarioFiresInPinnedOrder) {
  Simulator sim;
  std::vector<std::string> fired;
  std::vector<std::int64_t> firedAt;
  auto ev = [&](const char* tag) {
    return [&fired, &firedAt, &sim, tag] {
      fired.push_back(tag);
      firedAt.push_back((sim.now() - TimePoint::epoch()).toNanos());
    };
  };

  // Scheduling order is deliberately scrambled relative to time order.
  sim.schedule(at(200'000'000), ev("i"));  // overflow
  sim.schedule(at(300'000), ev("e"));      // level 1
  sim.schedule(at(500), ev("b"));          // current lane
  sim.schedule(at(5'000'000), ev("g"));    // level 2
  sim.schedule(at(100'000), ev("d"));      // level 0
  sim.schedule(at(200'001'000), ev("j"));  // overflow, distinct time
  sim.schedule(at(500), ev("c"));          // exact tie with b, scheduled later
  sim.schedule(at(5'030'000), ev("h"));    // level 2, same window as g
  sim.schedule(at(0), ev("a"));            // immediate
  sim.schedule(at(200'000'000), ev("k"));  // overflow, exact tie with i
  sim.schedule(at(304'000), ev("f"));      // level 1, same window as e

  EXPECT_EQ(sim.queuedEvents(), 11u);
  EXPECT_EQ(sim.wheelEvents() + sim.overflowEvents(), sim.queuedEvents());
  EXPECT_EQ(sim.overflowEvents(), 3u);  // i, j, k park beyond the horizon

  EXPECT_EQ(sim.run(), 11u);

  const std::vector<std::string> expected{"a", "b", "c", "d", "e", "f",
                                          "g", "h", "i", "k", "j"};
  EXPECT_EQ(fired, expected);
  const std::vector<std::int64_t> expectedAt{
      0,         500,       500,       100'000,     300'000,    304'000,
      5'000'000, 5'030'000, 200'000'000, 200'000'000, 200'001'000};
  EXPECT_EQ(firedAt, expectedAt);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.wheelEvents(), 0u);
  EXPECT_EQ(sim.overflowEvents(), 0u);
  EXPECT_GT(sim.cascades(), 0u);  // overflow promotion counts as re-homing
}

// The same scenario chopped into run(limit) windows must dispatch the same
// sequence: parking the cursor at a limit and resuming later may not
// reorder, duplicate, or drop anything.
TEST(TimerWheelGolden, ChunkedRunsMatchSingleRun) {
  auto script = [](Simulator& sim, std::vector<std::string>& fired) {
    auto ev = [&fired](const char* tag) {
      return [&fired, tag] { fired.push_back(tag); };
    };
    sim.schedule(at(200'000'000), ev("i"));
    sim.schedule(at(300'000), ev("e"));
    sim.schedule(at(500), ev("b"));
    sim.schedule(at(5'000'000), ev("g"));
    sim.schedule(at(100'000), ev("d"));
    sim.schedule(at(200'001'000), ev("j"));
    sim.schedule(at(500), ev("c"));
    sim.schedule(at(5'030'000), ev("h"));
    sim.schedule(at(0), ev("a"));
    sim.schedule(at(200'000'000), ev("k"));
    sim.schedule(at(304'000), ev("f"));
  };

  Simulator whole;
  std::vector<std::string> wholeFired;
  script(whole, wholeFired);
  whole.run();

  Simulator chunked;
  std::vector<std::string> chunkedFired;
  script(chunked, chunkedFired);
  std::size_t total = 0;
  // Limits chosen to split lanes mid-window (302µs cuts between e and f,
  // which share a level-1 lane) and to land exactly on an event time
  // (5.03ms, inclusive bound).
  for (const std::int64_t limitNs :
       {1'000LL, 150'000LL, 302'000LL, 5'030'000LL, 199'999'999LL}) {
    total += chunked.run(at(limitNs));
    EXPECT_EQ(chunked.now(), at(limitNs));
  }
  total += chunked.run();
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(chunkedFired, wholeFired);
}

// Scheduling into the lane that is currently draining (after a limited run
// parked mid-lane) must interleave by time with the entries still pending
// in that lane.
TEST(TimerWheel, ScheduleIntoDrainingLaneKeepsTimeOrder) {
  Simulator sim;
  std::vector<std::string> fired;
  auto ev = [&fired](const char* tag) {
    return [&fired, tag] { fired.push_back(tag); };
  };
  // Both in the level-0 lane [2048, 3072).
  sim.schedule(at(2100), ev("e1"));
  sim.schedule(at(2900), ev("e2"));
  EXPECT_EQ(sim.run(at(2500)), 1u);  // e1 fired, e2 still pending in-lane
  EXPECT_EQ(sim.now(), at(2500));
  sim.schedule(at(2600), ev("e3"));  // lands between the limit and e2
  sim.schedule(at(2900), ev("e4"));  // exact tie with pending e2: files after
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, (std::vector<std::string>{"e1", "e3", "e2", "e4"}));
}

// A callback scheduling near-now events can force a genuine merge cascade:
// a level-1 window with a freshly occupied level-0 window starting inside
// it may not drain whole.
TEST(TimerWheel, MidRunScheduleForcesMergeCascade) {
  Simulator sim;
  std::vector<std::string> fired;
  auto ev = [&fired](const char* tag) {
    return [&fired, tag] { fired.push_back(tag); };
  };
  sim.schedule(at(262'500), ev("late"));   // level 1 from a cold cursor
  sim.schedule(at(260'000), [&] {
    fired.push_back("early");
    // Now within level-0 reach of 263µs: occupies a level-0 window that
    // starts inside late's level-1 window, so that window is not clear.
    sim.scheduleAfter(Duration::nanos(3'000), ev("wedge"));
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::string>{"early", "late", "wedge"}));
  EXPECT_GE(sim.cascades(), 1u);
}

TEST(TimerWheel, CountersTrackTiersAndDrainToZero) {
  Simulator sim;
  EXPECT_EQ(sim.wheelEvents(), 0u);
  EXPECT_EQ(sim.overflowEvents(), 0u);
  EXPECT_EQ(sim.cascades(), 0u);

  sim.scheduleAfter(Duration::micros(50), [] {});    // wheel
  sim.scheduleAfter(Duration::millis(500), [] {});   // beyond horizon
  EXPECT_EQ(sim.wheelEvents(), 1u);
  EXPECT_EQ(sim.overflowEvents(), 1u);

  const auto cancelled = sim.scheduleAfter(Duration::millis(600), [] {});
  EXPECT_EQ(sim.overflowEvents(), 2u);
  sim.cancel(cancelled);
  // Tombstones stay resident until a cascade or drain touches them.
  EXPECT_EQ(sim.overflowEvents(), 2u);
  EXPECT_EQ(sim.queuedEvents(), 3u);
  EXPECT_EQ(sim.liveEvents(), 2u);

  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.wheelEvents(), 0u);
  EXPECT_EQ(sim.overflowEvents(), 0u);
  EXPECT_EQ(sim.queuedEvents(), 0u);
  EXPECT_GE(sim.cascades(), 1u);  // the 500ms event was promoted inward
}

// ---- randomized property test against an order oracle ---------------------
//
// Random interleavings of schedule / scheduleAfter / cancel across every
// tier (current lane, wheel levels, overflow), with callbacks that schedule
// and cancel mid-run. The oracle is the contract itself: non-cancelled
// events sorted stably by (clamped) time — i.e. FIFO within a timestamp —
// must equal the observed dispatch sequence exactly.
struct OracleEvent {
  std::int64_t timeNs;
  int tag;
  bool cancelled{false};
};

struct PropertyHarness {
  Simulator sim;
  std::vector<OracleEvent> oracle;   // indexed by tag, in schedule order
  std::vector<EventId> ids;          // parallel to oracle
  std::vector<int> fired;
  std::uint64_t lcg;
  int budget;  // events still allowed to be scheduled from callbacks

  explicit PropertyHarness(std::uint64_t seed, int extra)
      : lcg{seed * 2654435761u + 1}, budget{extra} {}

  std::uint64_t rnd() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }

  std::int64_t pickDelay() {
    switch (rnd() % 5) {
      case 0: return static_cast<std::int64_t>(rnd() % 2'000);        // lane
      case 1: return static_cast<std::int64_t>(rnd() % 300'000);      // L0/L1
      case 2: return static_cast<std::int64_t>(rnd() % 10'000'000);   // L2
      case 3: return static_cast<std::int64_t>(rnd() % 130'000'000);  // L3
      default:
        return 130'000'000 +
               static_cast<std::int64_t>(rnd() % 400'000'000);  // overflow
    }
  }

  void scheduleOne() {
    const std::int64_t nowNs = (sim.now() - TimePoint::epoch()).toNanos();
    std::int64_t t;
    if (!oracle.empty() && rnd() % 4 == 0) {
      // Exact tie with an earlier request (clamped the same way below).
      t = oracle[rnd() % oracle.size()].timeNs;
    } else {
      t = nowNs + pickDelay();
    }
    const int tag = static_cast<int>(oracle.size());
    const std::int64_t clamped = std::max(t, nowNs);
    oracle.push_back(OracleEvent{clamped, tag});
    ids.push_back(sim.schedule(at(t), [this, tag] { onFire(tag); }));
  }

  void cancelRandom() {
    if (ids.empty()) return;
    const std::size_t victim = rnd() % ids.size();
    if (!ids[victim].valid()) return;  // fired or already cancelled: no-op
    sim.cancel(ids[victim]);
    oracle[victim].cancelled = true;
  }

  void onFire(int tag) {
    fired.push_back(tag);
    if (budget > 0 && rnd() % 3 == 0) {
      --budget;
      scheduleOne();
    }
    if (rnd() % 7 == 0) cancelRandom();
  }

  std::vector<int> expected() const {
    std::vector<OracleEvent> live;
    for (const OracleEvent& e : oracle) {
      if (!e.cancelled) live.push_back(e);
    }
    std::stable_sort(live.begin(), live.end(),
                     [](const OracleEvent& a, const OracleEvent& b) {
                       return a.timeNs < b.timeNs;
                     });
    std::vector<int> tags;
    tags.reserve(live.size());
    for (const OracleEvent& e : live) tags.push_back(e.tag);
    return tags;
  }
};

TEST(TimerWheelProperty, RandomInterleavingsMatchStableSortOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    PropertyHarness h{seed, /*extra=*/400};
    for (int i = 0; i < 400; ++i) h.scheduleOne();
    for (int i = 0; i < 100; ++i) h.cancelRandom();
    EXPECT_EQ(h.sim.wheelEvents() + h.sim.overflowEvents(),
              h.sim.queuedEvents());
    h.sim.run();
    ASSERT_TRUE(h.sim.idle()) << "seed " << seed;
    EXPECT_EQ(h.fired, h.expected()) << "seed " << seed;
    EXPECT_EQ(h.sim.wheelEvents(), 0u);
    EXPECT_EQ(h.sim.overflowEvents(), 0u);
  }
}

// The same property driven through run(limit) slices: chunked execution is
// the common mode for platform sims (one tick at a time) and exercises
// cursor parking plus the schedule-into-parked-lane path repeatedly.
TEST(TimerWheelProperty, ChunkedRunsMatchOracleToo) {
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    PropertyHarness h{seed, /*extra=*/200};
    for (int i = 0; i < 300; ++i) h.scheduleOne();
    for (int i = 0; i < 60; ++i) h.cancelRandom();
    for (std::int64_t limitNs = 1'000'000; !h.sim.idle();
         limitNs += 7'900'000) {
      h.sim.run(at(limitNs));
    }
    ASSERT_TRUE(h.sim.idle()) << "seed " << seed;
    EXPECT_EQ(h.fired, h.expected()) << "seed " << seed;
  }
}

// Far-future events that each schedule one near follow-up. The follow-ups
// land in fine lanes right at the cursor while coarser lanes (and the
// overflow tier) keep cascading into it, so window-start ties between a
// cascading lane and a finer occupied lane come up thousands of times per
// run. Every such tie must merge before dispatch: the clock never steps
// back, and dispatch is exactly (time, schedule order).
TEST(TimerWheelProperty, NearFollowUpsOfFarEventsDispatchInOrder) {
  struct Fired {
    std::int64_t timeNs;
    std::uint64_t order;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim;
    std::uint64_t lcg = seed * 2654435761u + 1;
    auto rnd = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return lcg >> 33;
    };
    std::uint64_t scheduled = 0;  // schedule order == the kernel's seq order
    std::vector<Fired> fired;
    auto record = [&](std::uint64_t order) {
      fired.push_back(Fired{(sim.now() - TimePoint::epoch()).toNanos(), order});
    };
    constexpr int kFar = 20'000;
    for (int i = 0; i < kFar; ++i) {
      const std::uint64_t order = ++scheduled;
      const auto t = static_cast<std::int64_t>(rnd() % 500'000'000);
      sim.schedule(at(t), [&, order] {
        record(order);
        const std::uint64_t next = ++scheduled;
        const auto d = static_cast<std::int64_t>(rnd() % 3'000);
        sim.scheduleAfter(Duration::nanos(d), [&, next] { record(next); });
      });
    }
    sim.run();
    ASSERT_EQ(fired.size(), 2u * kFar) << "seed " << seed;
    for (std::size_t i = 1; i < fired.size(); ++i) {
      const Fired& a = fired[i - 1];
      const Fired& b = fired[i];
      ASSERT_LE(a.timeNs, b.timeNs)
          << "seed " << seed << ": clock stepped back at dispatch " << i;
      ASSERT_TRUE(a.timeNs < b.timeNs || a.order < b.order)
          << "seed " << seed << ": same-time FIFO broken at dispatch " << i;
    }
  }
}

// Identical seeds must produce identical audit fingerprints when run whole
// versus chunked — the wheel cursor is bookkeeping, not observable state.
TEST(TimerWheelProperty, AuditDigestInvariantUnderChunking) {
  auto digestOf = [](bool chunked) {
    PropertyHarness h{42, /*extra=*/150};
    h.sim.enableAudit();
    for (int i = 0; i < 250; ++i) h.scheduleOne();
    for (int i = 0; i < 50; ++i) h.cancelRandom();
    if (chunked) {
      for (std::int64_t limitNs = 500'000; !h.sim.idle();
           limitNs += 3'300'000) {
        h.sim.run(at(limitNs));
      }
    } else {
      h.sim.run();
    }
    return h.sim.auditDigest();
  };
  EXPECT_EQ(digestOf(false), digestOf(true));
}

}  // namespace
}  // namespace msim
