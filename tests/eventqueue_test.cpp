// Coverage for the Simulator event queue: dispatch order across near and
// far events, refills under run(limit) slices, scheduling into the instant
// being dispatched, and the introspection counters. The behavioural
// contract under test is single: dispatch order is exactly (time, schedule
// order), and the clock never steps back. The suite names predate the
// radix heap and are kept so test ids stay stable.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace msim {
namespace {

TimePoint at(std::int64_t ns) { return TimePoint::epoch() + Duration::nanos(ns); }

// ---- golden refill-heavy trace ---------------------------------------------
//
// Events spread from 0 to 200ms, so they start in buckets from the lowest to
// bit 28 and most are re-filed several times on the way to dispatch, with
// exact-tie pairs near and far. The expected order is written out
// explicitly; if a refill ever reordered entries, this is the test that
// names the victim.
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
  sim.schedule(at(200'000'000), ev("i"));  // far
  sim.schedule(at(300'000), ev("e"));
  sim.schedule(at(500), ev("b"));          // near
  sim.schedule(at(5'000'000), ev("g"));
  sim.schedule(at(100'000), ev("d"));
  sim.schedule(at(200'001'000), ev("j"));  // far, distinct time
  sim.schedule(at(500), ev("c"));          // exact tie with b, scheduled later
  sim.schedule(at(5'030'000), ev("h"));    // same bucket as g
  sim.schedule(at(0), ev("a"));            // immediate
  sim.schedule(at(200'000'000), ev("k"));  // far, exact tie with i
  sim.schedule(at(304'000), ev("f"));      // same bucket as e

  EXPECT_EQ(sim.queuedEvents(), 11u);

  EXPECT_EQ(sim.run(), 11u);

  const std::vector<std::string> expected{"a", "b", "c", "d", "e", "f",
                                          "g", "h", "i", "k", "j"};
  EXPECT_EQ(fired, expected);
  const std::vector<std::int64_t> expectedAt{
      0,         500,       500,       100'000,     300'000,    304'000,
      5'000'000, 5'030'000, 200'000'000, 200'000'000, 200'001'000};
  EXPECT_EQ(firedAt, expectedAt);
  EXPECT_TRUE(sim.idle());
  EXPECT_GT(sim.cascades(), 0u);  // every refill re-files live entries
}

// The same scenario chopped into run(limit) windows must dispatch the same
// sequence: stopping a refill at a limit and resuming later may not
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
  // Limits chosen to split a bucket (302µs cuts between e and f, which
  // share one) and to land exactly on an event time (5.03ms, inclusive
  // bound).
  for (const std::int64_t limitNs :
       {1'000LL, 150'000LL, 302'000LL, 5'030'000LL, 199'999'999LL}) {
    total += chunked.run(at(limitNs));
    EXPECT_EQ(chunked.now(), at(limitNs));
  }
  total += chunked.run();
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(chunkedFired, wholeFired);
}

// Scheduling after a limited run stopped between two close events must
// interleave by time with the entry still pending.
TEST(TimerWheel, ScheduleIntoDrainingLaneKeepsTimeOrder) {
  Simulator sim;
  std::vector<std::string> fired;
  auto ev = [&fired](const char* tag) {
    return [&fired, tag] { fired.push_back(tag); };
  };
  sim.schedule(at(2100), ev("e1"));
  sim.schedule(at(2900), ev("e2"));
  EXPECT_EQ(sim.run(at(2500)), 1u);  // e1 fired, e2 still pending
  EXPECT_EQ(sim.now(), at(2500));
  sim.schedule(at(2600), ev("e3"));  // lands between the limit and e2
  sim.schedule(at(2900), ev("e4"));  // exact tie with pending e2: files after
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, (std::vector<std::string>{"e1", "e3", "e2", "e4"}));
}

// A callback scheduling a near-now event lands it between the pending
// events and the last refill's time; it must still fire after the
// earlier pending event.
TEST(TimerWheel, MidRunScheduleForcesMergeCascade) {
  Simulator sim;
  std::vector<std::string> fired;
  auto ev = [&fired](const char* tag) {
    return [&fired, tag] { fired.push_back(tag); };
  };
  sim.schedule(at(262'500), ev("late"));
  sim.schedule(at(260'000), [&] {
    fired.push_back("early");
    // Due at 263µs, just after late.
    sim.scheduleAfter(Duration::nanos(3'000), ev("wedge"));
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::string>{"early", "late", "wedge"}));
  EXPECT_GE(sim.cascades(), 1u);
}

TEST(TimerWheel, CountersTrackTiersAndDrainToZero) {
  Simulator sim;
  EXPECT_EQ(sim.cascades(), 0u);

  sim.scheduleAfter(Duration::micros(50), [] {});
  sim.scheduleAfter(Duration::millis(500), [] {});

  const auto cancelled = sim.scheduleAfter(Duration::millis(600), [] {});
  sim.cancel(cancelled);
  // Tombstones stay resident until a refill or dispatch touches them.
  EXPECT_EQ(sim.queuedEvents(), 3u);
  EXPECT_EQ(sim.liveEvents(), 2u);

  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.queuedEvents(), 0u);
  EXPECT_GE(sim.cascades(), 1u);  // the 500ms event was re-filed by a refill
}

// ---- randomized property test against an order oracle ---------------------
//
// Random interleavings of schedule / scheduleAfter / cancel from 0 to
// 530ms ahead (nanoseconds to hundreds of milliseconds), with callbacks that schedule
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
      case 0: return static_cast<std::int64_t>(rnd() % 2'000);
      case 1: return static_cast<std::int64_t>(rnd() % 300'000);
      case 2: return static_cast<std::int64_t>(rnd() % 10'000'000);
      case 3: return static_cast<std::int64_t>(rnd() % 130'000'000);
      default:
        return 130'000'000 + static_cast<std::int64_t>(rnd() % 400'000'000);
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
    h.sim.run();
    ASSERT_TRUE(h.sim.idle()) << "seed " << seed;
    EXPECT_EQ(h.fired, h.expected()) << "seed " << seed;
  }
}

// The same property driven through run(limit) slices: chunked execution is
// the common mode for platform sims (one tick at a time) and exercises
// refills stopped at the limit plus schedules after a stopped run.
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
// land in low buckets just ahead of the clock while far entries keep being
// re-filed around them. The clock never steps back, and dispatch is exactly
// (time, schedule order).
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
    std::uint64_t scheduled = 0;  // schedule order
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

// Trees of follow-ups over a mix of delay scales, from the nanoseconds of a
// back-to-back packet to the hundreds of milliseconds of a session timer:
// 200 seeded events, each fired event scheduling 0-2 more, up to 20,000
// events. Run whole and in run(limit) slices; (time, schedule order) must
// never decrease across the whole dispatch sequence.
struct FollowUpTree {
  struct Fired {
    std::int64_t timeNs;
    std::uint64_t order;
  };
  static constexpr int kSeeded = 200;
  static constexpr std::uint64_t kMaxEvents = 20'000;

  Simulator sim;
  std::uint64_t lcg;
  std::uint64_t scheduled{0};  // schedule order
  std::vector<Fired> fired;

  explicit FollowUpTree(std::uint64_t seed) : lcg{seed * 2654435761u + 1} {}

  std::uint64_t rnd() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  }

  std::int64_t pickDelay() {
    const auto r = [this](std::int64_t n) {
      return static_cast<std::int64_t>(rnd() % static_cast<std::uint64_t>(n));
    };
    switch (rnd() % 6) {
      case 0: return r(2'000);
      case 1: return r(3'000);
      case 2: return r(60'000);
      case 3: return 500'000 + r(2'000'000);
      case 4: return r(20'000'000);
      default: return r(200'000'000);
    }
  }

  void scheduleAfter(std::int64_t delayNs) {
    if (scheduled == kMaxEvents) return;
    const std::uint64_t order = ++scheduled;
    sim.scheduleAfter(Duration::nanos(delayNs), [this, order] {
      fired.push_back(Fired{(sim.now() - TimePoint::epoch()).toNanos(), order});
      for (std::uint64_t n = rnd() % 3; n > 0; --n) scheduleAfter(pickDelay());
    });
  }

  void seed() {
    for (int i = 0; i < kSeeded; ++i) scheduleAfter(pickDelay());
  }
};

TEST(EventQueueProperty, FollowUpTreesNeverStepBack) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const bool sliced : {false, true}) {
      FollowUpTree tree{seed};
      tree.seed();
      if (sliced) {
        for (std::int64_t limitNs = 250'000; !tree.sim.idle();
             limitNs += 730'000) {
          tree.sim.run(at(limitNs));
        }
      } else {
        tree.sim.run();
      }
      ASSERT_EQ(tree.fired.size(), tree.scheduled) << "seed " << seed;
      for (std::size_t i = 1; i < tree.fired.size(); ++i) {
        const FollowUpTree::Fired& a = tree.fired[i - 1];
        const FollowUpTree::Fired& b = tree.fired[i];
        ASSERT_TRUE(a.timeNs < b.timeNs ||
                    (a.timeNs == b.timeNs && a.order < b.order))
            << "seed " << seed << (sliced ? " sliced" : " whole")
            << ": (time, order) went from (" << a.timeNs << ", " << a.order
            << ") to (" << b.timeNs << ", " << b.order << ") at dispatch "
            << i;
      }
    }
  }
}

// Identical seeds must produce identical audit fingerprints when run whole
// versus chunked — where a refill stops is bookkeeping, not observable
// state.
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
