// Unit tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "sim/simulator.hpp"

namespace msim {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(TimePoint::epoch() + Duration::millis(30), [&] { order.push_back(3); });
  sim.schedule(TimePoint::epoch() + Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule(TimePoint::epoch() + Duration::millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().toMillis(), 30.0);
}

TEST(SimulatorTest, EqualTimesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  const auto t = TimePoint::epoch() + Duration::millis(5);
  for (int i = 0; i < 10; ++i) {
    sim.schedule(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimePoint firedAt;
  sim.scheduleAfter(Duration::millis(10), [&] {
    sim.scheduleAfter(Duration::millis(5), [&] { firedAt = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(firedAt.toMillis(), 15.0);
}

TEST(SimulatorTest, PastSchedulesClampToNow) {
  Simulator sim;
  sim.scheduleAfter(Duration::millis(10), [&] {
    sim.schedule(TimePoint::epoch(), [] {});  // in the past
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.now().toMillis(), 10.0);
}

TEST(SimulatorTest, NegativeDelayClampsToZero) {
  Simulator sim;
  bool fired = false;
  sim.scheduleAfter(Duration::millis(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().toMillis(), 0.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.scheduleAfter(Duration::millis(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  const auto id = sim.scheduleAfter(Duration::millis(1), [&] { ++count; });
  sim.run();
  sim.cancel(id);  // must not crash or double-fire
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, RunUntilLimitStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.scheduleAfter(Duration::millis(10), [&] { ++fired; });
  sim.scheduleAfter(Duration::millis(100), [&] { ++fired; });
  sim.run(TimePoint::epoch() + Duration::millis(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().toMillis(), 50.0);  // clock advanced to the limit
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.runFor(Duration::seconds(1));
  EXPECT_EQ(sim.now().toSeconds(), 1.0);
  sim.runFor(Duration::seconds(2));
  EXPECT_EQ(sim.now().toSeconds(), 3.0);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.scheduleAfter(Duration::micros(1), recurse);
  };
  sim.scheduleAfter(Duration::micros(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(SimulatorTest, IdleReflectsPendingWork) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  const auto id = sim.scheduleAfter(Duration::millis(1), [] {});
  EXPECT_FALSE(sim.idle());
  sim.cancel(id);
  EXPECT_TRUE(sim.idle());  // cancelled-only queue counts as idle
}

TEST(SimulatorTest, EventIdValidTracksLifetime) {
  Simulator sim;
  EventId never;
  EXPECT_FALSE(never.valid());  // default-constructed id is dead

  const auto id = sim.scheduleAfter(Duration::millis(1), [] {});
  EXPECT_TRUE(id.valid());
  sim.cancel(id);
  EXPECT_FALSE(id.valid());  // exact, not lazy: dead the instant cancel returns
  sim.cancel(id);            // idempotent
  EXPECT_FALSE(id.valid());
}

TEST(SimulatorTest, EventIdInvalidDuringAndAfterFire) {
  Simulator sim;
  EventId id;
  bool validInsideCallback = true;
  id = sim.scheduleAfter(Duration::millis(1),
                         [&] { validInsideCallback = id.valid(); });
  sim.run();
  // A firing event is no longer cancellable; its id must already read dead.
  EXPECT_FALSE(validInsideCallback);
  EXPECT_FALSE(id.valid());
}

TEST(SimulatorTest, SlotReuseDoesNotResurrectOldIds) {
  Simulator sim;
  const auto stale = sim.scheduleAfter(Duration::millis(1), [] {});
  sim.cancel(stale);
  // Force heavy slot recycling; the stale id must stay dead even when its
  // slot is re-acquired with a new generation.
  bool newFired = false;
  std::vector<EventId> fresh;
  for (int i = 0; i < 64; ++i) {
    fresh.push_back(sim.scheduleAfter(Duration::millis(2), [&] { newFired = true; }));
  }
  EXPECT_FALSE(stale.valid());
  sim.cancel(stale);  // must not kill whichever new event reused the slot
  sim.run();
  EXPECT_TRUE(newFired);
  for (const auto& id : fresh) EXPECT_FALSE(id.valid());
}

TEST(SimulatorTest, LiveAndExecutedCounters) {
  Simulator sim;
  EXPECT_EQ(sim.liveEvents(), 0u);
  const auto a = sim.scheduleAfter(Duration::millis(1), [] {});
  sim.scheduleAfter(Duration::millis(2), [] {});
  EXPECT_EQ(sim.liveEvents(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.liveEvents(), 1u);
  sim.run();
  EXPECT_EQ(sim.liveEvents(), 0u);
  EXPECT_EQ(sim.executedEvents(), 1u);  // cancelled events never count
}

TEST(SimulatorTest, NextIdIsPerSimulator) {
  Simulator a;
  Simulator b;
  EXPECT_EQ(a.nextId(), 1u);
  EXPECT_EQ(a.nextId(), 2u);
  EXPECT_EQ(b.nextId(), 1u);  // hermetic: not shared across simulators
}

TEST(SimulatorTest, MoveOnlyCallbacksAreSupported) {
  Simulator sim;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  sim.scheduleAfter(Duration::millis(1),
                    [p = std::move(payload), &seen] { seen = *p; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

TEST(SimulatorTest, RngIsSeeded) {
  Simulator a{42};
  Simulator b{42};
  EXPECT_DOUBLE_EQ(a.rng().uniform(0, 1), b.rng().uniform(0, 1));
  Simulator c{43};
  // Overwhelmingly likely to differ.
  EXPECT_NE(a.rng().uniform(0, 1), c.rng().uniform(0, 1));
}

// -------------------------------------------------------------- PeriodicTask

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Simulator sim;
  std::vector<double> times;
  PeriodicTask task{sim, Duration::millis(10), [&] { times.push_back(sim.now().toMillis()); }};
  sim.runFor(Duration::millis(35));
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  EXPECT_DOUBLE_EQ(times[1], 20.0);
  EXPECT_DOUBLE_EQ(times[2], 30.0);
}

TEST(PeriodicTaskTest, PhaseControlsFirstTick) {
  Simulator sim;
  std::vector<double> times;
  PeriodicTask task{sim, Duration::millis(10), Duration::zero(),
                    [&] { times.push_back(sim.now().toMillis()); }};
  sim.runFor(Duration::millis(25));
  ASSERT_GE(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.0);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
}

TEST(PeriodicTaskTest, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTask task{sim, Duration::millis(10), [&] {
                      if (++count == 3) task.stop();
                    }};
  sim.runFor(Duration::seconds(1));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestructionCancelsCleanly) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task{sim, Duration::millis(10), [&] { ++count; }};
    sim.runFor(Duration::millis(15));
  }
  sim.runFor(Duration::seconds(1));  // must not crash / fire after dtor
  EXPECT_EQ(count, 1);
}

// -------------------------------------------------------------------- Timer

TEST(TimerTest, FiresOnceAtTheLastDeadlineArmed) {
  Simulator sim;
  std::vector<double> times;
  Timer timer{sim, [&] { times.push_back(sim.now().toMillis()); }};
  timer.armAfter(Duration::millis(10));
  timer.armAfter(Duration::millis(30));
  timer.armAfter(Duration::millis(20));
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{20.0}));
  EXPECT_FALSE(timer.armed());
}

TEST(TimerTest, MovingTheDeadlineLaterSchedulesNothing) {
  Simulator sim;
  std::vector<double> times;
  Timer timer{sim, [&] { times.push_back(sim.now().toMillis()); }};
  timer.armAfter(Duration::millis(10));
  for (int i = 2; i <= 50; ++i) timer.armAfter(Duration::millis(10.0 * i));
  EXPECT_EQ(sim.queuedEvents(), 1u);
  // One early fire that re-files at the deadline, then the real one.
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(times, (std::vector<double>{500.0}));
}

TEST(TimerTest, MovingTheDeadlineEarlierReplacesThePendingEvent) {
  Simulator sim;
  std::vector<double> times;
  Timer timer{sim, [&] { times.push_back(sim.now().toMillis()); }};
  timer.armAfter(Duration::millis(50));
  timer.armAfter(Duration::millis(10));
  EXPECT_EQ(sim.liveEvents(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(times, (std::vector<double>{10.0}));
}

TEST(TimerTest, DisarmLeavesANoOpEvent) {
  Simulator sim;
  int fired = 0;
  Timer timer{sim, [&] { ++fired; }};
  timer.armAfter(Duration::millis(10));
  timer.disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(sim.liveEvents(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, CancelDropsThePendingEvent) {
  Simulator sim;
  int fired = 0;
  Timer timer{sim, [&] { ++fired; }};
  timer.armAfter(Duration::millis(10));
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_TRUE(sim.idle());
  timer.armAfter(Duration::millis(20));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().toMillis(), 20.0);
}

TEST(TimerTest, DestructionCancelsThePendingEvent) {
  Simulator sim;
  int fired = 0;
  {
    Timer timer{sim, [&] { ++fired; }};
    timer.armAfter(Duration::millis(10));
  }
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
}

// The reference a Timer must match: cancel and reschedule on every call.
class OracleTimer {
 public:
  OracleTimer(Simulator& sim, UniqueFunction cb) : sim_{sim}, cb_{std::move(cb)} {}
  ~OracleTimer() { sim_.cancel(pending_); }
  OracleTimer(const OracleTimer&) = delete;
  OracleTimer& operator=(const OracleTimer&) = delete;

  void armAt(TimePoint t) {
    sim_.cancel(pending_);
    armed_ = true;
    pending_ = sim_.schedule(t, [this] {
      armed_ = false;
      cb_();
    });
  }
  void disarm() {
    sim_.cancel(pending_);
    armed_ = false;
  }
  void cancel() { disarm(); }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  Simulator& sim_;
  UniqueFunction cb_;
  EventId pending_;
  bool armed_{false};
};

struct TimerFire {
  std::int64_t ns;
  int timer;
  int generation;
  bool operator==(const TimerFire&) const = default;
};

// A seeded random script over a few timers: driver steps at even instants
// arm later or earlier, disarm, cancel, arm in the past, or destroy a timer
// that may have an event pending; callbacks re-arm ahead or in the past, or destroy
// their own timer. Every future deadline is odd and unique, so no two
// callbacks share an instant and the fire log is a total order. With
// `sliceSeed` nonzero the run advances in random run(limit) slices.
template <typename TimerT>
std::vector<TimerFire> runTimerScript(std::uint64_t seed,
                                      std::uint64_t sliceSeed) {
  constexpr int kTimers = 6;
  constexpr int kSteps = 600;
  constexpr std::int64_t kStepNs = 2'000;
  Simulator sim;
  Rng rng{seed};
  std::set<std::int64_t> used;
  std::vector<TimerFire> fires;
  std::array<int, kTimers> generation{};
  std::array<std::unique_ptr<TimerT>, kTimers> timers;
  int rearmsInThePast = 0;

  const auto freshDeadline = [&](std::int64_t lo, std::int64_t hi) {
    for (;;) {
      const std::int64_t t = rng.uniformInt(lo, hi) | 1;
      if (used.insert(t).second) return TimePoint::fromNanos(t);
    }
  };
  std::function<void(int)> make = [&](int i) {
    const int g = ++generation[static_cast<std::size_t>(i)];
    timers[static_cast<std::size_t>(i)] = std::make_unique<TimerT>(sim, [&, i, g] {
      fires.push_back({sim.now().toNanos(), i, g});
      const std::int64_t now = sim.now().toNanos();
      TimerT& self = *timers[static_cast<std::size_t>(i)];
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.25) {
        self.armAt(freshDeadline(now + 1, now + 20 * kStepNs));
      } else if (u < 0.30 && rearmsInThePast < 40) {
        ++rearmsInThePast;
        self.armAt(TimePoint::fromNanos(now - 7));
      } else if (u < 0.35) {
        make(i);  // destroys the running timer
      }
    });
  };
  for (int i = 0; i < kTimers; ++i) make(i);

  for (int k = 1; k <= kSteps; ++k) {
    sim.schedule(TimePoint::fromNanos(k * kStepNs), [&] {
      const int i = static_cast<int>(rng.uniformInt(0, kTimers - 1));
      TimerT& t = *timers[static_cast<std::size_t>(i)];
      const std::int64_t now = sim.now().toNanos();
      switch (rng.uniformInt(0, 5)) {
        case 0:
          t.armAt(freshDeadline(now + 10 * kStepNs, now + 40 * kStepNs));
          break;
        case 1:
          t.armAt(freshDeadline(now + 1, now + 10 * kStepNs));
          break;
        case 2:
          t.disarm();
          break;
        case 4:
          t.cancel();
          break;
        case 3:  // in the past: due now, after this step
          t.armAt(TimePoint::fromNanos(now - rng.uniformInt(0, kStepNs)));
          break;
        default:
          make(i);
          break;
      }
    });
  }

  if (sliceSeed == 0) {
    sim.run();
  } else {
    Rng slices{sliceSeed};
    while (!sim.idle()) {
      sim.run(sim.now() + Duration::nanos(slices.uniformInt(1, 5 * kStepNs)));
    }
  }
  return fires;
}

TEST(TimerProperty, MatchesCancelAndRescheduleOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<TimerFire> oracle = runTimerScript<OracleTimer>(seed, 0);
    ASSERT_GT(oracle.size(), 150u);
    EXPECT_EQ(runTimerScript<OracleTimer>(seed, seed + 100), oracle);
    EXPECT_EQ(runTimerScript<Timer>(seed, 0), oracle);
    EXPECT_EQ(runTimerScript<Timer>(seed, seed + 100), oracle);
  }
}

}  // namespace
}  // namespace msim
