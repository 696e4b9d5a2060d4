// Tests for msim::pdes — conservative parallel simulation of one run — and
// its supporting layers: the process-wide ThreadBudget ledger, the event
// queue's nextEventTimeLowerBound() (the EOT seed), and the partitioned
// cluster workload. The load-bearing property throughout is the PR's
// acceptance criterion: audit digests are byte-identical for ANY worker
// count, including under mid-run migration and adversarially small
// lookahead. These tests run in the TSan CI job with MSIM_THREADS=4, so the
// barrier protocol is exercised with real parallelism and scheduler
// perturbation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/sweep.hpp"
#include "avatar/codec.hpp"
#include "avatar/spec.hpp"
#include "cluster/partitioned.hpp"
#include "core/seedsweep.hpp"
#include "pdes/pdes.hpp"
#include "sim/simulator.hpp"
#include "util/threadbudget.hpp"

namespace {

using namespace msim;

// ---------------------------------------------------------- thread budget

TEST(ThreadBudget, CapacityFloorsAtOne) {
  ThreadBudget budget{0};
  EXPECT_EQ(budget.capacity(), 1u);
  EXPECT_EQ(budget.acquire(4), 0u);  // nothing beyond the calling thread
  EXPECT_EQ(budget.extraInUse(), 0u);
}

TEST(ThreadBudget, GrantsUpToCapacityMinusOne) {
  ThreadBudget budget{4};
  EXPECT_EQ(budget.acquire(10), 3u);
  EXPECT_EQ(budget.extraInUse(), 3u);
  EXPECT_EQ(budget.acquire(1), 0u);  // exhausted, non-blocking
  budget.release(3);
  EXPECT_EQ(budget.extraInUse(), 0u);
}

TEST(ThreadBudget, NestedLeasesShareTheLedger) {
  // The seed-sweep / PDES composition: an outer layer takes some workers,
  // the nested engine gets only what is left, and everything returns on
  // scope exit.
  ThreadBudget budget{4};
  {
    const ThreadBudget::Lease outer{budget, 2};
    EXPECT_EQ(outer.granted(), 2u);
    EXPECT_EQ(outer.workers(), 3u);
    {
      const ThreadBudget::Lease inner{budget, 5};
      EXPECT_EQ(inner.granted(), 1u);  // capacity 4 - main - 2 outer
      EXPECT_EQ(inner.workers(), 2u);
    }
    EXPECT_EQ(budget.extraInUse(), 2u);
  }
  EXPECT_EQ(budget.extraInUse(), 0u);
}

// ------------------------------------------------- event-time lower bound

TEST(PdesLowerBound, EmptyQueueIsMax) {
  Simulator sim{1};
  EXPECT_EQ(sim.nextEventTimeLowerBound(), TimePoint::max());
}

TEST(PdesLowerBound, ExactForPlainSchedules) {
  Simulator sim{1};
  sim.scheduleAfter(Duration::millis(5), [] {});
  sim.scheduleAfter(Duration::micros(40), [] {});
  sim.scheduleAfter(Duration::seconds(2), [] {});
  EXPECT_EQ(sim.nextEventTimeLowerBound(),
            TimePoint::epoch() + Duration::micros(40));

  sim.runFor(Duration::millis(1));  // consumes the 40us event
  EXPECT_EQ(sim.nextEventTimeLowerBound(),
            TimePoint::epoch() + Duration::millis(5));
}

TEST(PdesLowerBound, ConservativeUnderCancellation) {
  // Cancelling the earliest event leaves a tombstone; the bound may then be
  // early (the lane window start) but must never overshoot the true next
  // event — overshooting would let a neighbor execute past a real arrival.
  Simulator sim{1};
  const auto id = sim.scheduleAfter(Duration::micros(100), [] {});
  sim.scheduleAfter(Duration::micros(300), [] {});
  sim.cancel(id);
  const TimePoint lb = sim.nextEventTimeLowerBound();
  EXPECT_LE(lb, TimePoint::epoch() + Duration::micros(300));

  sim.run();
  EXPECT_EQ(sim.nextEventTimeLowerBound(), TimePoint::max());
}

TEST(PdesLowerBound, OverflowOnlyIncludingTombstoneFront) {
  // Both events lie beyond the timer wheel's ~134ms horizon, so the bound
  // comes from the overflow heap alone. Cancelling the earlier one leaves a
  // tombstone at the heap's front, which may hold the bound early but must
  // not push it past the live 300ms event.
  Simulator sim{1};
  const auto early = sim.scheduleAfter(Duration::millis(200), [] {});
  sim.scheduleAfter(Duration::millis(300), [] {});
  ASSERT_EQ(sim.overflowEvents(), 2u);
  EXPECT_EQ(sim.nextEventTimeLowerBound(),
            TimePoint::epoch() + Duration::millis(200));

  sim.cancel(early);
  const TimePoint lb = sim.nextEventTimeLowerBound();
  EXPECT_LE(lb, TimePoint::epoch() + Duration::millis(300));
  EXPECT_GE(lb, sim.now());

  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.nextEventTimeLowerBound(), TimePoint::max());
}

// ----------------------------------------------------------- engine rules

TEST(PdesEngine, SendWithoutLinkThrows) {
  pdes::Engine engine{2, 1};
  EXPECT_THROW(engine.partition(0).send(
                   1, TimePoint::epoch() + Duration::seconds(1), [] {}),
               std::logic_error);
}

TEST(PdesEngine, LookaheadBreachThrows) {
  pdes::Engine engine{2, 1};
  engine.link(0, 1, Duration::millis(10));
  // Arrival 1ms out violates the 10ms promise the engine planned around.
  EXPECT_THROW(engine.partition(0).send(
                   1, TimePoint::epoch() + Duration::millis(1), [] {}),
               std::logic_error);
  // At exactly now + lookahead it is legal.
  engine.partition(0).send(1, TimePoint::epoch() + Duration::millis(10),
                           [] {});
  const pdes::RunReport report = engine.run(TimePoint::epoch() +
                                            Duration::millis(20));
  EXPECT_EQ(report.messagesDelivered, 1u);
}

TEST(PdesEngine, ForEachPartitionVisitsEachOnce) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    for (const std::uint32_t count : {1u, 3u, 65u}) {
      pdes::EngineConfig cfg;
      cfg.threads = workers;
      pdes::Engine engine{count, 1, cfg};
      std::vector<std::atomic<int>> visits(count);
      engine.forEachPartition([&](pdes::Partition& p) {
        visits[p.id()].fetch_add(1, std::memory_order_relaxed);
        // A job owns the partition it is handed, its Simulator included.
        p.sim().schedule(TimePoint::epoch() + Duration::millis(p.id()),
                         [] {});
      });
      for (std::uint32_t i = 0; i < count; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "workers=" << workers << " partitions=" << count << " i=" << i;
        EXPECT_EQ(engine.partition(i).sim().liveEvents(), 1u);
      }
    }
  }

  // Jobs throwing on partitions 2 and 5: the caller gets partition 2's
  // exception, and only after every job has run.
  for (const unsigned workers : {1u, 2u, 8u}) {
    pdes::EngineConfig cfg;
    cfg.threads = workers;
    pdes::Engine engine{9, 1, cfg};
    std::vector<std::atomic<int>> visits(9);
    std::atomic<bool> fiveThrown{false};
    try {
      engine.forEachPartition([&](pdes::Partition& p) {
        visits[p.id()].fetch_add(1, std::memory_order_relaxed);
        if (p.id() == 2 && workers > 1) {
          // With company in the pool, partition 5 throws first: the
          // rethrown exception is chosen by index, not by time.
          while (!fiveThrown.load(std::memory_order_acquire)) {
          }
        }
        if (p.id() == 5) fiveThrown.store(true, std::memory_order_release);
        if (p.id() == 2 || p.id() == 5) {
          throw std::runtime_error("partition " + std::to_string(p.id()));
        }
      });
      ADD_FAILURE() << "no exception, workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "partition 2") << "workers=" << workers;
    }
    // Every partition's job ran before the caller saw the exception.
    for (std::uint32_t i = 0; i < 9; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(PdesEngine, DeliversInCanonicalOrder) {
  // Partitions 1 and 2 both land messages on partition 0 at the SAME
  // instant. Injection order must be (recvTime, src, srcSeq) regardless of
  // which worker ran the senders, so the recorded order is fixed.
  pdes::Engine engine{3, 1};
  engine.link(1, 0, Duration::millis(1));
  engine.link(2, 0, Duration::millis(1));

  auto order = std::make_shared<std::vector<int>>();
  const TimePoint at = TimePoint::epoch() + Duration::millis(5);
  // Sends from src 2 are issued before src 1's, and out of seq order per
  // source; canonical injection re-establishes (src, srcSeq).
  engine.partition(2).send(0, at, [order] { order->push_back(20); });
  engine.partition(2).send(0, at, [order] { order->push_back(21); });
  engine.partition(1).send(0, at, [order] { order->push_back(10); });
  engine.partition(1).send(0, at, [order] { order->push_back(11); });

  engine.run(TimePoint::epoch() + Duration::millis(10));
  ASSERT_EQ(order->size(), 4u);
  EXPECT_EQ(*order, (std::vector<int>{10, 11, 20, 21}));
}

TEST(PdesEngine, PingPongAdvancesBothClocksToLimit) {
  pdes::Engine engine{2, 1};
  engine.link(0, 1, Duration::millis(1));
  engine.link(1, 0, Duration::millis(1));

  // Each hop re-sends from the destination's event context; hops stop once
  // past 10ms. The counter lives on partition 0's side of the protocol and
  // is only ever touched by messages executing there... except the bounce
  // touches it on 1 as well — so count per partition.
  auto hops0 = std::make_shared<int>(0);
  auto hops1 = std::make_shared<int>(0);
  struct Bouncer {
    pdes::Engine& engine;
    std::shared_ptr<int> hops0, hops1;
    void bounce(std::uint32_t self) {
      const std::uint32_t other = 1 - self;
      pdes::Partition& p = engine.partition(self);
      ++(self == 0 ? *hops0 : *hops1);
      const TimePoint next = p.sim().now() + Duration::millis(1);
      if (next > TimePoint::epoch() + Duration::millis(10)) return;
      p.send(other, next, [this, other] { bounce(other); });
    }
  };
  auto bouncer = std::make_shared<Bouncer>(Bouncer{engine, hops0, hops1});
  engine.partition(0).sim().schedule(TimePoint::epoch() + Duration::millis(1),
                                     [bouncer] { bouncer->bounce(0); });

  const TimePoint limit = TimePoint::epoch() + Duration::millis(20);
  engine.run(limit);
  EXPECT_EQ(engine.partition(0).sim().now(), limit);
  EXPECT_EQ(engine.partition(1).sim().now(), limit);
  // Hops at 1..10ms: odd ms on partition 0, even on partition 1.
  EXPECT_EQ(*hops0, 5);
  EXPECT_EQ(*hops1, 5);
}

TEST(PdesEngine, RunIsResumableWithIncreasingLimits) {
  pdes::Engine engine{2, 1};
  engine.link(0, 1, Duration::millis(2));
  auto fired = std::make_shared<int>(0);
  engine.partition(0).send(1, TimePoint::epoch() + Duration::millis(15),
                           [fired] { ++*fired; });

  engine.run(TimePoint::epoch() + Duration::millis(10));
  EXPECT_EQ(*fired, 0);
  engine.run(TimePoint::epoch() + Duration::millis(20));
  EXPECT_EQ(*fired, 1);
}

// ------------------------------------------- determinism across workers

// A synthetic multi-partition workload with RNG-driven local events and
// cross-partition chatter: partition i ticks every ~37us for `horizon`,
// folds random draws into its audit chain, and occasionally messages the
// next partition in the ring.
audit::RunFingerprint ringWorkload(std::uint64_t seed, unsigned threads,
                                   Duration lookahead, Duration horizon) {
  constexpr std::uint32_t kParts = 5;
  pdes::EngineConfig cfg;
  cfg.threads = threads;
  cfg.audit = true;
  pdes::Engine engine{kParts, seed, cfg};
  for (std::uint32_t i = 0; i < kParts; ++i) {
    engine.link(i, (i + 1) % kParts, lookahead);
  }

  struct Ticker {
    pdes::Engine& engine;
    Duration lookahead;
    Duration horizon;
    void tick(std::uint32_t id) {
      pdes::Partition& p = engine.partition(id);
      Simulator& sim = p.sim();
      const std::uint64_t draw =
          static_cast<std::uint64_t>(sim.rng().uniformInt(0, 1 << 20));
      sim.auditNote(draw);
      if (draw % 7 == 0) {
        const std::uint32_t next = (id + 1) % 5;
        p.send(next, sim.now() + lookahead,
               [this, next] { engine.partition(next).sim().auditNote(next); });
      }
      const TimePoint at = sim.now() + Duration::micros(37);
      if (at > TimePoint::epoch() + horizon) return;
      sim.schedule(at, [this, id] { tick(id); });
    }
  };
  auto ticker = std::make_shared<Ticker>(Ticker{engine, lookahead, horizon});
  for (std::uint32_t i = 0; i < kParts; ++i) {
    engine.partition(i).sim().schedule(
        TimePoint::epoch() + Duration::micros(7 * (i + 1)),
        [ticker, i] { ticker->tick(i); });
  }
  engine.run(TimePoint::epoch() + horizon + lookahead);
  return engine.auditFingerprint();
}

TEST(PdesDeterminism, EngineDigestInvariantAcrossWorkerCounts) {
  const auto base =
      ringWorkload(42, 1, Duration::millis(1), Duration::millis(20));
  ASSERT_NE(base.digest, 0u);
  for (unsigned threads : {2u, 4u, 8u}) {
    const auto fp =
        ringWorkload(42, threads, Duration::millis(1), Duration::millis(20));
    EXPECT_EQ(fp.digest, base.digest) << "threads=" << threads;
  }
}

TEST(PdesDeterminism, LowLookaheadStressTerminatesAndMatches) {
  // Lookahead comparable to the local event spacing (40us vs 37us ticks)
  // forces thousands of tiny synchronization windows around a cycle — the
  // regime where a deadlocked or off-by-one protocol would hang or diverge.
  const auto base =
      ringWorkload(7, 1, Duration::micros(40), Duration::millis(4));
  const auto parallel =
      ringWorkload(7, 4, Duration::micros(40), Duration::millis(4));
  EXPECT_EQ(base.digest, parallel.digest);
}

// ------------------------------------------------- send promises

TEST(PdesPromise, SendBeforePromisedFloorThrows) {
  pdes::Engine engine{2, 1};
  engine.link(0, 1, Duration::millis(1));
  engine.partition(0).promiseNoSendBefore(
      1, TimePoint::epoch() + Duration::millis(5));
  // Pre-run now is the epoch, below the promised floor: the send must fail
  // loudly — the receiver's window may already have been scheduled past it.
  EXPECT_THROW(engine.partition(0).send(
                   1, TimePoint::epoch() + Duration::millis(10), [] {}),
               std::logic_error);
  // From an event at/after the floor the link works again.
  auto fired = std::make_shared<int>(0);
  pdes::Engine* ep = &engine;
  engine.partition(0).sim().schedule(
      TimePoint::epoch() + Duration::millis(6), [ep, fired] {
        ep->partition(0).send(1,
                              ep->partition(0).sim().now() + Duration::millis(1),
                              [fired] { ++*fired; });
      });
  engine.run(TimePoint::epoch() + Duration::millis(10));
  EXPECT_EQ(*fired, 1);
}

TEST(PdesPromise, RetrogradeOrUnlinkedPromiseThrows) {
  pdes::Engine engine{3, 1};
  engine.link(0, 1, Duration::millis(1));
  EXPECT_THROW(engine.partition(0).promiseNoSendBefore(
                   2, TimePoint::epoch() + Duration::millis(1)),
               std::logic_error);
  engine.partition(0).promiseNoSendBefore(
      1, TimePoint::epoch() + Duration::millis(10));
  EXPECT_THROW(engine.partition(0).promiseNoSendBefore(
                   1, TimePoint::epoch() + Duration::millis(5)),
               std::logic_error);
  // Monotone: re-promising the same floor or a later one is legal.
  engine.partition(0).promiseNoSendBefore(
      1, TimePoint::epoch() + Duration::millis(10));
  engine.partition(0).promiseNoSendBefore(
      1, TimePoint::epoch() + Duration::millis(12));
  EXPECT_EQ(engine.sendPromise(0, 1),
            TimePoint::epoch() + Duration::millis(12));
}

// ------------------------------------------------- adaptive windows (S4)

// Two partitions with heterogeneous lookaheads and dense local work. Each
// runs promised periodic sends toward the other; between sends every
// channel is provably quiet, so the adaptive engine coalesces what the
// plain EOT fixed point must run one-lookahead-at-a-time. All periods and
// tick spacings are pairwise co-prime and message arrivals are checked (by
// construction) to never collide with a local event instant — exact
// same-time ties are the one case where schedule-seq stamps become
// window-dependent.
struct PromiseWorkloadResult {
  std::uint64_t digest{0};
  pdes::RunReport report;
};

PromiseWorkloadResult promiseWorkload(std::uint64_t seed, unsigned threads,
                                      bool adaptive) {
  pdes::EngineConfig cfg;
  cfg.threads = threads;
  cfg.audit = true;
  cfg.adaptiveWindows = adaptive;
  pdes::Engine engine{2, seed, cfg};
  engine.link(0, 1, Duration::millis(1));
  engine.link(1, 0, Duration::millis(7));

  struct Driver {
    pdes::Engine& engine;
    // Local busy ticks at co-prime microsecond spacings (43us on 0, 37us on
    // 1): RNG draws folded into the audit chain, never a send.
    void micro(std::uint32_t id, std::int64_t spacingUs) {
      Simulator& sim = engine.partition(id).sim();
      sim.auditNote(
          static_cast<std::uint64_t>(sim.rng().uniformInt(0, 1 << 16)));
      const TimePoint at = sim.now() + Duration::micros(spacingUs);
      if (at > TimePoint::epoch() + Duration::millis(30)) return;
      sim.schedule(at, [this, id, spacingUs] { micro(id, spacingUs); });
    }
    // Promised periodic sender: send now (the floor admits this instant),
    // then raise the floor to the next tick before going quiet.
    void sender(std::uint32_t id, std::int64_t periodUs, TimePoint stop) {
      pdes::Partition& p = engine.partition(id);
      const std::uint32_t other = 1 - id;
      pdes::Engine* ep = &engine;
      p.send(other, p.sim().now() + engine.lookahead(id, other),
             [ep, other] {
               ep->partition(other).sim().auditNote(0x9e3779b9ull + other);
             });
      const TimePoint next = p.sim().now() + Duration::micros(periodUs);
      p.promiseNoSendBefore(other, next);
      if (next > stop) return;
      p.sim().schedule(next,
                       [this, id, periodUs, stop] { sender(id, periodUs, stop); });
    }
  };
  auto driver = std::make_shared<Driver>(Driver{engine});
  engine.partition(0).sim().schedule(TimePoint::epoch() + Duration::micros(43),
                                     [driver] { driver->micro(0, 43); });
  engine.partition(1).sim().schedule(TimePoint::epoch() + Duration::micros(37),
                                     [driver] { driver->micro(1, 37); });
  // Sender 0: ticks at 5, 10, ..., 25ms (arrivals on 1 at 6..26ms; none is
  // a multiple of 37us). Sender 1: ticks at 3.5, 6.5, ..., 24.5ms (arrivals
  // on 0 at 10.5..31.5ms; none is a multiple of 43us).
  engine.partition(0).promiseNoSendBefore(
      1, TimePoint::epoch() + Duration::millis(5));
  engine.partition(1).promiseNoSendBefore(
      0, TimePoint::epoch() + Duration::micros(3500));
  engine.partition(0).sim().schedule(
      TimePoint::epoch() + Duration::millis(5), [driver] {
        driver->sender(0, 5000, TimePoint::epoch() + Duration::millis(25));
      });
  engine.partition(1).sim().schedule(
      TimePoint::epoch() + Duration::micros(3500), [driver] {
        driver->sender(1, 3000,
                       TimePoint::epoch() + Duration::micros(24500));
      });

  PromiseWorkloadResult out;
  out.report = engine.run(TimePoint::epoch() + Duration::millis(40));
  out.digest = engine.auditDigest();
  return out;
}

TEST(PdesAdaptive, CoalescingCutsRoundsWithByteIdenticalDigests) {
  const PromiseWorkloadResult coalesced = promiseWorkload(99, 1, true);
  const PromiseWorkloadResult plain = promiseWorkload(99, 1, false);
  ASSERT_NE(coalesced.digest, 0u);

  // Same simulated work, byte-identical digests...
  EXPECT_EQ(coalesced.digest, plain.digest);
  EXPECT_EQ(coalesced.report.eventsExecuted, plain.report.eventsExecuted);
  EXPECT_EQ(coalesced.report.messagesDelivered,
            plain.report.messagesDelivered);
  // ...but provably fewer barrier crossings, and the counter shows the
  // promises (not luck) extended the windows.
  EXPECT_LT(coalesced.report.rounds, plain.report.rounds);
  EXPECT_GT(coalesced.report.coalescedWindows, 0u);
  EXPECT_EQ(plain.report.coalescedWindows, 0u);

  // Idle-fraction telemetry: one entry per partition, each a fraction.
  ASSERT_EQ(coalesced.report.idleFraction.size(), 2u);
  for (const double f : coalesced.report.idleFraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }

  // Both engine variants are thread-invariant.
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(promiseWorkload(99, threads, true).digest, coalesced.digest)
        << "adaptive threads=" << threads;
    EXPECT_EQ(promiseWorkload(99, threads, false).digest, plain.digest)
        << "plain threads=" << threads;
  }
}

// ------------------------------------------------- partitioned cluster

cluster::PartitionedClusterConfig smallClusterConfig(std::uint64_t seed,
                                                     unsigned threads) {
  cluster::PartitionedClusterConfig cfg;
  cfg.seed = seed;
  cfg.users = 90;
  cfg.shards = 6;
  cfg.threads = threads;
  const AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  cfg.updateRateHz = avatar.updateRateHz;
  return cfg;
}

struct ClusterRunResult {
  cluster::PartitionedClusterStats stats;
  audit::RunFingerprint fp;
};

ClusterRunResult runSmallCluster(std::uint64_t seed, unsigned threads) {
  cluster::PartitionedCluster run{smallClusterConfig(seed, threads)};
  // Drain the last shard mid-measurement: migration hops cross partitions
  // while update traffic is live.
  run.scheduleDrain(5, TimePoint::epoch() + Duration::millis(250));
  ClusterRunResult out;
  out.stats = run.run(Duration::millis(500), Duration::seconds(1));
  out.fp = run.fingerprint();
  return out;
}

/// Constructing a cluster from `cfg` must throw std::invalid_argument.
void expectRejected(const cluster::PartitionedClusterConfig& cfg) {
  EXPECT_THROW(cluster::PartitionedCluster{cfg}, std::invalid_argument);
}

TEST(PartitionedConfigTest, RejectsNoShards) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.shards = 0;
  expectRejected(cfg);
}

TEST(PartitionedConfigTest, RejectsNegativeUsers) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.users = -1;
  expectRejected(cfg);
}

TEST(PartitionedConfigTest, RejectsNonPositiveUpdateRate) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.updateRateHz = 0.0;
  expectRejected(cfg);
  cfg.updateRateHz = std::nan("");
  expectRejected(cfg);
}

TEST(PartitionedConfigTest, RejectsNegativeLatticeSpacing) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.latticeSpacingM = -1.0;
  expectRejected(cfg);
}

TEST(PartitionedConfigTest, RejectsNegativeGhostRadius) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.ghostRadiusM = -1.0;
  expectRejected(cfg);
}

TEST(PartitionedConfigTest, RejectsHubTopology) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.directShardLinks = false;
  expectRejected(cfg);
}

TEST(PartitionedConfigTest, AcceptsBoundaryValues) {
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(1, 1);
  cfg.users = 0;
  cfg.shards = 1;
  cfg.latticeSpacingM = 0.0;
  cfg.ghostRadiusM = 0.0;
  EXPECT_NO_THROW(cluster::PartitionedCluster{cfg});
}

TEST(PdesCluster, DigestInvariantAcrossThreadsWithMigration) {
  const ClusterRunResult base = runSmallCluster(1234, 1);
  ASSERT_NE(base.fp.digest, 0u);
  EXPECT_GT(base.stats.broadcasts, 0u);
  EXPECT_EQ(base.stats.expectedDeliveries, base.stats.delivered);
  EXPECT_EQ(base.stats.migrations, 1u);
  EXPECT_GT(base.stats.migratedUsers, 0u);

  for (unsigned threads : {2u, 4u, 8u}) {
    const ClusterRunResult r = runSmallCluster(1234, threads);
    EXPECT_EQ(r.fp.digest, base.fp.digest) << "threads=" << threads;
    EXPECT_EQ(r.stats.delivered, base.stats.delivered)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.migratedUsers, base.stats.migratedUsers)
        << "threads=" << threads;
    EXPECT_EQ(r.stats.engine.rounds, base.stats.engine.rounds)
        << "threads=" << threads;
  }
}

TEST(PdesCluster, VerifyThreadInvarianceComposesWithSeedSweep) {
  // The full PR-3 + PR-6 stack: a seed sweep whose per-seed scenario is
  // itself a parallel PDES run with threads=0, so nested engines lease
  // whatever the sweep left in the process ThreadBudget. The verifier runs
  // the sweep at 1 thread and at the MSIM_THREADS default and demands
  // byte-identical fingerprints per seed.
  const std::vector<std::uint64_t> seeds = defaultSeeds(2);
  const auto report = audit::verifyThreadInvariance(
      seeds,
      [](std::uint64_t seed) {
        cluster::PartitionedCluster run{smallClusterConfig(seed, 0)};
        run.scheduleDrain(2, TimePoint::epoch() + Duration::millis(100));
        (void)run.run(Duration::millis(200), Duration::millis(500));
        return run.fingerprint();
      });
  EXPECT_TRUE(report.identical) << report.describe();
}

// The gateway's LeastLoaded scan as the cluster constructor once ran it:
// each user goes to the accepting shard with the fewest assignments, lowest
// id on ties; a full room refuses the join. Returns each shard's members in
// join order with the lattice cell they took.
std::vector<std::vector<RelayUserRecord>> leastLoadedOracle(
    const cluster::PartitionedClusterConfig& cfg) {
  const auto shards = static_cast<std::size_t>(cfg.shards);
  const int softCap = cfg.capacity.softUserCap;
  const int roomCap = cfg.dataSpec.maxEventUsers;
  const std::size_t perShard =
      (static_cast<std::size_t>(cfg.users) + shards - 1) / shards;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(perShard == 0 ? 1 : perShard))));
  std::vector<std::vector<RelayUserRecord>> rooms(shards);
  std::vector<std::size_t> assigned(shards, 0);
  for (int u = 0; u < cfg.users; ++u) {
    std::size_t best = shards;
    for (std::size_t s = 0; s < shards; ++s) {
      if (softCap > 0 && static_cast<int>(rooms[s].size()) >= softCap) continue;
      if (best == shards || assigned[s] < assigned[best]) best = s;
    }
    if (best == shards) break;  // every shard full
    if (roomCap > 0 && static_cast<int>(rooms[best].size()) >= roomCap) {
      continue;  // the room refuses the join
    }
    ++assigned[best];
    const std::size_t k = rooms[best].size();
    RelayUserRecord r;
    r.id = static_cast<std::uint64_t>(u) + 1;
    r.poseKnown = true;
    r.pose = Pose{cfg.latticeSpacingM * static_cast<double>(k % side),
                  cfg.latticeSpacingM * static_cast<double>(k / side), 0.0};
    rooms[best].push_back(r);
  }
  return rooms;
}

TEST(PdesCluster, CappedPlacementMatchesLeastLoadedScan) {
  struct Case {
    int users;
    int shards;
    int softUserCap;
    int maxEventUsers;
  };
  const Case cases[] = {
      {50, 4, 0, 0},    // uncapped
      {50, 4, 5, 0},    // soft cap cuts users off
      {50, 4, 0, 7},    // room cap cuts users off
      {50, 4, 10, 6},   // maxEventUsers < softUserCap
      {50, 4, 6, 10},   // softUserCap < maxEventUsers
      {50, 4, 13, 13},  // caps that place exactly everyone
      {10, 4, 100, 3},  // caps that bind on only some shards' shares
      {7, 3, 2, 0},     // fewer placements than users and shards
      {0, 3, 4, 0},     // empty planet
  };
  for (const Case& c : cases) {
    cluster::PartitionedClusterConfig cfg = smallClusterConfig(2024, 1);
    cfg.users = c.users;
    cfg.shards = c.shards;
    cfg.capacity.softUserCap = c.softUserCap;
    cfg.dataSpec.maxEventUsers = c.maxEventUsers;
    cfg.dataSpec.interestGrid = true;
    cfg.latticeSpacingM = 2.0;
    const std::vector<std::vector<RelayUserRecord>> oracle =
        leastLoadedOracle(cfg);

    std::uint64_t digest = 0;
    for (const unsigned threads : {1u, 2u, 8u}) {
      cfg.threads = threads;
      cluster::PartitionedCluster run{cfg};
      const std::string where = "users=" + std::to_string(c.users) +
                                " soft=" + std::to_string(c.softUserCap) +
                                " room=" + std::to_string(c.maxEventUsers) +
                                " threads=" + std::to_string(threads);
      for (std::uint32_t s = 0; s < oracle.size(); ++s) {
        std::vector<RelayUserRecord> want = oracle[s];
        std::sort(want.begin(), want.end(),
                  [](const auto& a, const auto& b) { return a.id < b.id; });
        const RelayRoomSnapshot got = run.shardRoom(s).exportSnapshot();
        ASSERT_EQ(got.users.size(), want.size()) << where << " shard=" << s;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got.users[i].id, want[i].id) << where << " shard=" << s;
          EXPECT_TRUE(got.users[i].poseKnown) << where << " shard=" << s;
          EXPECT_EQ(got.users[i].pose.x, want[i].pose.x) << where;
          EXPECT_EQ(got.users[i].pose.y, want[i].pose.y) << where;
          EXPECT_EQ(got.users[i].pose.yawDeg, want[i].pose.yawDeg) << where;
        }
      }
      (void)run.run(Duration::millis(200), Duration::millis(500));
      const std::uint64_t d = run.digest();
      ASSERT_NE(d, 0u) << where;
      if (threads == 1) digest = d;
      EXPECT_EQ(d, digest) << where;
    }
  }
}

TEST(PdesCluster, DirectLinkMigrationTakesTwoHops) {
  // Migration-only regime: the pacing period dwarfs the measurement window,
  // so the engine's message ledger contains exactly the migration step —
  // drain order + snapshot — and the hop count is pinned precisely.
  cluster::PartitionedClusterConfig cfg = smallClusterConfig(777, 1);
  cfg.users = 24;
  cfg.shards = 4;
  cfg.updateRateHz = 0.01;  // first pacing tick far beyond the window
  cluster::PartitionedCluster run{cfg};
  run.scheduleDrain(3, TimePoint::epoch() + Duration::millis(200));
  const cluster::PartitionedClusterStats stats =
      run.run(Duration::millis(400), Duration::seconds(1));
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.migratedUsers, 6u);
  EXPECT_EQ(stats.migrationHops, 2u);
  // Order (control -> source) + snapshot (source -> target): two messages.
  EXPECT_EQ(stats.engine.messagesDelivered, 2u);
}

TEST(PdesCluster, TwoHopMigrationZeroLossUnderTraffic) {
  // The exactly-once regression for the two-hop step: live update traffic
  // during the drain, and the delivery ledger must balance.
  cluster::PartitionedCluster run{smallClusterConfig(4321, 1)};
  run.scheduleDrain(5, TimePoint::epoch() + Duration::millis(250));
  const cluster::PartitionedClusterStats stats =
      run.run(Duration::millis(500), Duration::seconds(1));
  EXPECT_GT(stats.broadcasts, 0u);
  EXPECT_EQ(stats.expectedDeliveries, stats.delivered);
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.migratedUsers, 15u);
  EXPECT_EQ(stats.migrationHops, 2u);
}

TEST(PdesCluster, AdaptiveWindowsMatchUncoalescedDigestAcrossThreads) {
  // The S4 acceptance matrix at cluster scale: {adaptive, plain} x threads
  // {1, 2, 8} — six runs, one digest, and the adaptive runs must cross the
  // barrier strictly fewer times.
  auto runVariant = [](bool adaptive, unsigned threads) {
    cluster::PartitionedClusterConfig cfg = smallClusterConfig(1234, threads);
    cfg.adaptiveWindows = adaptive;
    cluster::PartitionedCluster run{cfg};
    run.scheduleDrain(5, TimePoint::epoch() + Duration::millis(250));
    ClusterRunResult out;
    out.stats = run.run(Duration::millis(500), Duration::seconds(1));
    out.fp = run.fingerprint();
    return out;
  };

  const ClusterRunResult coalesced = runVariant(true, 1);
  const ClusterRunResult plain = runVariant(false, 1);
  ASSERT_NE(coalesced.fp.digest, 0u);
  EXPECT_EQ(coalesced.fp.digest, plain.fp.digest);
  EXPECT_EQ(coalesced.stats.delivered, plain.stats.delivered);
  EXPECT_LT(coalesced.stats.engine.rounds, plain.stats.engine.rounds);
  EXPECT_GT(coalesced.stats.engine.coalescedWindows, 0u);

  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(runVariant(true, threads).fp.digest, coalesced.fp.digest)
        << "adaptive threads=" << threads;
    EXPECT_EQ(runVariant(false, threads).fp.digest, plain.fp.digest)
        << "plain threads=" << threads;
  }
}

TEST(PdesCluster, GhostLedgerBalancesAndIsThreadInvariant) {
  // Interest-scoped forwarding over the direct mesh: lattice-placed users,
  // AOI grid fan-out, and a ghost summary to the ring-next shard every
  // pacing tick. The ghost ledger is exactly-once and the audit digest pins the
  // ghost payloads across worker counts.
  auto runGhosts = [](unsigned threads) {
    cluster::PartitionedClusterConfig cfg = smallClusterConfig(555, threads);
    cfg.users = 60;
    cfg.shards = 3;
    cfg.dataSpec.interestGrid = true;
    cfg.latticeSpacingM = 2.0;
    cfg.interestForwarding = true;
    cfg.ghostRadiusM = 25.0;
    cluster::PartitionedCluster run{cfg};
    ClusterRunResult out;
    out.stats = run.run(Duration::millis(300), Duration::seconds(1));
    out.fp = run.fingerprint();
    return out;
  };

  const ClusterRunResult base = runGhosts(1);
  ASSERT_NE(base.fp.digest, 0u);
  EXPECT_GT(base.stats.ghostsSent, 0u);
  EXPECT_EQ(base.stats.ghostsSent, base.stats.ghostsReceived);
  EXPECT_EQ(base.stats.expectedDeliveries, base.stats.delivered);

  for (unsigned threads : {2u, 8u}) {
    const ClusterRunResult r = runGhosts(threads);
    EXPECT_EQ(r.fp.digest, base.fp.digest) << "threads=" << threads;
    EXPECT_EQ(r.stats.ghostsSent, base.stats.ghostsSent)
        << "threads=" << threads;
  }
}

}  // namespace
