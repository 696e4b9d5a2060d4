// The src/cluster subsystem: gateway placement, the shard capacity model,
// live room migration and cluster determinism.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "avatar/codec.hpp"
#include "cluster/manager.hpp"
#include "cluster/partitioned.hpp"
#include "core/experiments.hpp"
#include "core/seedsweep.hpp"

namespace msim::cluster {
namespace {

Message poseMsg(std::uint64_t sender, std::uint64_t seq) {
  Message m;
  m.kind = avatarmsg::kPoseUpdate;
  m.size = ByteSize::bytes(220);
  m.senderId = sender;
  m.sequence = seq;
  return m;
}

DataSpec detachedSpec() {
  DataSpec spec;  // defaults: no filter, no LoD, no user cap
  spec.provisioningFactor = 1.0;
  return spec;
}

// --------------------------------------------------------------- gateway

TEST(GatewayTest, FillToCapacityPacksLowestShardFirst) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.policy = PlacementPolicy::FillToCapacity;
  cfg.capacity.softUserCap = 4;
  InstanceManager mgr{sim, detachedSpec(), cfg};

  for (std::uint64_t u = 1; u <= 10; ++u) {
    ASSERT_NE(mgr.joinUser(u, regions::usEast()), nullptr);
  }
  EXPECT_EQ(mgr.instance(0)->userCount(), 4u);
  EXPECT_EQ(mgr.instance(1)->userCount(), 4u);
  EXPECT_EQ(mgr.instance(2)->userCount(), 2u);
}

TEST(GatewayTest, LeastLoadedBalancesEvenly) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 4;
  cfg.policy = PlacementPolicy::LeastLoaded;
  InstanceManager mgr{sim, detachedSpec(), cfg};

  for (std::uint64_t u = 1; u <= 20; ++u) {
    ASSERT_NE(mgr.joinUser(u, regions::usEast()), nullptr);
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mgr.instance(i)->userCount(), 5u) << "shard " << i;
  }
  EXPECT_EQ(mgr.stats().placementsTotal, 20u);
}

TEST(GatewayTest, PlacementIsSticky) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.policy = PlacementPolicy::LeastLoaded;
  InstanceManager mgr{sim, detachedSpec(), cfg};

  RelayInstance* first = mgr.joinUser(7, regions::usEast());
  ASSERT_NE(first, nullptr);
  // Load the other shards; the user's resolution must not move.
  for (std::uint64_t u = 100; u < 110; ++u) mgr.joinUser(u, regions::usEast());
  EXPECT_EQ(mgr.gateway().place(7, regions::usEast()), first);
  EXPECT_EQ(mgr.instanceOf(7), first);
}

TEST(GatewayTest, RegionAffinityPrefersUserRegionThenSpillsOver) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 2;
  cfg.policy = PlacementPolicy::RegionAffinity;
  cfg.capacity.softUserCap = 2;
  cfg.regions = {regions::usEast(), regions::europe()};
  InstanceManager mgr{sim, detachedSpec(), cfg};

  // Shard 1 serves europe; European users land there first.
  RelayInstance* a = mgr.joinUser(1, regions::europe());
  RelayInstance* b = mgr.joinUser(2, regions::europe());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->id(), 1u);
  EXPECT_EQ(b->id(), 1u);
  // Europe is at its soft cap; the third European spills to us-east.
  RelayInstance* c = mgr.joinUser(3, regions::europe());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->id(), 0u);
  // Cluster full -> nullptr.
  mgr.joinUser(4, regions::usEast());
  EXPECT_EQ(mgr.joinUser(5, regions::usEast()), nullptr);
}

TEST(GatewayTest, SpunUpInstanceActivatesAfterDelay) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 1;
  cfg.capacity.softUserCap = 1;
  cfg.spinUpDelay = Duration::seconds(2);
  InstanceManager mgr{sim, detachedSpec(), cfg};

  ASSERT_NE(mgr.joinUser(1, regions::usEast()), nullptr);
  RelayInstance& fresh = mgr.spinUp(regions::usEast());
  EXPECT_EQ(fresh.state(), InstanceState::Starting);
  // Not yet bootable: the cluster is full while the new shard boots.
  EXPECT_EQ(mgr.joinUser(2, regions::usEast()), nullptr);
  sim.runFor(Duration::seconds(3));
  EXPECT_EQ(fresh.state(), InstanceState::Active);
  RelayInstance* placed = mgr.joinUser(3, regions::usEast());
  ASSERT_NE(placed, nullptr);
  EXPECT_EQ(placed->id(), fresh.id());
}

// --------------------------------------------------------- capacity model

TEST(CapacityModelTest, IdleShardStaysUninflated) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 1;
  InstanceManager mgr{sim, detachedSpec(), cfg};
  for (std::uint64_t u = 1; u <= 4; ++u) mgr.joinUser(u, regions::usEast());
  sim.runFor(Duration::seconds(5));
  EXPECT_DOUBLE_EQ(mgr.instance(0)->queueInflation(), 1.0);
  EXPECT_LT(mgr.instance(0)->utilization(), 0.01);
}

TEST(CapacityModelTest, SaturationInflatesProcessingDelay) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 1;
  // Tiny budget: 1 core at 1 ms per forward = 1000 forwards/s capacity.
  cfg.capacity.cpuPerForwardUs = 1000.0;
  cfg.capacity.cores = 1.0;
  InstanceManager mgr{sim, detachedSpec(), cfg};
  for (std::uint64_t u = 1; u <= 10; ++u) mgr.joinUser(u, regions::usEast());
  RelayInstance& inst = *mgr.instance(0);
  const double baseFactor = inst.room().provisioningFactor();

  // 10 users at 10 Hz -> 10*10*9 = 900 forwards/s = 90% utilization.
  std::vector<std::unique_ptr<PeriodicTask>> senders;
  for (std::uint64_t u = 1; u <= 10; ++u) {
    std::uint64_t seq = 0;
    senders.push_back(std::make_unique<PeriodicTask>(
        sim, Duration::millis(100), [&inst, u, seq]() mutable {
          inst.room().broadcast(u, poseMsg(u, ++seq));
        }));
  }
  sim.runFor(Duration::seconds(10));

  EXPECT_GT(inst.utilization(), 0.8);
  EXPECT_LT(inst.utilization(), 1.0);
  EXPECT_GT(inst.queueInflation(), 1.2);
  EXPECT_GT(inst.room().provisioningFactor(), baseFactor * 1.2);
  EXPECT_GT(inst.forwardRatePerSec(), 700.0);

  // Load stops; the EWMA decays and the inflation recovers toward 1.
  senders.clear();
  sim.runFor(Duration::seconds(10));
  EXPECT_LT(inst.utilization(), 0.1);
  EXPECT_DOUBLE_EQ(inst.queueInflation(), 1.0);
  EXPECT_DOUBLE_EQ(inst.room().provisioningFactor(), baseFactor);
}

/// Constructing a shard from `spec` must throw std::invalid_argument.
void expectRejected(const ShardCapacitySpec& spec) {
  Simulator sim{1};
  EXPECT_THROW(RelayInstance(sim, 0, regions::usEast(), detachedSpec(), spec),
               std::invalid_argument);
}

TEST(CapacitySpecTest, RejectsNonPositiveCores) {
  ShardCapacitySpec spec;
  spec.cores = 0.0;
  expectRejected(spec);
}

TEST(CapacitySpecTest, RejectsNegativeCpuPerForward) {
  ShardCapacitySpec spec;
  spec.cpuPerForwardUs = -1.0;
  expectRejected(spec);
}

TEST(CapacitySpecTest, RejectsNonPositiveLoadSamplePeriod) {
  ShardCapacitySpec spec;
  spec.loadSampleEvery = Duration::zero();
  expectRejected(spec);
}

TEST(CapacitySpecTest, RejectsEwmaAlphaOutsideUnitInterval) {
  ShardCapacitySpec spec;
  spec.loadEwmaAlpha = 0.0;
  expectRejected(spec);
  spec.loadEwmaAlpha = 1.5;
  expectRejected(spec);
}

TEST(CapacitySpecTest, RejectsKneeOutsideOpenUnitInterval) {
  ShardCapacitySpec spec;
  spec.saturationKnee = 0.0;
  expectRejected(spec);
  spec.saturationKnee = 1.0;
  expectRejected(spec);
}

TEST(CapacitySpecTest, RejectsInflationCeilingBelowOne) {
  ShardCapacitySpec spec;
  spec.maxInflation = 0.5;
  expectRejected(spec);
}

TEST(CapacitySpecTest, RejectsNegativeSoftUserCap) {
  ShardCapacitySpec spec;
  spec.softUserCap = -1;
  expectRejected(spec);
}

TEST(CapacitySpecTest, AcceptsBoundaryValues) {
  ShardCapacitySpec spec;
  spec.cpuPerForwardUs = 0.0;
  spec.loadEwmaAlpha = 1.0;
  spec.maxInflation = 1.0;
  spec.softUserCap = 0;
  Simulator sim{1};
  EXPECT_NO_THROW(
      RelayInstance(sim, 0, regions::usEast(), detachedSpec(), spec));
}

// --------------------------------------------------------------- migration

TEST(MigrationTest, DrainDeliversEveryUpdateExactlyOnceInOrder) {
  Simulator sim{11};
  ClusterConfig cfg;
  cfg.initialInstances = 2;
  cfg.policy = PlacementPolicy::LeastLoaded;
  InstanceManager mgr{sim, detachedSpec(), cfg};

  // LeastLoaded alternates the join order: odd users on shard 0, even on 1.
  for (std::uint64_t u = 1; u <= 8; ++u) {
    ASSERT_NE(mgr.joinUser(u, regions::usEast()), nullptr);
  }
  ASSERT_EQ(mgr.instance(0)->userCount(), 4u);
  ASSERT_EQ(mgr.instance(1)->userCount(), 4u);

  // Per (sender -> receiver) flow: every sequence observed, in order.
  struct Flow {
    std::uint64_t last{0};
    std::uint64_t count{0};
    bool ordered{true};
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Flow> flows;
  mgr.setDeliverySink(
      [&flows](std::uint32_t, std::uint64_t toUser, const Message& m) {
        Flow& f = flows[{m.senderId, toUser}];
        if (m.sequence != f.last + 1) f.ordered = false;
        f.last = m.sequence;
        ++f.count;
      });

  // Everyone broadcasts 40 sequenced updates before the drain and 40 after,
  // every 50 ms; the drain lands while late pre-drain forwards are still in
  // flight on the source shard.
  std::vector<std::uint64_t> seqs(9, 0);
  for (int tick = 0; tick < 80; ++tick) {
    const TimePoint at = TimePoint::epoch() + Duration::millis(50.0 * tick);
    const bool preDrain = tick < 40;
    sim.schedule(at, [&mgr, &seqs, preDrain] {
      for (std::uint64_t u = 1; u <= 8; ++u) {
        if (RelayRoom* room = mgr.roomOf(u)) {
          room->broadcast(u, poseMsg(u, ++seqs[u]));
        }
      }
      (void)preDrain;
    });
  }
  sim.schedule(TimePoint::epoch() + Duration::millis(1975), [&mgr] {
    EXPECT_EQ(mgr.drain(1), 4u);
  });
  // Last broadcast fires at 3.95 s; give the tail forwards time to land.
  sim.runFor(Duration::seconds(6));

  EXPECT_EQ(mgr.instance(1)->state(), InstanceState::Stopped);
  EXPECT_EQ(mgr.instance(0)->userCount(), 8u);
  const ClusterStats stats = mgr.stats();
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.migratedUsers, 4u);
  EXPECT_EQ(stats.drains, 1u);

  // Pairs co-resident the whole run (same shard before the drain): all 80
  // updates, strictly in order, none lost, none duplicated.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    for (std::uint64_t r = 1; r <= 8; ++r) {
      if (s == r || (s % 2) != (r % 2)) continue;
      const Flow& f = flows[{s, r}];
      EXPECT_TRUE(f.ordered) << s << "->" << r;
      EXPECT_EQ(f.count, 80u) << s << "->" << r;
      EXPECT_EQ(f.last, 80u) << s << "->" << r;
    }
  }
  // Cross-shard pairs meet at the drain: exactly the 40 post-drain updates.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    for (std::uint64_t r = 1; r <= 8; ++r) {
      if (s == r || (s % 2) == (r % 2)) continue;
      const Flow& f = flows[{s, r}];
      EXPECT_EQ(f.count, 40u) << s << "->" << r;
      EXPECT_EQ(f.last, 80u) << s << "->" << r;
      EXPECT_TRUE(f.count == 0 || f.last - f.count == 40u) << s << "->" << r;
    }
  }
}

TEST(MigrationTest, DrainWithoutTargetKeepsServing) {
  Simulator sim{3};
  ClusterConfig cfg;
  cfg.initialInstances = 1;
  InstanceManager mgr{sim, detachedSpec(), cfg};
  for (std::uint64_t u = 1; u <= 3; ++u) mgr.joinUser(u, regions::usEast());
  EXPECT_EQ(mgr.drain(0), 0u);
  EXPECT_EQ(mgr.instance(0)->state(), InstanceState::Draining);
  EXPECT_EQ(mgr.instance(0)->userCount(), 3u);
  // The draining shard still forwards for its residents.
  mgr.roomOf(1)->broadcast(1, poseMsg(1, 1));
  sim.runFor(Duration::seconds(1));
  EXPECT_EQ(mgr.instance(0)->deliveredMessages(), 2u);
}

TEST(MigrationTest, BothRuntimesLeaveTheSameTargetRoom) {
  // One posed population, drained once on each cluster runtime in a
  // migration-only regime (no pacing tick inside the window). Both run the
  // same RelayInstance::evacuate/adopt step, so the target room must come
  // out identical record by record.
  PartitionedClusterConfig pcfg;
  pcfg.seed = 31;
  pcfg.users = 24;
  pcfg.shards = 4;
  pcfg.threads = 1;
  pcfg.updateRateHz = 0.01;  // first pacing tick far beyond the window
  pcfg.latticeSpacingM = 2.0;
  pcfg.dataSpec.interestGrid = true;
  PartitionedCluster pdes{pcfg};

  // The single-sim fleet gets the same members, shard by shard, posed
  // where the partitioned constructor put them.
  Simulator sim{31};
  ClusterConfig cfg;
  cfg.initialInstances = pcfg.shards;
  InstanceManager mgr{sim, pcfg.dataSpec, cfg};
  for (std::uint64_t id = 1; id <= 24; ++id) {
    const auto shard = static_cast<std::uint32_t>((id - 1) % 4);
    RelayInstance* inst = mgr.joinUser(id, regions::usEast());
    ASSERT_NE(inst, nullptr);
    ASSERT_EQ(inst->id(), shard) << "user " << id;
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (const RelayUserRecord& rec : pdes.shardRoom(s).exportSnapshot().users) {
      ASSERT_TRUE(rec.poseKnown);
      mgr.instance(s)->room().updatePose(rec.id, rec.pose);
    }
  }

  // Drain shard 3 on both runtimes; every shard holds 6 users, so both
  // control planes pick shard 0 (least loaded, lowest id).
  const TimePoint drainAt = TimePoint::epoch() + Duration::millis(200);
  pdes.scheduleDrain(3, drainAt);
  const PartitionedClusterStats stats =
      pdes.run(Duration::millis(400), Duration::seconds(1));
  ASSERT_EQ(stats.migrations, 1u);
  ASSERT_EQ(stats.migratedUsers, 6u);
  std::size_t moved = 0;
  sim.schedule(drainAt, [&] { moved = mgr.drain(3); });
  sim.runFor(Duration::millis(400));
  ASSERT_EQ(moved, 6u);
  EXPECT_EQ(mgr.instance(3)->state(), InstanceState::Stopped);
  EXPECT_EQ(mgr.instance(3)->userCount(), 0u);
  EXPECT_EQ(pdes.shardRoom(3).userCount(), 0u);

  const RelayRoomSnapshot want = pdes.shardRoom(0).exportSnapshot();
  const RelayRoomSnapshot got = mgr.instance(0)->room().exportSnapshot();
  ASSERT_EQ(got.users.size(), 12u);
  ASSERT_EQ(got.users.size(), want.users.size());
  for (std::size_t i = 0; i < want.users.size(); ++i) {
    const RelayUserRecord& a = got.users[i];
    const RelayUserRecord& b = want.users[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.pose.x, b.pose.x) << a.id;
    EXPECT_EQ(a.pose.y, b.pose.y) << a.id;
    EXPECT_EQ(a.pose.yawDeg, b.pose.yawDeg) << a.id;
    EXPECT_EQ(a.poseKnown, b.poseKnown) << a.id;
    EXPECT_EQ(a.prevPose.x, b.prevPose.x) << a.id;
    EXPECT_EQ(a.prevPose.y, b.prevPose.y) << a.id;
    EXPECT_EQ(a.prevPose.yawDeg, b.prevPose.yawDeg) << a.id;
    EXPECT_EQ(a.poseAt, b.poseAt) << a.id;
    EXPECT_EQ(a.prevPoseAt, b.prevPoseAt) << a.id;
    EXPECT_EQ(a.lastActivity, b.lastActivity) << a.id;
    EXPECT_EQ(a.poseSeq, b.poseSeq) << a.id;
    EXPECT_EQ(a.flowNextSame, b.flowNextSame) << a.id;
    EXPECT_EQ(a.flowNextCross, b.flowNextCross) << a.id;
  }
}

// ------------------------------------------------------------- determinism

struct ClusterDigest {
  std::uint64_t hash{0};
  bool operator==(const ClusterDigest& o) const { return hash == o.hash; }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

ClusterDigest runClusterScenario(std::uint64_t seed) {
  Simulator sim{seed};
  ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.policy = PlacementPolicy::LeastLoaded;
  cfg.capacity.cpuPerForwardUs = 200.0;
  cfg.capacity.cores = 1.0;
  InstanceManager mgr{sim, detachedSpec(), cfg};

  std::uint64_t deliveryHash = 0;
  mgr.setDeliverySink([&deliveryHash](std::uint32_t inst, std::uint64_t toUser,
                                      const Message& m) {
    deliveryHash = mix(deliveryHash, inst);
    deliveryHash = mix(deliveryHash, toUser);
    deliveryHash = mix(deliveryHash, m.sequence);
  });

  const int users = 12;
  for (std::uint64_t u = 1; u <= users; ++u) mgr.joinUser(u, regions::usEast());
  std::vector<std::uint64_t> seqs(users + 1, 0);
  std::vector<std::unique_ptr<PeriodicTask>> senders;
  for (std::uint64_t u = 1; u <= users; ++u) {
    senders.push_back(std::make_unique<PeriodicTask>(
        sim, Duration::millis(100), [&mgr, &seqs, u] {
          if (RelayRoom* room = mgr.roomOf(u)) {
            room->broadcast(u, poseMsg(u, ++seqs[u]));
          }
        }));
  }
  sim.schedule(TimePoint::epoch() + Duration::seconds(3),
               [&mgr] { mgr.drain(2); });
  sim.runFor(Duration::seconds(6));
  senders.clear();
  sim.runFor(Duration::seconds(1));

  ClusterDigest d;
  d.hash = mix(d.hash, deliveryHash);
  const ClusterStats stats = mgr.stats();
  d.hash = mix(d.hash, stats.placementsTotal);
  d.hash = mix(d.hash, stats.migrations);
  d.hash = mix(d.hash, stats.migratedUsers);
  d.hash = mix(d.hash, stats.totalUsers);
  for (const auto& row : stats.shards) {
    d.hash = mix(d.hash, row.users);
    d.hash = mix(d.hash, row.forwards);
    d.hash = mix(d.hash, row.deliveredMsgs);
    d.hash = mix(d.hash, static_cast<std::uint64_t>(row.deliveredBytes.toBytes()));
    d.hash = mix(d.hash, static_cast<std::uint64_t>(row.utilization * 1e9));
  }
  d.hash = mix(d.hash, sim.executedEvents());
  return d;
}

TEST(ClusterDeterminismTest, SeedSweepBitIdenticalForAnyThreadCount) {
  const auto seeds = defaultSeeds(6);
  const auto serial = runSeedSweep(
      seeds, [](std::uint64_t s) { return runClusterScenario(s); }, 1);
  const auto parallel = runSeedSweep(
      seeds, [](std::uint64_t s) { return runClusterScenario(s); }, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "seed index " << i;
  }
  // Different seeds genuinely differ (the digest is not degenerate).
  EXPECT_NE(serial[0], serial[1]);
}

}  // namespace
}  // namespace msim::cluster
