// The spatial interest layer and the SoA relay hot path (DESIGN.md §12):
// grid membership and deterministic candidate ordering, distance-banded LoD
// decimation, radius culling, the angular (viewport) predicate expressed as
// an interest configuration, rate-state migration across rooms, and audit
// digests that stay byte-identical for any MSIM_THREADS when an
// interest-enabled cluster runs a drain mid-sweep.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "audit/sweep.hpp"
#include "avatar/codec.hpp"
#include "cluster/manager.hpp"
#include "core/seedsweep.hpp"
#include "interest/grid.hpp"
#include "interest/lod.hpp"
#include "platform/relay.hpp"

namespace msim {
namespace {

using audit::RunFingerprint;

// ------------------------------------------------------------ InterestGrid

TEST(InterestGridTest, InsertMoveRemoveTrackMembership) {
  interest::InterestGrid grid{8.0};
  EXPECT_EQ(grid.size(), 0u);
  grid.insert(3, 1003, 1.0, 1.0);
  grid.insert(7, 1007, 100.0, -50.0);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_TRUE(grid.contains(3));
  EXPECT_TRUE(grid.contains(7));
  EXPECT_FALSE(grid.contains(4));

  // Same-cell move: no boundary crossed.
  EXPECT_FALSE(grid.move(3, 1003, 2.0, 2.0));
  // Cross-cell move.
  EXPECT_TRUE(grid.move(3, 1003, 30.0, 30.0));
  EXPECT_EQ(grid.size(), 2u);

  grid.remove(3);
  EXPECT_FALSE(grid.contains(3));
  EXPECT_EQ(grid.size(), 1u);
  grid.remove(3);  // idempotent
  EXPECT_EQ(grid.size(), 1u);
}

TEST(InterestGridTest, CandidatesVisitCellsInRowColumnSlotOrder) {
  interest::InterestGrid grid{10.0};
  // Cell (0,0): slots 5 and 2; cell (1,0): slot 9; cell (0,1): slot 1.
  grid.insert(5, 1005, 1.0, 1.0);
  grid.insert(2, 1002, 3.0, 2.0);
  grid.insert(9, 1009, 12.0, 1.0);
  grid.insert(1, 1001, 2.0, 12.0);
  std::vector<std::uint32_t> seen;
  std::vector<std::uint64_t> seenIds;
  const std::size_t visited = grid.forEachCandidate(
      5.0, 5.0, 10.0, [&](std::uint32_t s, std::uint64_t id, double, double) {
        seen.push_back(s);
        seenIds.push_back(id);
      });
  EXPECT_EQ(visited, seen.size());
  // Rows (qy) outer, columns (qx) inner, slots ascending within a cell —
  // a pure function of quantized positions and slot numbers.
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{2, 5, 9, 1}));
  // The co-located payload rides along with each slot.
  EXPECT_EQ(seenIds, (std::vector<std::uint64_t>{1002, 1005, 1009, 1001}));
}

TEST(InterestGridTest, QueryOnlyTouchesOverlappingCells) {
  interest::InterestGrid grid{8.0};
  grid.insert(1, 1, 0.0, 0.0);
  grid.insert(2, 2, 100.0, 0.0);
  grid.insert(3, 3, 0.0, 100.0);
  std::vector<std::uint32_t> seen;
  grid.forEachCandidate(
      0.0, 0.0, 10.0,
      [&](std::uint32_t s, std::uint64_t, double, double) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1}));
}

TEST(InterestGridTest, EmptiedCellsAreRecycled) {
  interest::InterestGrid grid{8.0};
  grid.insert(1, 1, 0.0, 0.0);
  grid.insert(2, 2, 50.0, 50.0);
  EXPECT_EQ(grid.occupiedCells(), 2u);
  grid.remove(2);
  EXPECT_EQ(grid.occupiedCells(), 1u);
  // The freed cell storage is reused for a different coordinate.
  grid.insert(3, 3, -70.0, 20.0);
  EXPECT_EQ(grid.occupiedCells(), 2u);
  std::vector<std::uint32_t> seen;
  grid.forEachCandidate(
      -70.0, 20.0, 4.0,
      [&](std::uint32_t s, std::uint64_t, double, double) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{3}));
}

TEST(InterestGridTest, NegativeCoordinatesQuantizeDistinctly) {
  interest::InterestGrid grid{8.0};
  grid.insert(1, 1, -1.0, -1.0);  // cell (-1,-1)
  grid.insert(2, 2, 1.0, 1.0);    // cell (0,0)
  std::vector<std::uint32_t> seen;
  grid.forEachCandidate(
      -4.0, -4.0, 2.0,
      [&](std::uint32_t s, std::uint64_t, double, double) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1}));
}

// ---------------------------------------------------------- InterestParams

TEST(InterestParamsTest, BandLookupMatchesConfiguredRadii) {
  interest::InterestParams p;
  p.clearBands();
  p.addBand(10.0, 1);
  p.addBand(40.0, 2);
  p.addBand(-1.0, 10);
  EXPECT_EQ(p.bands, 3);
  EXPECT_EQ(p.bandFor(5.0 * 5.0), 0);
  EXPECT_EQ(p.bandFor(10.0 * 10.0), 0);  // boundary belongs to the nearer band
  EXPECT_EQ(p.bandFor(10.5 * 10.5), 1);
  EXPECT_EQ(p.bandFor(40.0 * 40.0), 1);
  EXPECT_EQ(p.bandFor(41.0 * 41.0), 2);
  EXPECT_EQ(p.bandFor(1e12), 2);
  EXPECT_EQ(p.keepEvery[2], 10u);
}

TEST(InterestParamsTest, DefaultIsOneOpenFullRateBand) {
  const interest::InterestParams p;
  EXPECT_FALSE(p.anyFilter());
  EXPECT_EQ(p.bandFor(1e18), 0);
  EXPECT_EQ(p.keepEvery[0], 1u);
}

// ------------------------------------------------- RelayRoom interest scan

Message poseMsg(std::uint64_t sender, std::uint64_t seq) {
  Message m;
  m.kind = avatarmsg::kPoseUpdate;
  m.size = ByteSize::bytes(100);
  m.senderId = sender;
  m.sequence = seq;
  return m;
}

DataSpec gridSpec() {
  DataSpec spec;
  spec.interestGrid = true;
  spec.interestCellM = 8.0;
  spec.interestRadiusM = 50.0;
  spec.interestFullRadiusM = 10.0;
  spec.interestHalfRadiusM = 40.0;
  spec.interestFarKeepEvery = 10;
  spec.queueCoefMs = 0.0;
  return spec;
}

/// Records, per receiver id, the sequences delivered to it.
struct DeliveryLog {
  std::vector<std::vector<std::uint64_t>> bySeq =
      std::vector<std::vector<std::uint64_t>>(64);
  std::vector<std::vector<TimePoint>> atTime =
      std::vector<std::vector<TimePoint>>(64);

  void attach(RelayRoom& room) {
    room.hooks().onLocalDeliver = [this, &room](std::uint64_t to,
                                                const Message& m) {
      bySeq[to].push_back(m.sequence);
      atTime[to].push_back(room.sim().now());
    };
  }
};

TEST(RelayInterestTest, ReceiversBeyondRadiusAreCulled) {
  Simulator sim{11};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.joinDetached(3);
  room.joinDetached(4);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{5, 0, 0});    // band 0: full rate
  // In a cell that intersects the 50 m circle (nearest corner ~43.1 m) but
  // itself ~53 m out: visited by the scan, culled by the exact circle test.
  room.updatePose(3, Pose{47.5, 23.5, 0});
  room.updatePose(4, Pose{200, 0, 0});  // far cell: never even visited

  for (std::uint64_t i = 1; i <= 4; ++i) {
    room.broadcast(1, poseMsg(1, i));
  }
  sim.run();

  EXPECT_EQ(log.bySeq[2].size(), 4u);
  EXPECT_TRUE(log.bySeq[3].empty());
  EXPECT_TRUE(log.bySeq[4].empty());
  const RelayInterestStats& stats = room.interestStats();
  EXPECT_EQ(stats.forwardedByTier[0], 4u);
  EXPECT_EQ(stats.culledByRadius, 4u);  // user 3, once per broadcast
  EXPECT_EQ(stats.culledByCell, 4u);    // user 4, once per broadcast
  EXPECT_EQ(room.interestCulledBytes().toBytes(), 8 * 100);
  EXPECT_EQ(room.forwardedBytes().toBytes(), 4 * 100);
}

TEST(RelayInterestTest, DistanceBandsDecimateAtConfiguredRates) {
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 100.0;
  Simulator sim{12};
  RelayRoom room{sim, spec};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.joinDetached(3);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{20, 0, 0});  // half-rate band (10, 40]
  room.updatePose(3, Pose{60, 0, 0});  // trickle band: 1 in 10

  for (std::uint64_t i = 1; i <= 20; ++i) {
    room.broadcast(1, poseMsg(1, i));
  }
  sim.run();

  // Sender-side pose sequence drives every band's cadence: the half-rate
  // receiver sees exactly the even sequences, the trickle receiver every
  // tenth — not merely the right counts.
  EXPECT_EQ(log.bySeq[2],
            (std::vector<std::uint64_t>{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}));
  EXPECT_EQ(log.bySeq[3], (std::vector<std::uint64_t>{10, 20}));
  const RelayInterestStats& stats = room.interestStats();
  EXPECT_EQ(stats.forwardedByTier[1], 10u);
  EXPECT_EQ(stats.forwardedByTier[2], 2u);
  EXPECT_EQ(stats.lodFiltered, 10u + 18u);
}

TEST(RelayInterestTest, UnknownPoseUsersBypassDistanceFilters) {
  Simulator sim{13};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);  // never reports a pose
  room.updatePose(1, Pose{0, 0, 0});

  // A receiver with no known pose cannot be culled or decimated.
  for (std::uint64_t i = 1; i <= 5; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 5u);

  // A sender with no known pose fans out all-to-all.
  for (std::uint64_t i = 1; i <= 3; ++i) room.broadcast(2, poseMsg(2, i));
  sim.run();
  EXPECT_EQ(log.bySeq[1].size(), 3u);
}

TEST(RelayInterestTest, NonPoseTrafficKeepsTheAllToAllPath) {
  Simulator sim{14};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{500, 0, 0});  // far outside the interest radius

  Message m;
  m.kind = relaymsg::kGameState;
  m.size = ByteSize::bytes(80);
  m.senderId = 1;
  m.sequence = 1;
  room.broadcast(1, m);
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 1u);  // game state is not interest-scoped
}

TEST(RelayInterestTest, PerFlowDeliveryStaysInOrder) {
  Simulator sim{15};
  RelayRoom room{sim, gridSpec()};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{3, 0, 0});

  for (std::uint64_t i = 1; i <= 8; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();

  ASSERT_EQ(log.bySeq[2].size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(log.bySeq[2][i], i + 1);
  }
  for (std::size_t i = 1; i < log.atTime[2].size(); ++i) {
    EXPECT_LT(log.atTime[2][i - 1], log.atTime[2][i]);
  }
}

TEST(RelayInterestTest, ViewportFilterIsAnInterestConfiguration) {
  // AltspaceVR's §6.1 wedge re-expressed as the angular predicate of the
  // interest layer: no radius, one open band, 150° width.
  DataSpec spec;
  spec.viewportFilter = true;
  spec.viewportWidthDeg = 150.0;
  spec.queueCoefMs = 0.0;
  Simulator sim{16};
  RelayRoom room{sim, spec};
  EXPECT_TRUE(room.interestParams().angular);
  EXPECT_FALSE(room.interestParams().cull());
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.joinDetached(3);
  room.updatePose(1, Pose{10, 0, 0});
  room.updatePose(2, Pose{0, 0, 0});    // facing +x: sender in view
  room.updatePose(3, Pose{0, 5, 180});  // facing -x: sender behind

  room.broadcast(1, poseMsg(1, 1));
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 1u);
  EXPECT_TRUE(log.bySeq[3].empty());
  EXPECT_EQ(room.interestStats().viewportFiltered, 1u);
  EXPECT_EQ(room.viewportFilteredBytes().toBytes(), 100);
}

// ----------------------------------------------- slots, reuse, membership

TEST(RelaySoATest, SlotsRecycleAndMembershipStaysExact) {
  Simulator sim{17};
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  RelayRoom room{sim, spec};
  DeliveryLog log;
  log.attach(room);
  for (std::uint64_t u = 1; u <= 5; ++u) room.joinDetached(u);
  room.leave(3);
  room.joinDetached(6);  // reuses user 3's slot
  EXPECT_EQ(room.userCount(), 5u);
  EXPECT_EQ(room.userIds(),
            (std::vector<std::uint64_t>{1, 2, 4, 5, 6}));

  room.broadcast(1, poseMsg(1, 1));
  sim.run();
  EXPECT_TRUE(log.bySeq[3].empty());
  for (const std::uint64_t u : {2u, 4u, 5u, 6u}) {
    EXPECT_EQ(log.bySeq[u].size(), 1u) << "user " << u;
  }
}

TEST(RelaySoATest, RejoinKeepsSenderCadenceAndFlowOrder) {
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 100.0;
  Simulator sim{18};
  RelayRoom room{sim, spec};
  DeliveryLog log;
  log.attach(room);
  room.joinDetached(1);
  room.joinDetached(2);
  room.updatePose(1, Pose{0, 0, 0});
  room.updatePose(2, Pose{20, 0, 0});  // half-rate band

  for (std::uint64_t i = 1; i <= 3; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();
  // Reconnect: the user's own pose state resets, but peers keep this
  // sender's decimation cadence — the sequence clock must not rewind.
  room.joinDetached(1);
  room.updatePose(1, Pose{0, 0, 0});
  for (std::uint64_t i = 4; i <= 6; ++i) room.broadcast(1, poseMsg(1, i));
  sim.run();

  EXPECT_EQ(log.bySeq[2], (std::vector<std::uint64_t>{2, 4, 6}));
}

TEST(RelaySoATest, EvictionSweepWorksOverSlotColumns) {
  Simulator sim{19};
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  RelayRoom room{sim, spec};
  for (std::uint64_t u = 1; u <= 3; ++u) room.joinDetached(u);
  room.startEvictionSweep(Duration::seconds(15));
  // Keep user 2 alive; 1 and 3 go silent and are evicted.
  auto keepalive = std::make_unique<PeriodicTask>(
      sim, Duration::seconds(5), [&room] { room.noteActivity(2); });
  sim.runFor(Duration::seconds(30));
  EXPECT_EQ(room.userIds(), (std::vector<std::uint64_t>{2}));
}

// -------------------------------------------------- migration / snapshots

TEST(RelayMigrationTest, SnapshotCarriesRateStateAcrossRooms) {
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 100.0;
  Simulator sim{20};
  RelayRoom a{sim, spec};
  RelayRoom b{sim, spec};
  DeliveryLog log;
  log.attach(a);
  log.attach(b);
  a.joinDetached(1);
  a.joinDetached(2);
  a.updatePose(1, Pose{0, 0, 0});
  a.updatePose(2, Pose{20, 0, 0});  // half-rate band

  for (std::uint64_t i = 1; i <= 3; ++i) a.broadcast(1, poseMsg(1, i));
  sim.run();

  const RelayRoomSnapshot snap = a.exportSnapshot();
  ASSERT_EQ(snap.users.size(), 2u);
  EXPECT_EQ(snap.users[0].poseSeq, 3u);  // id order: user 1 first
  b.importSnapshot(snap);
  for (const RelayUserRecord& u : snap.users) a.leave(u.id);
  EXPECT_EQ(a.userCount(), 0u);
  EXPECT_EQ(b.userCount(), 2u);

  for (std::uint64_t i = 4; i <= 6; ++i) b.broadcast(1, poseMsg(1, i));
  sim.run();

  // The half-rate cadence continues seamlessly across the handoff: even
  // sequences only, no double-delivery, no restart at 1.
  EXPECT_EQ(log.bySeq[2], (std::vector<std::uint64_t>{2, 4, 6}));
}

TEST(RelayMigrationTest, ImportPlacesMigratedPosesOnTheGrid) {
  DataSpec spec = gridSpec();
  Simulator sim{21};
  RelayRoom a{sim, spec};
  RelayRoom b{sim, spec};
  DeliveryLog log;
  log.attach(b);
  a.joinDetached(1);
  a.joinDetached(2);
  a.joinDetached(3);
  a.updatePose(1, Pose{0, 0, 0});
  a.updatePose(2, Pose{5, 0, 0});
  a.updatePose(3, Pose{400, 0, 0});

  b.importSnapshot(a.exportSnapshot());
  // The target room culls immediately: placement survived the handoff.
  b.broadcast(1, poseMsg(1, 1));
  sim.run();
  EXPECT_EQ(log.bySeq[2].size(), 1u);
  EXPECT_TRUE(log.bySeq[3].empty());
  EXPECT_EQ(b.interestStats().culledByCell, 1u);
}

// ------------------------------------- thread-invariant audited sweep

/// An interest-enabled cluster scenario: three instances, grid + viewport
/// culling, deterministic orbiting poses, a mid-run drain migrating a room
/// (with its per-LoD rate state) to another shard. Fingerprinted through
/// the kernel audit hook.
RunFingerprint auditedInterestClusterRun(std::uint64_t seed) {
  Simulator sim{seed};
  sim.enableAudit(/*recordTrail=*/true);
  cluster::ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.capacity.cpuPerForwardUs = 200.0;
  cfg.capacity.cores = 1.0;
  DataSpec spec = gridSpec();
  spec.interestRadiusM = 30.0;
  spec.interestFullRadiusM = 5.0;
  spec.interestHalfRadiusM = 15.0;
  spec.interestFarKeepEvery = 4;
  spec.interestCellM = 4.0;
  spec.viewportFilter = true;
  cluster::InstanceManager mgr{sim, spec, cfg};

  mgr.setDeliverySink([&sim](std::uint32_t inst, std::uint64_t toUser,
                             const Message& m) {
    sim.auditNote((static_cast<std::uint64_t>(inst) << 48) ^ toUser);
    sim.auditNote(m.sequence);
  });

  const int users = 10;
  for (std::uint64_t u = 1; u <= users; ++u) {
    mgr.joinUser(u);
  }
  std::vector<std::uint64_t> seqs(users + 1, 0);
  std::vector<std::uint64_t> ticks(users + 1, 0);
  std::vector<std::unique_ptr<PeriodicTask>> senders;
  for (std::uint64_t u = 1; u <= users; ++u) {
    senders.push_back(std::make_unique<PeriodicTask>(
        sim, Duration::millis(100), [&mgr, &seqs, &ticks, u] {
          if (RelayRoom* room = mgr.roomOf(u)) {
            // Deterministic orbit: users circle at distinct radii, so pairs
            // wander across band boundaries and cells as the run advances.
            const double phase =
                static_cast<double>(ticks[u]++) * 0.05 + static_cast<double>(u);
            const double radius = 2.0 + 2.5 * static_cast<double>(u);
            room->updatePose(u, Pose{radius * std::cos(phase),
                                     radius * std::sin(phase),
                                     std::fmod(phase * 57.0, 360.0)});
            Message m = poseMsg(u, ++seqs[u]);
            m.pose = Message::PoseHint{0, 0, 0};
            room->broadcast(u, m);
          }
        }));
  }
  sim.schedule(TimePoint::epoch() + Duration::seconds(2),
               [&mgr] { mgr.drain(2); });
  sim.runFor(Duration::seconds(4));
  return sim.auditFingerprint();
}

TEST(InterestAuditSweepTest, DigestsIdenticalAcrossThreadCounts) {
  const auto seeds = defaultSeeds(3);
  for (const unsigned threads : {2u, 8u}) {
    const auto report = audit::verifyThreadInvariance(
        seeds, auditedInterestClusterRun, 1, threads);
    EXPECT_TRUE(report.identical) << report.describe();
  }
}

TEST(InterestAuditSweepTest, SweepActuallyExercisesTheInterestScan) {
  const RunFingerprint fp = auditedInterestClusterRun(4242);
  EXPECT_GT(fp.events, 100u);
}

}  // namespace
}  // namespace msim
