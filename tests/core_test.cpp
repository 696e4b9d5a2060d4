// Tests for the measurement harness: testbed wiring, capture/classification,
// latency probe (including a ground-truth cross-check of the paper's
// screen-recording method), and the disruption driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/experiments.hpp"

namespace msim {
namespace {

// ------------------------------------------------------------------ testbed

TEST(TestbedTest, UsersGetDistinctAddressesAndClocks) {
  Testbed bed{1};
  bed.deploy(platforms::vrchat());
  TestUser& u1 = bed.addUser();
  TestUser& u2 = bed.addUser();
  EXPECT_NE(u1.headsetNode->primaryAddress(), u2.headsetNode->primaryAddress());
  EXPECT_NE(u1.ap->primaryAddress(), u2.ap->primaryAddress());
  // Clocks drift randomly (the §7 method must correct for this).
  EXPECT_NE(u1.headset->trueClockOffset(), u2.headset->trueClockOffset());
}

TEST(TestbedTest, CaptureSeesBothDirections) {
  Testbed bed{2};
  bed.deploy(platforms::vrchat());
  TestUser& u1 = bed.addUser();
  TestUser& u2 = bed.addUser();
  u1.capture->keepRecords();
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(20));
  EXPECT_GT(u1.capture->series(Channel::DataUp).total(), 0.0);
  EXPECT_GT(u1.capture->series(Channel::DataDown).total(), 0.0);
  // U1's AP never sees U2's traffic (separate APs, as in Fig. 1).
  bool foreign = false;
  for (const auto& rec : u1.capture->records()) {
    if (rec.src == u2.headsetNode->primaryAddress() ||
        rec.dst == u2.headsetNode->primaryAddress()) {
      foreign = true;
    }
  }
  EXPECT_FALSE(foreign);
}

TEST(TestbedTest, DownlinkNetemShapesWhatCaptureSees) {
  Testbed bed{3};
  bed.deploy(platforms::worlds());
  TestUser& u1 = bed.addUser();
  TestUser& u2 = bed.addUser();
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(15));
  NetemConfig cap;
  cap.rateLimit = DataRate::kbps(100);
  cap.shaperBuffer = ByteSize::bytes(4000);
  u1.downlinkNetem().configure(cap);
  bed.sim().runFor(Duration::seconds(20));
  const double shaped =
      u1.capture->meanRate(Channel::DataDown, 20, 34).toKbps();
  EXPECT_LT(shaped, 130.0);  // the capture point is downstream of the shaper
  EXPECT_GT(shaped, 50.0);
}

// ------------------------------------------------------------ classification

// Taps observe; they never act. Extra taps on every device of the topology
// (the capture agents' own taps included) must leave the event stream, and
// with it the audit digest, exactly as it is without them. Hubs carries its
// data over TLS/TCP, so queued and ACK-clocked traffic both pass the taps.
// A tap is shown the packet's wire time, never earlier than now(): ingress
// taps fire in the delivery event, or at a cut-through hop (core -> AP ->
// headset) when the packet is accepted upstream, ahead of its arrival.
TEST(CaptureTest, ExtraTapsLeaveTheAuditDigestAlone) {
  struct Outcome {
    std::uint64_t digest{0};
    std::uint64_t events{0};
    std::uint64_t tapped{0};
    std::uint64_t earlyIngress{0};
  };
  auto run = [](bool extraTaps) {
    Outcome out;
    Testbed bed{11};
    bed.sim().enableAudit();
    bed.deploy(platforms::hubs());
    for (int i = 0; i < 3; ++i) bed.addUser();
    if (extraTaps) {
      for (const auto& node : bed.network().nodes()) {
        for (const auto& dev : node->devices()) {
          NetDevice* d = dev.get();
          Simulator* sim = &bed.sim();
          d->addTap([&out, d, sim](const Packet&, TapDir dir) {
            ++out.tapped;
            if (dir == TapDir::Ingress && d->tapTime() > sim->now()) {
              ++out.earlyIngress;
            }
            EXPECT_GE(d->tapTime(), sim->now());
          });
        }
      }
    }
    bed.sim().schedule(TimePoint::epoch(), [&bed] {
      for (auto& u : bed.users()) u->client->launch();
    });
    for (std::size_t i = 0; i < 3; ++i) {
      bed.sim().schedule(TimePoint::epoch() + Duration::seconds(2 + i),
                         [&bed, i] { bed.user(i).client->joinEvent(); });
    }
    bed.sim().runFor(Duration::seconds(12));
    out.digest = bed.sim().auditDigest();
    out.events = bed.sim().executedEvents();
    return out;
  };
  const Outcome plain = run(false);
  const Outcome tapped = run(true);
  EXPECT_GT(tapped.tapped, 10'000u);
  EXPECT_GT(tapped.earlyIngress, 0u);
  EXPECT_EQ(plain.events, tapped.events);
  EXPECT_EQ(plain.digest, tapped.digest);
}

// Taps need not come in wire-time order (a cut-through hop fires its ingress
// taps when the packet is accepted upstream), so an action's first time is
// the earliest wire time among its packets, whatever order they are tapped in.
TEST(CaptureTest, FirstActionTimeIsTheEarliestWireTimeNotTheFirstTapped) {
  Testbed bed{5};
  bed.deploy(platforms::vrchat());
  TestUser& u1 = bed.addUser();
  u1.capture->keepRecords();
  auto msg = std::make_shared<Message>();
  msg->actionId = 42;
  Packet p;
  p.messages.push_back(msg);
  const auto at = [](double ms) { return TimePoint::epoch() + Duration::millis(ms); };
  for (const bool uplink : {false, true}) {
    u1.capture->onPacket(p, uplink, at(9));
    u1.capture->onPacket(p, uplink, at(4));
    u1.capture->onPacket(p, uplink, at(7));
  }
  EXPECT_EQ(u1.capture->firstDownlinkAction(42), at(4));
  EXPECT_EQ(u1.capture->firstUplinkAction(42), at(4));
  // Records are filed in wire-time order too.
  const auto& records = u1.capture->records();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_TRUE(std::is_sorted(records.begin(), records.end(),
                             [](const PacketRecord& a, const PacketRecord& b) {
                               return a.at < b.at;
                             }));
}

TEST(CaptureTest, ChannelsClassifiedByServerAddress) {
  Testbed bed{4};
  bed.deploy(platforms::vrchat());
  TestUser& u1 = bed.addUser();
  TestUser& u2 = bed.addUser();
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
  });
  bed.sim().runFor(Duration::seconds(30));
  // Welcome page: control traffic only.
  EXPECT_GT(u1.capture->series(Channel::ControlDown).total(), 0.0);
  EXPECT_DOUBLE_EQ(u1.capture->series(Channel::DataUp).total(), 0.0);
  bed.sim().schedule(bed.sim().now(), [&] {
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(20));
  EXPECT_GT(u1.capture->series(Channel::DataUp).total(), 0.0);
  EXPECT_DOUBLE_EQ(u1.capture->series(Channel::Other).total(), 0.0);
}

TEST(CaptureTest, ProtoSeriesSeparateTcpFromUdp) {
  Testbed bed{5};
  bed.deploy(platforms::worlds());
  TestUser& u1 = bed.addUser();
  TestUser& u2 = bed.addUser();
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(25));
  // Worlds: data = UDP, control = HTTPS/TCP.
  EXPECT_GT(u1.capture->protoSeries(IpProto::Udp, true).total(), 0.0);
  EXPECT_GT(u1.capture->protoSeries(IpProto::Tcp, true).total(), 0.0);
  // UDP dominates in-event bytes.
  EXPECT_GT(u1.capture->protoSeries(IpProto::Udp, true).meanRate(15, 24).toKbps(),
            u1.capture->protoSeries(IpProto::Tcp, true).meanRate(15, 24).toKbps());
}

// -------------------------------------------------------------- experiments

TEST(ExperimentTest, TwoUserThroughputTracksTable3) {
  struct Expect {
    PlatformSpec spec;
    double up, down, avatar;
  };
  const Expect cases[] = {
      {platforms::vrchat(), 31.4, 31.3, 24.7},
      {platforms::altspaceVR(), 41.3, 40.4, 11.1},
      {platforms::recRoom(), 41.7, 41.5, 35.2},
      {platforms::worlds(), 752, 413, 332},
  };
  for (const auto& c : cases) {
    const TwoUserThroughputRow row = runTwoUserThroughput(c.spec, 2);
    EXPECT_NEAR(row.upKbps, c.up, 0.10 * c.up) << c.spec.name;
    EXPECT_NEAR(row.downKbps, c.down, 0.10 * c.down) << c.spec.name;
    EXPECT_NEAR(row.avatarKbps, c.avatar, 0.15 * c.avatar) << c.spec.name;
  }
}

TEST(ExperimentTest, HubsThroughputWithinHttpsOverheadBand) {
  // Hubs rides TLS/TCP; our stack's ACK overhead lands slightly above the
  // paper's 83 Kbps — the avatar component must still match exactly.
  const TwoUserThroughputRow row = runTwoUserThroughput(platforms::hubs(), 2);
  EXPECT_NEAR(row.avatarKbps, 77.4, 5.0);
  EXPECT_GT(row.upKbps, 80.0);
  EXPECT_LT(row.upKbps, 105.0);
}

// Property sweep: linear throughput scaling for every platform (§6).
class ScalingSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScalingSweep, DownlinkScalesLinearlyWithUsers) {
  const PlatformSpec spec = platforms::allFive()[static_cast<std::size_t>(GetParam())];
  const SweepPoint p2 = runUsersSweepPoint(spec, 2, 1, Duration::seconds(15));
  const SweepPoint p5 = runUsersSweepPoint(spec, 5, 1, Duration::seconds(15));
  const SweepPoint p9 = runUsersSweepPoint(spec, 9, 1, Duration::seconds(15));
  // Downlink = fixed misc + per-avatar slope * (N-1): the incremental slope
  // must be consistent across segments (linearity) and clearly positive.
  const double slopeA = (p5.downMbps - p2.downMbps) / 3.0;
  const double slopeB = (p9.downMbps - p5.downMbps) / 4.0;
  EXPECT_GT(slopeA, 0.0) << spec.name;
  EXPECT_NEAR(slopeB, slopeA, 0.35 * slopeA) << spec.name;
  // And the per-user slope matches the platform's avatar rate.
  EXPECT_NEAR(slopeA * 1000.0, spec.avatar.meanUpdateRate().toKbps(),
              0.6 * spec.avatar.meanUpdateRate().toKbps() + 8.0)
      << spec.name;
}

TEST_P(ScalingSweep, FpsDeclinesWithUsers) {
  const PlatformSpec spec = platforms::allFive()[static_cast<std::size_t>(GetParam())];
  const SweepPoint p1 = runUsersSweepPoint(spec, 1, 1, Duration::seconds(15));
  const SweepPoint p15 = runUsersSweepPoint(spec, 15, 1, Duration::seconds(15));
  EXPECT_GT(p1.fps, 69.0) << spec.name;
  EXPECT_LT(p15.fps, p1.fps - 10.0) << spec.name;
  EXPECT_GT(p15.cpuPct, p1.cpuPct + 5.0) << spec.name;
  EXPECT_GT(p15.memGB, p1.memGB + 0.10) << spec.name;  // ~10 MB/avatar
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, ScalingSweep, ::testing::Range(0, 5));

TEST(ExperimentTest, ViewportDetectionFindsAltspaceWidth) {
  const ViewportDetection alt = runViewportDetection(platforms::altspaceVR(), 3);
  EXPECT_GE(alt.inferredWidthDeg, 135.0);
  EXPECT_LE(alt.inferredWidthDeg, 180.0);
  const ViewportDetection vrchat = runViewportDetection(platforms::vrchat(), 3);
  EXPECT_DOUBLE_EQ(vrchat.inferredWidthDeg, 360.0);
}

TEST(ExperimentTest, Fig6TurnOnlyAffectsAltspace) {
  auto turnEffect = [](const PlatformSpec& spec) {
    const JoinTimeline t = runJoinTimeline(spec, Fig6Variant::FacingJoiners, 7);
    double before = 0;
    double after = 0;
    for (int s = 220; s < 248; ++s) before += t.downKbps[s];
    for (int s = 262; s < 290; ++s) after += t.downKbps[s];
    return after / before;
  };
  EXPECT_LT(turnEffect(platforms::altspaceVR()), 0.6);
  EXPECT_GT(turnEffect(platforms::vrchat()), 0.85);
}

TEST(ExperimentTest, LatencyOrderingMatchesTable4) {
  const LatencyRow rec = runLatencyExperiment(platforms::recRoom(), 2, 10, 2);
  const LatencyRow worlds = runLatencyExperiment(platforms::worlds(), 2, 10, 2);
  const LatencyRow alt = runLatencyExperiment(platforms::altspaceVR(), 2, 10, 2);
  const LatencyRow hubs = runLatencyExperiment(platforms::hubs(), 2, 10, 2);
  const LatencyRow hubsPriv = runLatencyExperiment(platforms::hubsPrivate(), 2, 10, 2);
  EXPECT_LT(rec.e2eMs, worlds.e2eMs);
  EXPECT_LT(worlds.e2eMs, alt.e2eMs);
  EXPECT_LT(alt.e2eMs, hubs.e2eMs);
  // §7: the private server cuts Hubs' server latency by ~70%.
  EXPECT_LT(hubsPriv.serverMs, 0.45 * hubs.serverMs);
  EXPECT_LT(hubsPriv.e2eMs, hubs.e2eMs - 60.0);
  // Receiver processing > sender processing everywhere (local rendering).
  for (const auto& row : {rec, worlds, alt, hubs}) {
    EXPECT_GT(row.receiverMs, row.senderMs) << row.platform;
  }
  // Receiver > server except AltspaceVR (viewport prediction).
  EXPECT_GT(rec.receiverMs, rec.serverMs);
  EXPECT_LT(alt.receiverMs, alt.serverMs);
}

TEST(ExperimentTest, LatencyGrowsWithUsers) {
  const LatencyRow two = runLatencyExperiment(platforms::recRoom(), 2, 10, 2);
  const LatencyRow seven = runLatencyExperiment(platforms::recRoom(), 7, 10, 2);
  EXPECT_GT(seven.e2eMs, two.e2eMs + 15.0);
}

TEST(ExperimentTest, ScreenMethodMatchesGroundTruth) {
  // The §7 method (screen recording + ADB clock sync) must agree with the
  // simulator's ground truth to within the sync error budget.
  Testbed bed{31};
  bed.deploy(platforms::recRoom());
  TestUser& u1 = bed.addUser();
  TestUser& u2 = bed.addUser();
  u1.client->motion().setPose(Pose{0, 0, 0});
  u2.client->motion().setPose(Pose{1, 0, 180});
  u1.client->setFaceTarget(1, 0);
  u2.client->setFaceTarget(0, 0);
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  // Ground truth: time from performVisibleAction to the receiver's display,
  // read straight from the recorder with TRUE offsets.
  bed.sim().runFor(Duration::seconds(10));
  const std::uint64_t action = bed.nextActionId();
  const TimePoint t0 = bed.sim().now();
  u1.client->performVisibleAction(action);
  bed.sim().runFor(Duration::seconds(3));
  const auto shown = u2.headset->firstDisplayLocal(action);
  ASSERT_TRUE(shown.has_value());
  const double truthMs =
      (*shown - u2.headset->trueClockOffset() - t0).toMillis();
  EXPECT_GT(truthMs, 40.0);
  EXPECT_LT(truthMs, 250.0);

  // Measured (probe machinery with estimated offsets): statistically equal.
  LatencyProbe probe{bed, u1, u2};
  probe.scheduleProbes(bed.sim().now() + Duration::seconds(2), 15);
  bed.sim().runFor(Duration::seconds(40));
  const LatencyStats stats = probe.collect();
  ASSERT_GT(stats.completed, 10);
  EXPECT_NEAR(stats.e2e.mean(), truthMs, 35.0);
  // Breakdown reconstructs E2E: components sum back to the total.
  EXPECT_NEAR(stats.sender.mean() + stats.server.mean() + stats.network.mean() +
                  stats.receiver.mean(),
              stats.e2e.mean(), 1.0);
}

// --------------------------------------------------------------- disruption

TEST(DisruptorTest, StagesApplyAndReset) {
  Testbed bed{41};
  bed.deploy(platforms::worlds());
  TestUser& u1 = bed.addUser();
  Disruptor d{bed, u1, Disruptor::Direction::Downlink};
  std::vector<DisruptionStage> stages = Disruptor::downlinkBandwidthStages();
  ASSERT_EQ(stages.size(), 6u);
  EXPECT_EQ(stages.front().config.rateLimit, DataRate::mbps(1.0));
  EXPECT_EQ(stages.back().config.rateLimit, DataRate::mbps(0.1));
  d.play(TimePoint::epoch() + Duration::seconds(1), stages);
  bed.sim().runFor(Duration::seconds(2));
  EXPECT_EQ(u1.downlinkNetem().config().rateLimit, DataRate::mbps(1.0));
  bed.sim().runFor(Duration::seconds(40));
  EXPECT_EQ(u1.downlinkNetem().config().rateLimit, DataRate::mbps(0.7));
  bed.sim().runFor(Duration::seconds(250));
  EXPECT_TRUE(u1.downlinkNetem().config().isTransparent());  // reset
}

TEST(DisruptorTest, TcpOnlyStagesCarryTheFilter) {
  const auto stages = Disruptor::tcpOnlyStages();
  ASSERT_EQ(stages.size(), 4u);
  for (const auto& s : stages) {
    EXPECT_EQ(s.config.filter, NetemFilter::TcpOnly);
    EXPECT_EQ(s.duration, Duration::seconds(60));
  }
  EXPECT_DOUBLE_EQ(stages.back().config.lossRate, 1.0);
}

TEST(DisruptionTest, DownlinkThrottleCapsAndRecovers) {
  const DisruptionTimeline d =
      runWorldsDisruption(DisruptionKind::DownlinkBandwidth, 11);
  auto window = [&](const std::vector<double>& v, int a, int b) {
    double s = 0;
    for (int i = a; i < b; ++i) s += v[i];
    return s / (b - a);
  };
  EXPECT_NEAR(window(d.udpDownKbps, 250, 275), 100, 30);   // 0.1 Mbps stage
  EXPECT_GT(window(d.udpDownKbps, 300, 330), 500);         // recovered
  EXPECT_GT(window(d.cpuPct, 250, 275), 90);               // CPU pinned
  EXPECT_LT(window(d.fps, 250, 275), 60);                  // FPS degraded
  EXPECT_GT(window(d.staleFps, 250, 275), 5);              // stale frames
  EXPECT_FALSE(d.screenFrozeAtEnd);                        // survives
}

TEST(DisruptionTest, TcpBlackoutBreaksUdpForGood) {
  const DisruptionTimeline d =
      runWorldsDisruption(DisruptionKind::TcpUplinkOnly, 11);
  EXPECT_TRUE(d.screenFrozeAtEnd);
  // Break happens during the 100%-loss stage [300 = 60+240 in sim time).
  EXPECT_GT(d.frozeAtSec, 240.0);
  EXPECT_LT(d.frozeAtSec, 300.0);
  // UDP uplink never comes back after the reset at 300 s.
  double udpAfter = 0;
  for (std::size_t i = 310; i < 350 && i < d.udpUpKbps.size(); ++i) {
    udpAfter += d.udpUpKbps[i];
  }
  EXPECT_LT(udpAfter / 40.0, 5.0);
}

// -------------------------------------------------------------------- §8.2

TEST(PerceptionTest, LatencyThresholds) {
  const PerceptionRow ok =
      runLatencyLossPerception(platforms::recRoom(), 50.0, 0.0, 3);
  EXPECT_FALSE(ok.walkChatImpaired);  // ~100 + 50 < 300 ms
  const PerceptionRow bad =
      runLatencyLossPerception(platforms::recRoom(), 300.0, 0.0, 3);
  EXPECT_TRUE(bad.walkChatImpaired);
  // AltspaceVR sits near 210 ms already: +100 ms crosses the line.
  const PerceptionRow alt =
      runLatencyLossPerception(platforms::altspaceVR(), 100.0, 0.0, 3);
  EXPECT_TRUE(alt.walkChatImpaired);
}

TEST(PerceptionTest, LossUpTo20PercentTolerated) {
  const PerceptionRow row =
      runLatencyLossPerception(platforms::vrchat(), 0.0, 20.0, 3);
  EXPECT_FALSE(row.walkChatImpaired);
  EXPECT_GT(row.staleAvatarRatio, 0.05);  // updates are being lost...
  EXPECT_LT(row.staleAvatarRatio, 0.5);   // ...but most still arrive
}

// -------------------------------------------------------------------- §5.2

TEST(DownloadTest, PerPlatformBehaviour) {
  const DownloadTrace rec = runDownloadTrace(platforms::recRoom(), 3);
  EXPECT_LT(rec.launchDownloadMB, 1.0);  // pre-bundled app
  const DownloadTrace alt = runDownloadTrace(platforms::altspaceVR(), 3);
  EXPECT_NEAR(alt.launchDownloadMB, 20.0, 5.0);
  const DownloadTrace worlds = runDownloadTrace(platforms::worlds(), 3);
  EXPECT_NEAR(worlds.launchDownloadMB, 5.0, 2.0);
  const DownloadTrace hubs = runDownloadTrace(platforms::hubs(), 3);
  EXPECT_NEAR(hubs.joinDownloadMB, 20.0, 5.0);  // per-join re-download
  EXPECT_FALSE(hubs.cachesBackground);
}

}  // namespace
}  // namespace msim
