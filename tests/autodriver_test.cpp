// Tests for AutoDriver (§9's scripted-session playback) and the newer
// platform features: viewport prediction, interest LoD, the personal-space
// bubble, and the missing-content metric.

#include <gtest/gtest.h>

#include "core/autodriver.hpp"

namespace msim {
namespace {

// ------------------------------------------------------------- DriverScript

TEST(DriverScriptTest, BuilderKeepsTimeOrder) {
  DriverScript s;
  s.join(Duration::seconds(5));
  s.launch(Duration::zero());
  s.act(Duration::seconds(10));
  ASSERT_EQ(s.steps().size(), 3u);
  EXPECT_EQ(s.steps()[0].kind, DriverStep::Kind::Launch);
  EXPECT_EQ(s.steps()[1].kind, DriverStep::Kind::JoinEvent);
  EXPECT_EQ(s.steps()[2].kind, DriverStep::Kind::Act);
}

TEST(DriverScriptTest, ParseRoundTrip) {
  const std::string text =
      "0 launch\n"
      "5 join\n"
      "7.5 walk 3 -2\n"
      "10 face 0 0\n"
      "12 turn 8\n"
      "15 act\n"
      "20 game\n"
      "30 endgame\n"
      "35 unmute\n"
      "40 wander 1\n"
      "50 leave\n";
  const DriverScript parsed = DriverScript::parse(text);
  ASSERT_EQ(parsed.steps().size(), 11u);
  EXPECT_EQ(parsed.steps()[2].kind, DriverStep::Kind::WalkTo);
  EXPECT_DOUBLE_EQ(parsed.steps()[2].x, 3.0);
  EXPECT_DOUBLE_EQ(parsed.steps()[2].y, -2.0);
  EXPECT_EQ(parsed.steps()[4].a, 8);
  // toText -> parse must be stable.
  const DriverScript again = DriverScript::parse(parsed.toText());
  EXPECT_EQ(again.toText(), parsed.toText());
}

TEST(DriverScriptTest, ParseSkipsCommentsAndBlanks) {
  const DriverScript s = DriverScript::parse(
      "# a comment\n"
      "\n"
      "0 launch  # trailing comment\n"
      "   \n"
      "1 join\n");
  EXPECT_EQ(s.steps().size(), 2u);
}

TEST(DriverScriptTest, ParseRejectsUnknownVerb) {
  EXPECT_THROW(DriverScript::parse("0 fly"), std::invalid_argument);
  EXPECT_THROW(DriverScript::parse("0 walk 1"), std::invalid_argument);
  EXPECT_THROW(DriverScript::parse("nonsense"), std::invalid_argument);
}

TEST(DriverScriptTest, CannedWorkloadsAreWellFormed) {
  const DriverScript chat =
      DriverScript::chatWorkload(Duration::seconds(5), 2.0, 0.0);
  EXPECT_GE(chat.steps().size(), 3u);
  EXPECT_EQ(chat.steps().front().kind, DriverStep::Kind::Launch);
  const DriverScript joiner = DriverScript::fig6Joiner(Duration::seconds(50));
  EXPECT_EQ(joiner.steps()[1].at, Duration::seconds(50));
}

// --------------------------------------------------------------- AutoDriver

class DriverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    bed = std::make_unique<Testbed>(17);
    bed->deploy(platforms::recRoom());
    TestUserConfig cfg;
    cfg.wander = false;
    u1 = &bed->addUser(cfg);
    u2 = &bed->addUser(cfg);
  }
  std::unique_ptr<Testbed> bed;
  TestUser* u1{};
  TestUser* u2{};
};

TEST_F(DriverFixture, PlaysLifecycleSteps) {
  AutoDriver d1{*bed, *u1};
  AutoDriver d2{*bed, *u2};
  d1.play(DriverScript::chatWorkload(Duration::seconds(2), 2, 0));
  d2.play(DriverScript::chatWorkload(Duration::seconds(2), 0, 0));
  bed->sim().runFor(Duration::seconds(1));
  EXPECT_EQ(u1->client->phase(), ClientPhase::WelcomePage);
  bed->sim().runFor(Duration::seconds(5));
  EXPECT_EQ(u1->client->phase(), ClientPhase::InEvent);
  EXPECT_EQ(u2->client->phase(), ClientPhase::InEvent);
  bed->sim().runFor(Duration::seconds(10));
  EXPECT_EQ(u1->client->remoteAvatars().size(), 1u);
}

TEST_F(DriverFixture, MotionStepsMoveTheAvatar) {
  AutoDriver driver{*bed, *u1};
  DriverScript s;
  s.launch(Duration::zero());
  s.join(Duration::seconds(1));
  s.teleportTo(Duration::seconds(2), -4.0, 3.0);
  s.snapTurn(Duration::seconds(3), 4);  // 90°
  driver.play(s);
  bed->sim().runFor(Duration::seconds(5));
  EXPECT_DOUBLE_EQ(u1->client->motion().pose().x, -4.0);
  EXPECT_DOUBLE_EQ(u1->client->motion().pose().y, 3.0);
  EXPECT_DOUBLE_EQ(u1->client->motion().pose().yawDeg, 90.0);
}

TEST_F(DriverFixture, ActStepsIssueTrackableActions) {
  AutoDriver d1{*bed, *u1};
  AutoDriver d2{*bed, *u2};
  DriverScript s1 = DriverScript::chatWorkload(Duration::seconds(1), 2, 0);
  s1.act(Duration::seconds(8));
  s1.act(Duration::seconds(10));
  d1.play(s1);
  d2.play(DriverScript::chatWorkload(Duration::seconds(1), 0, 0));
  bed->sim().runFor(Duration::seconds(15));
  ASSERT_EQ(d1.actionsPerformed().size(), 2u);
  // Both actions reached the peer's display.
  for (const std::uint64_t action : d1.actionsPerformed()) {
    EXPECT_TRUE(u2->headset->firstDisplayLocal(action).has_value());
  }
}

TEST_F(DriverFixture, ParsedScriptDrivesSession) {
  AutoDriver driver{*bed, *u1};
  driver.play(DriverScript::parse("0 launch\n1 join\n3 mute\n5 leave\n"));
  bed->sim().runFor(Duration::seconds(2));
  EXPECT_EQ(u1->client->phase(), ClientPhase::InEvent);
  bed->sim().runFor(Duration::seconds(5));
  EXPECT_EQ(u1->client->phase(), ClientPhase::WelcomePage);
}

// ----------------------------------------------- newer platform mechanisms

TEST(ViewportPredictionTest, LeadAffectsFilterDecisions) {
  // A receiver rotating at a steady rate: with a long enough lead, the
  // filter admits the avatar the user is *about* to face.
  Simulator sim{3};
  Network net{sim};
  Node& node = net.addNode("relay");
  node.addAddress(Ipv4Address(100, 1, 2, 9));
  DataSpec spec = platforms::altspaceVR().data;
  spec.viewportPredictionLeadMs = 500.0;
  auto room = std::make_shared<RelayRoom>(sim, spec);
  auto server = RelayServer::makeUdp(node, 5055, room);
  room->join(1, *server);
  room->join(2, *server);

  // Receiver 2 rotates from facing away (180°) toward the sender at 0°,
  // 90°/s: two reports 100 ms apart establish the rate.
  room->updatePose(1, Pose{5, 0, 0});
  room->updatePose(2, Pose{0, 0, 160.0});
  sim.runFor(Duration::millis(100));
  room->updatePose(2, Pose{0, 0, 151.0});  // 90°/s toward the sender

  Message m;
  m.kind = avatarmsg::kPoseUpdate;
  m.size = ByteSize::bytes(100);
  m.senderId = 1;
  m.sequence = 1;
  m.pose = Message::PoseHint{5, 0, 0};
  room->broadcast(1, m);
  sim.run();
  // Last report: 151° facing; sender at bearing 0° -> 151 > 75 (outside).
  // Predicted 500 ms ahead: 151 - 45 = 106 … still outside. Rotate more.
  room->updatePose(2, Pose{0, 0, 120.0});
  sim.runFor(Duration::millis(100));
  room->updatePose(2, Pose{0, 0, 111.0});
  const ByteSize before = room->forwardedBytes();
  m.sequence = 2;
  room->broadcast(1, m);
  sim.run();
  // 111° now, predicted 111 - 45 = 66° < 75 -> forwarded thanks to the lead.
  EXPECT_GT(room->forwardedBytes().toBytes(), before.toBytes());
}

/// §6.2 distance LoD as the ablation bench configures it: the interest
/// grid's rate bands (full to 2 m, half to 5 m, 1/4 beyond) with no cull.
DataSpec distanceLodSpec() {
  DataSpec spec = platforms::worlds().data;
  spec.interestGrid = true;
  spec.interestRadiusM = 0.0;
  spec.interestFullRadiusM = 2.0;
  spec.interestHalfRadiusM = 5.0;
  spec.interestFarKeepEvery = 4;
  return spec;
}

TEST(InterestLodTest, FarSendersAreDecimated) {
  Simulator sim{3};
  Network net{sim};
  Node& node = net.addNode("relay");
  node.addAddress(Ipv4Address(100, 2, 1, 9));
  DataSpec spec = distanceLodSpec();
  auto room = std::make_shared<RelayRoom>(sim, spec);
  auto server = RelayServer::makeUdp(node, 5055, room);
  room->join(1, *server);
  room->join(2, *server);
  room->updatePose(1, Pose{10, 0, 180});  // far: beyond the half-rate band (5 m)
  room->updatePose(2, Pose{0, 0, 0});

  for (std::uint64_t i = 1; i <= 40; ++i) {
    Message m;
    m.kind = avatarmsg::kPoseUpdate;
    m.size = ByteSize::bytes(100);
    m.senderId = 1;
    m.sequence = i;
    m.pose = Message::PoseHint{10, 0, 180};
    room->broadcast(1, m);
  }
  sim.run();
  // 1-in-4 forwarded beyond the far radius.
  EXPECT_EQ(room->forwardedBytes().toBytes(), 10 * 100);
  EXPECT_EQ(room->lodFilteredBytes().toBytes(), 30 * 100);
}

TEST(InterestLodTest, NearSendersKeepFullRate) {
  Simulator sim{3};
  Network net{sim};
  Node& node = net.addNode("relay");
  node.addAddress(Ipv4Address(100, 2, 1, 10));
  DataSpec spec = distanceLodSpec();
  auto room = std::make_shared<RelayRoom>(sim, spec);
  auto server = RelayServer::makeUdp(node, 5055, room);
  room->join(1, *server);
  room->join(2, *server);
  room->updatePose(1, Pose{1.0, 0, 180});  // inside the full-rate band (2 m)
  room->updatePose(2, Pose{0, 0, 0});
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Message m;
    m.kind = avatarmsg::kPoseUpdate;
    m.size = ByteSize::bytes(100);
    m.senderId = 1;
    m.sequence = i;
    m.pose = Message::PoseHint{1.0, 0, 180};
    room->broadcast(1, m);
  }
  sim.run();
  EXPECT_EQ(room->forwardedBytes().toBytes(), 20 * 100);
  EXPECT_EQ(room->lodFilteredBytes().toBytes(), 0);
}

TEST(PersonalSpaceTest, BubbleHidesIntruders) {
  Testbed bed{19};
  bed.deploy(platforms::recRoom());  // personal space: yes
  TestUserConfig cfg;
  cfg.wander = false;
  TestUser& u1 = bed.addUser(cfg);
  TestUser& u2 = bed.addUser(cfg);
  u1.client->motion().setPose(Pose{0, 0, 0});
  u2.client->motion().setPose(Pose{0.3, 0, 180});  // well inside 0.8 m
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(10));
  EXPECT_EQ(u1.client->bubbleHiddenCount(), 1);
  EXPECT_EQ(u1.client->visibleAvatarCount(), 0);
}

TEST(PersonalSpaceTest, HubsHasNoBubble) {
  Testbed bed{19};
  bed.deploy(platforms::hubs());  // Table 1: no personal space
  TestUserConfig cfg;
  cfg.wander = false;
  TestUser& u1 = bed.addUser(cfg);
  TestUser& u2 = bed.addUser(cfg);
  u1.client->motion().setPose(Pose{0, 0, 0});
  u2.client->motion().setPose(Pose{0.3, 0, 180});
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(10));
  EXPECT_EQ(u1.client->bubbleHiddenCount(), 0);
  EXPECT_EQ(u1.client->visibleAvatarCount(), 1);
}

TEST(StaleMetricTest, CleanNetworkShowsNoStaleContent) {
  Testbed bed{23};
  bed.deploy(platforms::vrchat());
  TestUserConfig cfg;
  cfg.wander = false;
  TestUser& u1 = bed.addUser(cfg);
  TestUser& u2 = bed.addUser(cfg);
  u1.client->motion().setPose(Pose{0, 0, 0});
  u2.client->motion().setPose(Pose{2, 0, 180});
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  bed.sim().runFor(Duration::seconds(30));
  EXPECT_LT(u1.client->visibleStaleRatio(), 0.05);
}

TEST(StaleMetricTest, HeavyLossShowsStaleContent) {
  Testbed bed{23};
  bed.deploy(platforms::vrchat());
  TestUserConfig cfg;
  cfg.wander = false;
  TestUser& u1 = bed.addUser(cfg);
  TestUser& u2 = bed.addUser(cfg);
  u1.client->motion().setPose(Pose{0, 0, 0});
  u2.client->motion().setPose(Pose{2, 0, 180});
  bed.sim().schedule(TimePoint::epoch(), [&] {
    u1.client->launch();
    u2.client->launch();
    u1.client->joinEvent();
    u2.client->joinEvent();
  });
  NetemConfig lossy;
  lossy.lossRate = 0.9;
  u1.downlinkNetem().configure(lossy);
  bed.sim().runFor(Duration::seconds(30));
  EXPECT_GT(u1.client->visibleStaleRatio(), 0.3);
}

}  // namespace
}  // namespace msim
