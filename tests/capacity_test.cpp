// Event-capacity limits (§6.2) and the AP trace export.

#include <gtest/gtest.h>

#include "core/experiments.hpp"

namespace msim {
namespace {

TEST(EventCapacityTest, WorldsCapsAtSixteenUsers) {
  Testbed bed{67};
  bed.deploy(platforms::worlds());
  for (int i = 0; i < 18; ++i) {
    TestUserConfig cfg;
    cfg.wander = false;
    bed.addUser(cfg);
  }
  bed.sim().schedule(TimePoint::epoch(), [&] {
    for (auto& u : bed.users()) u->client->launch();
  });
  for (int i = 0; i < 18; ++i) {
    bed.sim().schedule(TimePoint::epoch() + Duration::seconds(2 + i),
                       [&, i] { bed.user(i).client->joinEvent(); });
  }
  bed.sim().runFor(Duration::seconds(30));
  EXPECT_EQ(bed.deployment().room()->userCount(), 16u);
  int inEvent = 0;
  int refused = 0;
  for (auto& u : bed.users()) {
    if (u->client->phase() == ClientPhase::InEvent) ++inEvent;
    if (u->client->eventFull()) ++refused;
  }
  EXPECT_EQ(inEvent, 16);
  EXPECT_EQ(refused, 2);
  // A refused client is back on the welcome page, not wedged.
  EXPECT_EQ(bed.user(17).client->phase(), ClientPhase::WelcomePage);
}

TEST(EventCapacityTest, UncappedPlatformsAcceptLargeEvents) {
  Testbed bed{67};
  bed.deploy(platforms::hubsPrivate());  // the paper's 28-user event
  for (int i = 0; i < 20; ++i) {
    TestUserConfig cfg;
    cfg.wander = false;
    bed.addUser(cfg);
  }
  bed.sim().schedule(TimePoint::epoch(), [&] {
    for (auto& u : bed.users()) {
      u->client->launch();
      u->client->joinEvent();
    }
  });
  bed.sim().runFor(Duration::seconds(20));
  EXPECT_EQ(bed.deployment().room()->userCount(), 20u);
}

TEST(EventCapacityTest, SlotFreesWhenSomeoneLeaves) {
  Testbed bed{69};
  bed.deploy(platforms::worlds());
  for (int i = 0; i < 17; ++i) {
    TestUserConfig cfg;
    cfg.wander = false;
    bed.addUser(cfg);
  }
  bed.sim().schedule(TimePoint::epoch(), [&] {
    for (int i = 0; i < 16; ++i) {
      bed.user(i).client->launch();
      bed.user(i).client->joinEvent();
    }
    bed.user(16).client->launch();
  });
  bed.sim().schedule(TimePoint::epoch() + Duration::seconds(5),
                     [&] { bed.user(0).client->leaveEvent(); });
  bed.sim().schedule(TimePoint::epoch() + Duration::seconds(8),
                     [&] { bed.user(16).client->joinEvent(); });
  bed.sim().runFor(Duration::seconds(15));
  EXPECT_EQ(bed.user(16).client->phase(), ClientPhase::InEvent);
  EXPECT_FALSE(bed.user(16).client->eventFull());
  EXPECT_EQ(bed.deployment().room()->userCount(), 16u);
}

TEST(TraceExportTest, RendersTcpdumpStyleLines) {
  Testbed bed{71};
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
  bed.sim().runFor(Duration::seconds(5));
  const std::string trace = u1.capture->exportTraceText(200);
  EXPECT_NE(trace.find("UP"), std::string::npos);
  EXPECT_NE(trace.find("DOWN"), std::string::npos);
  EXPECT_NE(trace.find("UDP"), std::string::npos);   // data channel
  EXPECT_NE(trace.find("TCP"), std::string::npos);   // control channel
  EXPECT_NE(trace.find("[data-up]"), std::string::npos);
  // maxLines is honoured.
  int lines = 0;
  for (const char c : trace) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 200);
}

}  // namespace
}  // namespace msim
