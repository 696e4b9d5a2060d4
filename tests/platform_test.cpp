// Tests for the platform models: catalog invariants, DataSpec validation,
// relay mechanics (forwarding, viewport filter, eviction, FIFO), deployment
// placement, control service, and the remote-rendering / P2P extensions.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "platform/deployment.hpp"
#include "platform/p2p.hpp"
#include "platform/remote_render.hpp"

namespace msim {
namespace {

// ------------------------------------------------------------------ catalog

TEST(CatalogTest, FivePlatformsInPaperOrder) {
  const auto all = platforms::allFive();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "AltspaceVR");
  EXPECT_EQ(all[1].name, "Hubs");
  EXPECT_EQ(all[2].name, "Rec Room");
  EXPECT_EQ(all[3].name, "VRChat");
  EXPECT_EQ(all[4].name, "Worlds");
}

TEST(CatalogTest, Table1FeatureFacts) {
  // The distinguishing cells of Table 1.
  EXPECT_FALSE(platforms::hubs().features.game);
  EXPECT_FALSE(platforms::hubs().features.personalSpace);
  EXPECT_TRUE(platforms::hubs().features.webBased);
  EXPECT_TRUE(platforms::recRoom().features.nft);
  EXPECT_TRUE(platforms::recRoom().features.shopping);
  EXPECT_TRUE(platforms::altspaceVR().features.shareScreen);
  EXPECT_FALSE(platforms::worlds().features.shareScreen);
  EXPECT_EQ(platforms::altspaceVR().features.releaseYear, 2015);
  EXPECT_EQ(platforms::worlds().features.releaseYear, 2021);
}

TEST(CatalogTest, AvatarRichnessOrdersThroughput) {
  // §5.2: avatar complexity drives the data rate; Worlds is richest and
  // AltspaceVR most skeletal.
  const double alt = platforms::altspaceVR().avatar.meanUpdateRate().toKbps();
  const double vrchat = platforms::vrchat().avatar.meanUpdateRate().toKbps();
  const double rec = platforms::recRoom().avatar.meanUpdateRate().toKbps();
  const double hubs = platforms::hubs().avatar.meanUpdateRate().toKbps();
  const double worlds = platforms::worlds().avatar.meanUpdateRate().toKbps();
  EXPECT_LT(alt, vrchat);
  EXPECT_LT(vrchat, rec);
  EXPECT_LT(rec, hubs);
  EXPECT_LT(hubs, worlds);
  EXPECT_GT(worlds, 10.0 * alt);  // >10x gap, §5.1
}

TEST(CatalogTest, OnlyWorldsIsHumanLike) {
  for (const auto& p : platforms::allFive()) {
    EXPECT_EQ(p.avatar.humanLike, p.name == "Worlds");
  }
}

TEST(CatalogTest, OnlyVRChatHasFullBody) {
  for (const auto& p : platforms::allFive()) {
    EXPECT_EQ(p.avatar.fullBody, p.name == "VRChat");
  }
}

TEST(CatalogTest, OnlyAltspaceHasViewportFilter) {
  for (const auto& p : platforms::allFive()) {
    EXPECT_EQ(p.data.viewportFilter, p.name == "AltspaceVR");
  }
}

TEST(CatalogTest, OnlyWorldsCouplesTcpAndUdp) {
  for (const auto& p : platforms::allFive()) {
    EXPECT_EQ(p.game.tcpPriorityCoupling, p.name == "Worlds");
  }
}

TEST(CatalogTest, OnlyHubsUsesHttpsDataChannel) {
  for (const auto& p : platforms::allFive()) {
    EXPECT_EQ(p.data.protocol == DataProtocol::HttpsStream, p.name == "Hubs");
  }
}

TEST(CatalogTest, PrivateHubsDiffersOnlyInPlacementAndProvisioning) {
  const PlatformSpec pub = platforms::hubs();
  const PlatformSpec priv = platforms::hubsPrivate();
  EXPECT_EQ(priv.data.placement, Placement::FixedUsEast);
  EXPECT_DOUBLE_EQ(priv.data.provisioningFactor, 1.0);
  EXPECT_GT(pub.data.provisioningFactor, 3.0);
  EXPECT_EQ(priv.avatar.bytesPerUpdate, pub.avatar.bytesPerUpdate);
  // The private instance also models the authors' lighter test scene
  // (Fig. 9's FPS baseline), so its frame base differs by design.
  EXPECT_LT(priv.perf.cpuFrameBaseMs, pub.perf.cpuFrameBaseMs);
  EXPECT_GT(priv.perf.cpuFrameMsPerAvatarSq, 0.0);
}

TEST(CatalogTest, WorldsUplinkStatusExplainsAsymmetry) {
  // Table 3: 752 up vs 413 down; the difference is the consumed status
  // stream plus asymmetric misc.
  const DataSpec& d = platforms::worlds().data;
  EXPECT_GT(d.uplinkStatusRate.toKbps(), 300.0);
  for (const auto& p : platforms::allFive()) {
    if (p.name != "Worlds") {
      EXPECT_TRUE(p.data.uplinkStatusRate.isZero());
    }
  }
}

// --------------------------------------------------------------- data spec

bool roomAccepts(const DataSpec& spec) {
  Simulator sim;
  try {
    RelayRoom room{sim, spec};
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

TEST(DataSpecTest, RejectsReplicasPerSiteBelowOne) {
  DataSpec spec;
  spec.replicasPerSite = 0;
  EXPECT_FALSE(roomAccepts(spec));
  spec.replicasPerSite = -2;
  EXPECT_FALSE(roomAccepts(spec));
}

TEST(DataSpecTest, RejectsNonPositiveOrNanInterestCell) {
  DataSpec spec;
  spec.interestCellM = 0.0;
  EXPECT_FALSE(roomAccepts(spec));
  spec.interestCellM = -8.0;
  EXPECT_FALSE(roomAccepts(spec));
  spec.interestCellM = std::nan("");
  EXPECT_FALSE(roomAccepts(spec));
  spec.interestCellM = INFINITY;
  EXPECT_FALSE(roomAccepts(spec));
}

TEST(DataSpecTest, RejectsZeroFarKeepEvery) {
  DataSpec spec;
  spec.interestFarKeepEvery = 0;
  EXPECT_FALSE(roomAccepts(spec));
}

TEST(DataSpecTest, RejectsNegativeMaxEventUsers) {
  DataSpec spec;
  spec.maxEventUsers = -1;
  EXPECT_FALSE(roomAccepts(spec));
}

TEST(DataSpecTest, RejectsViewportWidthOutsideZeroTo360) {
  DataSpec spec;
  spec.viewportWidthDeg = 0.0;
  EXPECT_FALSE(roomAccepts(spec));
  spec.viewportWidthDeg = 360.5;
  EXPECT_FALSE(roomAccepts(spec));
  spec.viewportWidthDeg = std::nan("");
  EXPECT_FALSE(roomAccepts(spec));
}

TEST(DataSpecTest, NamesTheRejectedField) {
  Simulator sim;
  DataSpec spec;
  spec.interestFarKeepEvery = 0;
  try {
    RelayRoom room{sim, spec};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("interestFarKeepEvery"),
              std::string::npos);
  }
}

TEST(DataSpecTest, AcceptsCatalogAndBoundaryValues) {
  for (const PlatformSpec& p :
       {platforms::altspaceVR(), platforms::hubs(), platforms::hubsPrivate(),
        platforms::recRoom(), platforms::vrchat(), platforms::worlds()}) {
    EXPECT_TRUE(roomAccepts(p.data)) << p.name;
  }
  DataSpec spec;
  spec.replicasPerSite = 1;
  spec.interestCellM = 1e-3;
  spec.interestFarKeepEvery = 1;
  spec.maxEventUsers = 0;
  spec.viewportWidthDeg = 360.0;
  EXPECT_TRUE(roomAccepts(spec));
  spec.viewportWidthDeg = 1e-3;
  EXPECT_TRUE(roomAccepts(spec));
}

TEST(DataSpecTest, DeploymentRejectsZeroReplicasPerSite) {
  Simulator sim;
  Network net{sim};
  InternetFabric fabric{net};
  PlatformSpec spec = platforms::worlds();
  spec.data.replicasPerSite = 0;
  EXPECT_THROW(PlatformDeployment(sim, net, fabric, spec), std::invalid_argument);
}

// -------------------------------------------------------------- relay room

class RelayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    nodeA = &net.addNode("relayA");
    nodeA->addAddress(Ipv4Address(100, 1, 2, 1));
    room = std::make_shared<RelayRoom>(sim, platforms::vrchat().data);
    server = RelayServer::makeUdp(*nodeA, 5055, room);
  }

  Message poseFrom(std::uint64_t user, double x = 0, double y = 0) {
    Message m;
    m.kind = avatarmsg::kPoseUpdate;
    m.size = ByteSize::bytes(100);
    m.senderId = user;
    m.sequence = ++seq;
    m.pose = Message::PoseHint{x, y, 0};
    return m;
  }

  Simulator sim{5};
  Network net{sim};
  Node* nodeA{};
  std::shared_ptr<RelayRoom> room;
  std::unique_ptr<RelayServer> server;
  std::uint64_t seq{0};
};

TEST_F(RelayFixture, JoinLeaveTracksUsers) {
  room->join(1, *server);
  room->join(2, *server);
  EXPECT_EQ(room->userCount(), 2u);
  room->leave(1);
  EXPECT_EQ(room->userCount(), 1u);
}

TEST_F(RelayFixture, BroadcastFansOutToAllOthers) {
  for (std::uint64_t u = 1; u <= 5; ++u) room->join(u, *server);
  room->broadcast(1, poseFrom(1));
  sim.run();
  // 4 receivers' worth of bytes forwarded.
  EXPECT_EQ(room->forwardedBytes().toBytes(), 4 * 100);
}

TEST_F(RelayFixture, ViewportFilterDropsBehindReceivers) {
  RelayRoom filtered{sim, platforms::altspaceVR().data};
  filtered.join(1, *server);
  filtered.join(2, *server);
  // Receiver 2 at origin facing +x; sender 1 behind it.
  filtered.updatePose(2, Pose{0, 0, 0});
  filtered.updatePose(1, Pose{-5, 0, 0});
  Message m = poseFrom(1, -5, 0);
  filtered.broadcast(1, m);
  sim.run();
  EXPECT_EQ(filtered.forwardedBytes().toBytes(), 0);
  EXPECT_EQ(filtered.viewportFilteredBytes().toBytes(), 100);

  // Sender in front: forwarded.
  filtered.updatePose(1, Pose{5, 0, 0});
  filtered.broadcast(1, poseFrom(1, 5, 0));
  sim.run();
  EXPECT_EQ(filtered.forwardedBytes().toBytes(), 100);
}

TEST_F(RelayFixture, NonFilteringRoomForwardsRegardless) {
  room->join(1, *server);
  room->join(2, *server);
  room->updatePose(2, Pose{0, 0, 0});
  room->updatePose(1, Pose{-5, 0, 0});  // behind receiver
  room->broadcast(1, poseFrom(1, -5, 0));
  sim.run();
  EXPECT_EQ(room->forwardedBytes().toBytes(), 100);
}

TEST_F(RelayFixture, ProcessingDelayGrowsWithUsers) {
  // Fig. 11: queueing adds superlinear per-message delay.
  auto measure = [&](int users) {
    RelayRoom r{sim, platforms::vrchat().data};
    for (int u = 1; u <= users; ++u) r.join(static_cast<std::uint64_t>(u), *server);
    TimePoint last;
    r.hooks().onActionForwarded = [&](std::uint64_t, std::uint64_t, TimePoint in,
                                      TimePoint out) {
      last = TimePoint::epoch() + (out - in);
    };
    RunningStats delays;
    for (int i = 0; i < 100; ++i) {
      Message m = poseFrom(1);
      m.actionId = static_cast<std::uint64_t>(i + 1);
      r.broadcast(1, m);
      sim.run();
      delays.add(last.sinceEpoch().toMillis());
    }
    return delays.mean();
  };
  const double d2 = measure(2);
  const double d7 = measure(7);
  EXPECT_GT(d7, d2 + 5.0);
}

TEST_F(RelayFixture, PerFlowFifoNeverReorders) {
  room->join(1, *server);
  room->join(2, *server);
  std::vector<std::uint64_t> out;
  room->hooks().onActionForwarded = [&](std::uint64_t id, std::uint64_t,
                                        TimePoint, TimePoint) {
    out.push_back(id);
  };
  for (std::uint64_t i = 1; i <= 50; ++i) {
    Message m = poseFrom(1);
    m.actionId = i;
    room->broadcast(1, m);
    sim.runFor(Duration::millis(5));  // less than the processing delay
  }
  sim.run();
  ASSERT_EQ(out.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST_F(RelayFixture, SilentUsersGetEvicted) {
  room->startEvictionSweep(Duration::seconds(15));
  room->join(1, *server);
  room->join(2, *server);
  room->noteActivity(1);
  room->noteActivity(2);
  // User 2 stays chatty; user 1 goes silent.
  PeriodicTask chatty{sim, Duration::seconds(1), [&] { room->noteActivity(2); }};
  sim.runFor(Duration::seconds(30));
  EXPECT_EQ(room->userCount(), 1u);
}

// --------------------------------------------------------------- deployment

class DeploymentFixture : public ::testing::Test {
 protected:
  Simulator sim{9};
  Network net{sim};
  InternetFabric fabric{net};
};

TEST_F(DeploymentFixture, AltspaceDataAlwaysWestAndShared) {
  PlatformDeployment dep{sim, net, fabric, platforms::altspaceVR()};
  const Endpoint e1 = dep.dataEndpointFor(regions::usEast(), 0);
  const Endpoint e2 = dep.dataEndpointFor(regions::usEast(), 1);
  const Endpoint e3 = dep.dataEndpointFor(regions::europe(), 0);
  EXPECT_EQ(e1, e2);  // same server for all users (§4.2)
  EXPECT_EQ(e1, e3);  // even from Europe: always the U.S. west coast
  const WhoisDb whois = addrplan::defaultWhois();
  EXPECT_EQ(whois.geolocate(e1.addr), "us-west");
  EXPECT_EQ(whois.ownerOf(e1.addr), "Microsoft");
}

TEST_F(DeploymentFixture, WorldsLoadBalancesAcrossReplicas) {
  PlatformDeployment dep{sim, net, fabric, platforms::worlds()};
  const Endpoint e1 = dep.dataEndpointFor(regions::usEast(), 0);
  const Endpoint e2 = dep.dataEndpointFor(regions::usEast(), 1);
  EXPECT_NE(e1.addr, e2.addr);  // two test users, two servers (§4.2)
  const WhoisDb whois = addrplan::defaultWhois();
  EXPECT_EQ(whois.geolocate(e1.addr), "us-east");
  EXPECT_EQ(whois.ownerOf(e1.addr), "Meta");
}

TEST_F(DeploymentFixture, NearestRegionSteering) {
  PlatformDeployment dep{sim, net, fabric, platforms::worlds()};
  const WhoisDb whois = addrplan::defaultWhois();
  EXPECT_EQ(whois.geolocate(dep.controlEndpointFor(regions::usEast()).addr),
            "us-east");
  EXPECT_EQ(whois.geolocate(dep.controlEndpointFor(regions::usWest()).addr),
            "us-west");
}

TEST_F(DeploymentFixture, AddressClassification) {
  PlatformDeployment dep{sim, net, fabric, platforms::recRoom()};
  const Endpoint ctl = dep.controlEndpointFor(regions::usEast());
  const Endpoint data = dep.dataEndpointFor(regions::usEast(), 0);
  EXPECT_TRUE(dep.isControlAddress(ctl.addr));
  EXPECT_FALSE(dep.isControlAddress(data.addr));
  EXPECT_TRUE(dep.isDataAddress(data.addr));
  EXPECT_FALSE(dep.isDataAddress(ctl.addr));
  EXPECT_FALSE(dep.isDataAddress(Ipv4Address(9, 9, 9, 9)));
}

TEST_F(DeploymentFixture, ControlAndDataOwnersDiffterWhereThePaperSaysSo) {
  PlatformDeployment rec{sim, net, fabric, platforms::recRoom()};
  const WhoisDb whois = addrplan::defaultWhois();
  EXPECT_EQ(whois.ownerOf(rec.controlEndpointFor(regions::usEast()).addr), "ANS");
  EXPECT_EQ(whois.ownerOf(rec.dataEndpointFor(regions::usEast(), 0).addr),
            "Cloudflare");
}

// ----------------------------------------------------------- control service

TEST_F(DeploymentFixture, ControlServiceServesContentSizes) {
  Node& server = fabric.attachHost("ctl", regions::usEast(), Ipv4Address(100, 3, 1, 50));
  Node& client = fabric.attachHost("cli", regions::usEast(), Ipv4Address(10, 0, 0, 9));
  ControlService service{server, platforms::vrchat()};
  HttpClient http{client};
  std::int64_t initBytes = 0;
  http.request(Endpoint{server.primaryAddress(), 443},
               HttpRequest{controlpath::kContentInit},
               [&](const HttpResponse& r, Duration) { initBytes = r.body.toBytes(); });
  sim.runFor(Duration::seconds(60));
  EXPECT_EQ(initBytes, platforms::vrchat().content.initDownload.toBytes());
}

// --------------------------------------------------------- remote rendering

TEST(RemoteRenderTest, StreamRateIndependentOfViewers) {
  auto downlinkFor = [](int viewers) {
    Simulator sim{3};
    Network net{sim};
    InternetFabric fabric{net};
    Node& serverNode =
        fabric.attachHost("rr", regions::usEast(), Ipv4Address(100, 3, 1, 60));
    RemoteRenderSpec spec;
    RemoteRenderServer server{serverNode, 6000, spec};
    std::vector<std::unique_ptr<HeadsetDevice>> headsets;
    std::vector<std::unique_ptr<RemoteRenderClient>> clients;
    std::int64_t bytes = 0;
    for (int i = 0; i < viewers; ++i) {
      Node& n = fabric.attachHost("v" + std::to_string(i), regions::usEast(),
                                  Ipv4Address(10, 80, 0, static_cast<std::uint8_t>(i + 1)));
      if (i == 0) {
        n.devices().back()->addTap([&bytes](const Packet& p, TapDir d) {
          if (d == TapDir::Ingress) bytes += p.wireSize().toBytes();
        });
      }
      headsets.push_back(std::make_unique<HeadsetDevice>(sim, n, devices::quest2()));
      clients.push_back(std::make_unique<RemoteRenderClient>(
          *headsets.back(), Endpoint{serverNode.primaryAddress(), 6000},
          static_cast<std::uint64_t>(i + 1), spec));
      clients.back()->start();
    }
    sim.runFor(Duration::seconds(3));
    bytes = 0;
    const TimePoint from = sim.now();
    sim.runFor(Duration::seconds(10));
    return rateOf(ByteSize::bytes(bytes), sim.now() - from).toMbps();
  };
  const double two = downlinkFor(2);
  const double ten = downlinkFor(10);
  EXPECT_NEAR(two, 28.0, 3.0);          // pinned to the stream bitrate
  EXPECT_NEAR(ten, two, 0.1 * two);     // flat in the viewer count
}

TEST(RemoteRenderTest, ServerGpuScalesWithViewers) {
  Simulator sim{3};
  Network net{sim};
  InternetFabric fabric{net};
  Node& serverNode =
      fabric.attachHost("rr", regions::usEast(), Ipv4Address(100, 3, 1, 61));
  RemoteRenderSpec spec;
  RemoteRenderServer server{serverNode, 6000, spec};
  std::vector<std::unique_ptr<HeadsetDevice>> headsets;
  std::vector<std::unique_ptr<RemoteRenderClient>> clients;
  for (int i = 0; i < 3; ++i) {
    Node& n = fabric.attachHost("v" + std::to_string(i), regions::usEast(),
                                Ipv4Address(10, 81, 0, static_cast<std::uint8_t>(i + 1)));
    headsets.push_back(std::make_unique<HeadsetDevice>(sim, n, devices::quest2()));
    clients.push_back(std::make_unique<RemoteRenderClient>(
        *headsets.back(), Endpoint{serverNode.primaryAddress(), 6000},
        static_cast<std::uint64_t>(i + 1), spec));
    clients.back()->start();
  }
  sim.runFor(Duration::seconds(3));
  EXPECT_EQ(server.viewerCount(), 3u);
  EXPECT_NEAR(server.serverGpuUtilization(),
              3 * spec.renderEncodeMsPerFrame * spec.frameRateHz / 1000.0, 0.01);
}

// ---------------------------------------------------------------------- P2P

TEST(P2pTest, MeshDeliversAllUpdates) {
  Simulator sim{3};
  Network net{sim};
  InternetFabric fabric{net};
  AvatarSpec avatar;
  avatar.updateRateHz = 10.0;
  avatar.bytesPerUpdate = ByteSize::bytes(100);
  std::vector<std::unique_ptr<HeadsetDevice>> headsets;
  std::vector<std::unique_ptr<P2PClient>> clients;
  std::vector<P2PClient*> raw;
  for (int i = 0; i < 4; ++i) {
    Node& n = fabric.attachHost("p" + std::to_string(i), regions::usEast(),
                                Ipv4Address(10, 82, 0, static_cast<std::uint8_t>(i + 1)));
    headsets.push_back(std::make_unique<HeadsetDevice>(sim, n, devices::quest2()));
    clients.push_back(std::make_unique<P2PClient>(
        *headsets.back(), static_cast<std::uint64_t>(i + 1), avatar));
    raw.push_back(clients.back().get());
  }
  P2PClient::connectMesh(raw);
  EXPECT_EQ(clients[0]->peerCount(), 3u);
  for (auto& c : clients) c->start();
  sim.runFor(Duration::seconds(10));
  // ~3 peers x 10 Hz x 10 s each.
  EXPECT_NEAR(static_cast<double>(clients[0]->updatesReceived()), 300.0, 15.0);
}

TEST(P2pTest, UplinkReplicationScalesWithPeers) {
  auto uplinkFor = [](int peers) {
    Simulator sim{3};
    Network net{sim};
    InternetFabric fabric{net};
    AvatarSpec avatar;
    avatar.updateRateHz = 20.0;
    avatar.bytesPerUpdate = ByteSize::bytes(500);
    std::vector<std::unique_ptr<HeadsetDevice>> headsets;
    std::vector<std::unique_ptr<P2PClient>> clients;
    std::vector<P2PClient*> raw;
    NetDevice* dev = nullptr;
    std::int64_t bytes = 0;
    for (int i = 0; i < peers; ++i) {
      Node& n = fabric.attachHost("p" + std::to_string(i), regions::usEast(),
                                  Ipv4Address(10, 83, 0, static_cast<std::uint8_t>(i + 1)));
      if (i == 0) dev = n.devices().back().get();
      headsets.push_back(std::make_unique<HeadsetDevice>(sim, n, devices::quest2()));
      clients.push_back(std::make_unique<P2PClient>(
          *headsets.back(), static_cast<std::uint64_t>(i + 1), avatar));
      raw.push_back(clients.back().get());
    }
    dev->addTap([&bytes](const Packet& p, TapDir d) {
      if (d == TapDir::Egress) bytes += p.wireSize().toBytes();
    });
    P2PClient::connectMesh(raw);
    for (auto& c : clients) c->start();
    sim.runFor(Duration::seconds(10));
    return static_cast<double>(bytes);
  };
  const double up3 = uplinkFor(3);
  const double up9 = uplinkFor(9);
  EXPECT_NEAR(up9 / up3, 4.0, 0.5);  // (9-1)/(3-1) = 4x replication
}

}  // namespace
}  // namespace msim
