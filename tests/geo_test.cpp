// Tests for the geo substrate: distances/delays, the internet fabric,
// anycast routing, DNS steering, WHOIS, and the measurement tools.

#include <gtest/gtest.h>

#include "geo/dns.hpp"
#include "geo/fabric.hpp"
#include "geo/geo.hpp"
#include "geo/tools.hpp"
#include "geo/whois.hpp"
#include "transport/tcp.hpp"

namespace msim {
namespace {

// ---------------------------------------------------------------- geography

TEST(GeoTest, GreatCircleKnownDistances) {
  // Ashburn <-> Los Angeles is about 3,650 km.
  const double km = greatCircleKm(regions::usEast().location,
                                  regions::usWest().location);
  EXPECT_NEAR(km, 3650, 120);
  // London <-> LA is about 8,750 km.
  EXPECT_NEAR(greatCircleKm(regions::europe().location,
                            regions::usWest().location),
              8750, 200);
  EXPECT_DOUBLE_EQ(greatCircleKm(regions::usEast().location,
                                 regions::usEast().location),
                   0.0);
}

TEST(GeoTest, PropagationDelayCalibratedToTable2) {
  // Paper: east-coast client <-> west-coast server RTT ~72 ms.
  const Duration oneWay = propagationDelay(regions::usEast().location,
                                           regions::usWest().location);
  EXPECT_NEAR(2 * oneWay.toMillis(), 72.0, 4.0);
  // Paper: Europe <-> U.S. west coast RTT ~140-150 ms.
  const Duration euWest = propagationDelay(regions::europe().location,
                                           regions::usWest().location);
  EXPECT_NEAR(2 * euWest.toMillis(), 140.0, 12.0);
}

// ------------------------------------------------------------------- fabric

class FabricFixture : public ::testing::Test {
 protected:
  Simulator sim{3};
  Network net{sim};
  InternetFabric fabric{net};
};

TEST_F(FabricFixture, HostsInSameRegionReachQuickly) {
  Node& a = fabric.attachHost("a", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  Node& b = fabric.attachHost("b", regions::usEast(), Ipv4Address(100, 1, 1, 1));
  PingTool pinger{a};
  double rtt = -1;
  pinger.ping(b.primaryAddress(), 3, [&](const PingResult& r) {
    ASSERT_TRUE(r.reachable());
    rtt = r.rttMs.mean();
  });
  sim.run();
  EXPECT_GT(rtt, 0.0);
  EXPECT_LT(rtt, 5.0);
}

TEST_F(FabricFixture, CrossCountryRttMatchesPaper) {
  Node& client = fabric.attachHost("client", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  Node& server = fabric.attachHost("server", regions::usWest(), Ipv4Address(100, 1, 2, 1));
  PingTool pinger{client};
  double rtt = -1;
  pinger.ping(server.primaryAddress(), 5, [&](const PingResult& r) {
    ASSERT_TRUE(r.reachable());
    rtt = r.rttMs.mean();
  });
  sim.run();
  EXPECT_NEAR(rtt, 72.0, 6.0);  // Table 2: 72.1 ms to AltspaceVR data server
}

TEST_F(FabricFixture, EuropeToWestCoastRtt) {
  Node& client = fabric.attachHost("client", regions::europe(), Ipv4Address(10, 9, 0, 1));
  Node& server = fabric.attachHost("server", regions::usWest(), Ipv4Address(100, 3, 2, 1));
  PingTool pinger{client};
  double rtt = -1;
  pinger.ping(server.primaryAddress(), 3, [&](const PingResult& r) { rtt = r.rttMs.mean(); });
  sim.run();
  EXPECT_NEAR(rtt, 142.0, 12.0);  // §4.2: ~140 ms (Hubs WebRTC from Europe)
}

TEST_F(FabricFixture, LateRegionJoinStillRoutes) {
  Node& a = fabric.attachHost("a", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  // Europe core created after 'a' was attached.
  Node& c = fabric.attachHost("c", regions::europe(), Ipv4Address(10, 9, 0, 1));
  int delivered = 0;
  a.setLocalHandler([&](const Packet&) { ++delivered; });
  Packet p;
  p.src = c.primaryAddress();
  p.dst = a.primaryAddress();
  p.proto = IpProto::Udp;
  p.payloadBytes = ByteSize::bytes(10);
  c.sendFromLocal(std::move(p));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(FabricFixture, AnycastRoutesToNearestReplica) {
  Node& eastClient = fabric.attachHost("ec", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  Node& westClient = fabric.attachHost("wc", regions::usWest(), Ipv4Address(10, 0, 0, 2));
  Node& eastRep = fabric.attachHost("rep-e", regions::usEast(), Ipv4Address(100, 4, 1, 1));
  Node& westRep = fabric.attachHost("rep-w", regions::usWest(), Ipv4Address(100, 4, 2, 1));
  const Ipv4Address anycast{100, 4, 9, 1};
  fabric.advertiseAnycast(anycast, {&eastRep, &westRep});

  double eastRtt = -1;
  double westRtt = -1;
  PingTool pe{eastClient};
  PingTool pw{westClient};
  pe.ping(anycast, 3, [&](const PingResult& r) { eastRtt = r.rttMs.mean(); });
  pw.ping(anycast, 3, [&](const PingResult& r) { westRtt = r.rttMs.mean(); });
  sim.run();
  // Both coasts see a local replica: low RTT from both vantages.
  EXPECT_GT(eastRtt, 0.0);
  EXPECT_LT(eastRtt, 6.0);
  EXPECT_GT(westRtt, 0.0);
  EXPECT_LT(westRtt, 6.0);
}

TEST_F(FabricFixture, TracerouteSeesCoreHops) {
  Node& client = fabric.attachHost("client", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  Node& server = fabric.attachHost("server", regions::usWest(), Ipv4Address(100, 1, 2, 1));
  TransportMux::of(server);  // server must answer port-unreachable
  TracerouteTool tracer{client};
  std::vector<TracerouteHop> hops;
  tracer.trace(server.primaryAddress(),
               [&](const std::vector<TracerouteHop>& h) { hops = h; });
  sim.run();
  ASSERT_GE(hops.size(), 3u);  // east core, west core, server
  EXPECT_TRUE(hops.back().reachedTarget);
  EXPECT_EQ(hops.back().addr, server.primaryAddress());
  // First hop is the local core with a sub-ms-ish RTT; the next crosses the
  // country.
  EXPECT_LT(hops[0].rttMs, 5.0);
  EXPECT_GT(hops[1].rttMs, 60.0);
}

// A measurement tool listens for ICMP on its node only while it exists: once
// it is gone, a forwarding node that hosted it cuts its hop through again.
TEST(ToolsLifetimeTest, DestroyedToolsGiveCutThroughBack) {
  Simulator sim{3};
  Network net{sim};
  Node& r = net.addNode("r");
  Node& ap = net.addNode("ap");
  Node& leaf = net.addNode("leaf");
  r.addAddress(Ipv4Address(10, 0, 0, 1));
  ap.addAddress(Ipv4Address(10, 2, 0, 1));
  leaf.addAddress(Ipv4Address(10, 2, 0, 2));
  LinkConfig shortHop;
  shortHop.delay = Duration::micros(500);
  LinkConfig wifi;
  wifi.delay = Duration::millis(2);
  auto [u, apUp] = Link::connect(r, ap, shortHop);
  auto [d, rev] = Link::connect(ap, leaf, wifi);
  r.setDefaultRoute(u);
  ap.addHostRoute(leaf.primaryAddress(), d);
  ap.setDefaultRoute(apUp);
  leaf.setDefaultRoute(rev);
  int received = 0;
  leaf.setLocalHandler([&](const Packet&) { ++received; });
  const auto send = [&] {
    Packet p;
    p.src = r.primaryAddress();
    p.dst = leaf.primaryAddress();
    p.proto = IpProto::Udp;
    p.overheadBytes = wire::kEthIpUdp;
    p.payloadBytes = ByteSize::bytes(100);
    r.sendFromLocal(std::move(p));
    sim.run();
  };

  {
    PingTool pinger{ap};
    TracerouteTool tracer{ap};
    send();
    EXPECT_EQ(u.cutThroughs(), 0u);  // the AP listens locally
  }
  send();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(u.cutThroughs(), 1u);
}

// A done handler may destroy the tool that calls it.
TEST_F(FabricFixture, ToolsMayBeDestroyedByTheirDoneHandlers) {
  Node& client = fabric.attachHost("client", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  Node& server = fabric.attachHost("server", regions::usWest(), Ipv4Address(100, 1, 2, 1));
  TransportMux::of(server);
  auto tracer = std::make_unique<TracerouteTool>(client);
  auto pinger = std::make_unique<PingTool>(client);
  std::vector<TracerouteHop> hops;
  PingResult pong;
  tracer->trace(server.primaryAddress(), [&](const std::vector<TracerouteHop>& h) {
    hops = h;
    tracer.reset();
  });
  pinger->ping(server.primaryAddress(), 3, [&](const PingResult& res) {
    pong = res;
    pinger.reset();
  });
  sim.run();
  EXPECT_EQ(tracer, nullptr);
  EXPECT_EQ(pinger, nullptr);
  ASSERT_FALSE(hops.empty());
  EXPECT_TRUE(hops.back().reachedTarget);
  EXPECT_EQ(pong.received, 3);
}

// A tool destroyed mid-run stops probing and never calls back.
TEST_F(FabricFixture, DestroyingAToolMidRunStopsIt) {
  Node& client = fabric.attachHost("client", regions::usEast(), Ipv4Address(10, 0, 0, 1));
  Node& server = fabric.attachHost("server", regions::usWest(), Ipv4Address(100, 1, 2, 1));
  TransportMux::of(server);
  bool called = false;
  {
    PingTool pinger{client};
    TracerouteTool tracer{client};
    pinger.ping(server.primaryAddress(), 5, [&](const PingResult&) { called = true; });
    tracer.trace(server.primaryAddress(),
                 [&](const std::vector<TracerouteHop>&) { called = true; });
    sim.runFor(Duration::millis(30));
  }
  sim.run();
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------------------- DNS

TEST(DnsTest, StaticAndNearest) {
  Dns dns;
  dns.addStatic("control.example", Ipv4Address(100, 3, 1, 1));
  dns.addNearest("data.example", {{regions::usEast(), Ipv4Address(100, 3, 1, 2)},
                                  {regions::usWest(), Ipv4Address(100, 3, 2, 2)},
                                  {regions::europe(), Ipv4Address(100, 3, 3, 2)}});
  EXPECT_EQ(dns.resolve("control.example", regions::usWest()), Ipv4Address(100, 3, 1, 1));
  EXPECT_EQ(dns.resolve("data.example", regions::usEast()), Ipv4Address(100, 3, 1, 2));
  EXPECT_EQ(dns.resolve("data.example", regions::usWest()), Ipv4Address(100, 3, 2, 2));
  EXPECT_EQ(dns.resolve("data.example", regions::europe()), Ipv4Address(100, 3, 3, 2));
  EXPECT_EQ(dns.resolve("data.example", regions::middleEast()), Ipv4Address(100, 3, 3, 2));
  EXPECT_TRUE(dns.resolve("unknown", regions::usEast()).isUnspecified());
  EXPECT_TRUE(dns.knows("data.example"));
  EXPECT_FALSE(dns.knows("nope"));
}

// -------------------------------------------------------------------- WHOIS

TEST(WhoisTest, DefaultPlanLookups) {
  const WhoisDb db = addrplan::defaultWhois();
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 1, 2, 7)), "Microsoft");
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 2, 1, 1)), "Meta");
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 3, 1, 1)), "AWS");
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 4, 9, 1)), "Cloudflare");
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 5, 9, 1)), "ANS");
  EXPECT_EQ(db.ownerOf(Ipv4Address(1, 1, 1, 1)), "unknown");
}

TEST(WhoisTest, GeolocationAndAnycastMasking) {
  const WhoisDb db = addrplan::defaultWhois();
  EXPECT_EQ(db.geolocate(Ipv4Address(100, 1, 2, 7)), "us-west");
  EXPECT_EQ(db.geolocate(Ipv4Address(100, 3, 1, 9)), "us-east");
  // Anycast blocks geolocate as "-" (the paper marks those locations "-").
  EXPECT_EQ(db.geolocate(Ipv4Address(100, 4, 9, 1)), "-");
  EXPECT_EQ(db.geolocate(Ipv4Address(9, 9, 9, 9)), "-");
}

TEST(WhoisTest, LongestPrefixWins) {
  WhoisDb db;
  db.add(WhoisRecord{Ipv4Address(100, 0, 0, 0), 8, "broad", "x", false});
  db.add(WhoisRecord{Ipv4Address(100, 1, 0, 0), 16, "narrow", "y", false});
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 1, 1, 1)), "narrow");
  EXPECT_EQ(db.ownerOf(Ipv4Address(100, 2, 1, 1)), "broad");
}

// -------------------------------------------------------------------- tools

class ToolsFixture : public FabricFixture {
 protected:
  void SetUp() override {
    client = &fabric.attachHost("client", regions::usEast(), Ipv4Address(10, 0, 0, 1));
    server = &fabric.attachHost("server", regions::usWest(), Ipv4Address(100, 1, 2, 1));
    TransportMux::of(*server);
  }
  Node* client{};
  Node* server{};
};

TEST_F(ToolsFixture, PingCountsLostProbes) {
  server->setIcmpEchoEnabled(false);
  PingTool pinger{*client};
  PingResult result;
  pinger.ping(server->primaryAddress(), 3, [&](const PingResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.sent, 3);
  EXPECT_EQ(result.received, 0);
  EXPECT_FALSE(result.reachable());
}

TEST_F(ToolsFixture, TcpPingMeasuresRttWhenIcmpBlocked) {
  server->setIcmpEchoEnabled(false);
  TcpListener listener{*server, 443};
  TcpPingTool pinger{*client};
  PingResult result;
  pinger.ping(Endpoint{server->primaryAddress(), 443}, 3,
              [&](const PingResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.received, 3);
  EXPECT_NEAR(result.rttMs.mean(), 72.0, 8.0);
}

TEST_F(ToolsFixture, TcpPingAgainstClosedPortStillMeasures) {
  TcpPingTool pinger{*client};
  PingResult result;
  pinger.ping(Endpoint{server->primaryAddress(), 9999}, 2,
              [&](const PingResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.received, 2);  // RSTs time the path too
  EXPECT_NEAR(result.rttMs.mean(), 72.0, 8.0);
}

TEST_F(ToolsFixture, AnycastInferenceFlagsAnycastTarget) {
  Node& v1 = fabric.attachHost("v-north", regions::usNorth(), Ipv4Address(10, 1, 0, 1));
  Node& v2 = fabric.attachHost("v-me", regions::middleEast(), Ipv4Address(10, 2, 0, 1));
  Node& repE = fabric.attachHost("rep-e", regions::usEast(), Ipv4Address(100, 4, 1, 9));
  Node& repN = fabric.attachHost("rep-n", regions::usNorth(), Ipv4Address(100, 4, 1, 10));
  Node& repM = fabric.attachHost("rep-m", regions::middleEast(), Ipv4Address(100, 4, 1, 11));
  TransportMux::of(repE);
  TransportMux::of(repN);
  TransportMux::of(repM);
  const Ipv4Address anycast{100, 4, 9, 1};
  fabric.advertiseAnycast(anycast, {&repE, &repN, &repM});

  AnycastReport report;
  AnycastInference::run(sim, {client, &v1, &v2}, anycast,
                        [&](const AnycastReport& r) { report = r; });
  sim.run();
  EXPECT_TRUE(report.likelyAnycast);
}

TEST_F(ToolsFixture, AnycastInferenceClearsUnicastTarget) {
  Node& v1 = fabric.attachHost("v-north", regions::usNorth(), Ipv4Address(10, 1, 0, 1));
  Node& v2 = fabric.attachHost("v-me", regions::middleEast(), Ipv4Address(10, 2, 0, 1));
  AnycastReport report;
  report.likelyAnycast = true;
  AnycastInference::run(sim, {client, &v1, &v2}, server->primaryAddress(),
                        [&](const AnycastReport& r) { report = r; });
  sim.run();
  EXPECT_FALSE(report.likelyAnycast);  // RTTs grow with distance
}

}  // namespace
}  // namespace msim
