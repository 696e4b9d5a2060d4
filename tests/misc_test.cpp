// Cross-cutting properties: determinism, capture configuration, connection
// reuse, fabric aliasing — the guarantees the experiment harness rests on.

#include <gtest/gtest.h>

#include "core/experiments.hpp"

namespace msim {
namespace {

// The whole study depends on this: identical seeds -> identical runs.
TEST(DeterminismTest, SameSeedSameBytes) {
  auto run = [](std::uint64_t seed) {
    Testbed bed{seed};
    bed.deploy(platforms::worlds());
    TestUserConfig cfg;
    cfg.wander = true;  // exercises the RNG-heavy paths too
    TestUser& u1 = bed.addUser(cfg);
    TestUser& u2 = bed.addUser(cfg);
    bed.sim().schedule(TimePoint::epoch(), [&] {
      u1.client->launch();
      u2.client->launch();
      u1.client->joinEvent();
      u2.client->joinEvent();
    });
    bed.sim().runFor(Duration::seconds(30));
    return std::make_pair(u1.capture->series(Channel::DataUp).total(),
                          u1.capture->series(Channel::DataDown).total());
  };
  const auto a = run(4242);
  const auto b = run(4242);
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  const auto c = run(4243);
  EXPECT_NE(a.first, c.first);  // different seed, different stochastic path
}

TEST(DeterminismTest, ExperimentRowsAreReproducible) {
  const TwoUserThroughputRow r1 = runTwoUserThroughput(platforms::vrchat(), 2);
  const TwoUserThroughputRow r2 = runTwoUserThroughput(platforms::vrchat(), 2);
  EXPECT_DOUBLE_EQ(r1.upKbps, r2.upKbps);
  EXPECT_DOUBLE_EQ(r1.downKbps, r2.downKbps);
  EXPECT_DOUBLE_EQ(r1.avatarKbps, r2.avatarKbps);
}

// A default agent keeps no per-packet log, yet counts and bins every packet;
// asking for records changes nothing the simulation can see.
TEST(CaptureTest, RecordsAreOptIn) {
  struct Outcome {
    std::uint64_t digest{0};
    std::vector<std::uint64_t> packets;
    std::vector<std::vector<double>> bins;  // per user: channels, then protos
    std::vector<std::size_t> records;
  };
  auto run = [](bool keep) {
    Outcome out;
    Testbed bed{7};
    bed.sim().enableAudit();
    bed.deploy(platforms::vrchat());
    for (int i = 0; i < 3; ++i) bed.addUser();
    if (keep) {
      for (auto& u : bed.users()) u->capture->keepRecords();
    }
    AutoDriver driver{bed};
    driver.play(launchThenJoinScript(3, Duration::zero(), Duration::seconds(1),
                                     Duration::seconds(1)));
    bed.sim().runFor(Duration::seconds(10));
    out.digest = bed.sim().auditDigest();
    for (auto& u : bed.users()) {
      const CaptureAgent& cap = *u->capture;
      out.packets.push_back(cap.packetCount());
      out.records.push_back(cap.records().size());
      EXPECT_GT(cap.series(Channel::DataUp).total(), 0.0);
      EXPECT_GT(cap.protoSeries(IpProto::Tcp, false).total(), 0.0);
      auto& bins = out.bins.emplace_back();
      auto add = [&bins](const BinnedSeries& s) {
        bins.push_back(static_cast<double>(s.binCount()));
        for (std::size_t i = 0; i < s.binCount(); ++i) bins.push_back(s.binSum(i));
      };
      for (const Channel c : {Channel::ControlUp, Channel::ControlDown,
                              Channel::DataUp, Channel::DataDown, Channel::Other}) {
        add(cap.series(c));
      }
      for (const IpProto proto : {IpProto::Udp, IpProto::Tcp, IpProto::Icmp}) {
        for (const bool uplink : {false, true}) add(cap.protoSeries(proto, uplink));
      }
    }
    return out;
  };
  const Outcome plain = run(false);
  const Outcome kept = run(true);

  ASSERT_EQ(plain.packets.size(), 3u);
  for (std::size_t i = 0; i < plain.packets.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(plain.records[i], 0u);  // no per-packet records by default
    EXPECT_GT(plain.packets[i], 0u);  // but counting and binning continue
    EXPECT_EQ(kept.records[i], kept.packets[i]);  // one record per packet
  }
  EXPECT_NE(plain.digest, 0u);
  EXPECT_EQ(plain.digest, kept.digest);
  EXPECT_EQ(plain.packets, kept.packets);
  EXPECT_EQ(plain.bins, kept.bins);
}

TEST(HttpReuseTest, SecondRequestSkipsHandshakes) {
  Simulator sim{7};
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.delay = Duration::millis(20);
  auto [da, db] = Link::connect(a, b, cfg);
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);
  HttpServer server{b, 443};
  server.route("/", [](const HttpRequest&) { return HttpResponse{}; });
  HttpClient client{a};
  Duration first;
  Duration second;
  client.request(Endpoint{b.primaryAddress(), 443}, HttpRequest{"/a"},
                 [&](const HttpResponse&, Duration d) { first = d; });
  sim.run();
  client.request(Endpoint{b.primaryAddress(), 443}, HttpRequest{"/b"},
                 [&](const HttpResponse&, Duration d) { second = d; });
  sim.run();
  // First: TCP + TLS handshakes + request = 3 RTT (120 ms). Second: 1 RTT.
  EXPECT_GT(first.toMillis(), 100.0);
  EXPECT_LT(second.toMillis(), 60.0);
}

TEST(FabricTest, HostAliasRoutesThroughTheHost) {
  Simulator sim{7};
  Network net{sim};
  InternetFabric fabric{net};
  Node& gateway = fabric.attachHost("gw", regions::usEast(), Ipv4Address(10, 1, 0, 1));
  Node& remote = fabric.attachHost("remote", regions::usWest(), Ipv4Address(10, 2, 0, 1));
  // A device behind the gateway.
  Node& inner = net.addNode("inner");
  const Ipv4Address innerAddr{10, 1, 0, 2};
  inner.addAddress(innerAddr);
  auto [devInner, devGw] = Link::connect(inner, gateway, LinkConfig{});
  inner.setDefaultRoute(devInner);
  gateway.addHostRoute(innerAddr, devGw);
  fabric.addHostAlias(gateway, innerAddr);

  int delivered = 0;
  inner.setLocalHandler([&](const Packet&) { ++delivered; });
  Packet p;
  p.src = remote.primaryAddress();
  p.dst = innerAddr;
  p.proto = IpProto::Udp;
  p.payloadBytes = ByteSize::bytes(10);
  remote.sendFromLocal(std::move(p));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(FabricTest, RegionOfTracksAttachments) {
  Simulator sim{7};
  Network net{sim};
  InternetFabric fabric{net};
  Node& host = fabric.attachHost("h", regions::europe(), Ipv4Address(10, 9, 0, 1));
  ASSERT_NE(fabric.regionOf(&host), nullptr);
  EXPECT_EQ(fabric.regionOf(&host)->name, "europe");
  Node& stranger = net.addNode("stranger");
  EXPECT_EQ(fabric.regionOf(&stranger), nullptr);
}

TEST(MetricsTest, AverageOverEmptyWindowIsZeroes) {
  Simulator sim{1};
  RenderPipeline pipeline{sim, devices::quest2()};
  OvrMetricsSampler metrics{sim, pipeline};
  const MetricsSample avg =
      metrics.averageOver(TimePoint::epoch(), TimePoint::epoch() + Duration::seconds(5));
  EXPECT_DOUBLE_EQ(avg.fps, 0.0);
  EXPECT_DOUBLE_EQ(avg.cpuUtilPct, 0.0);
}

TEST(SimulatorTest, HeavySchedulingRemainsOrdered) {
  // Stress: thousands of interleaved timers preserve time order.
  Simulator sim{99};
  TimePoint last = TimePoint::epoch();
  bool ordered = true;
  for (int i = 0; i < 20'000; ++i) {
    sim.scheduleAfter(Duration::micros(sim.rng().uniform(0, 1e6)), [&, i] {
      if (sim.now() < last) ordered = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(ordered);
}

}  // namespace
}  // namespace msim
