// Unit tests for the net substrate: addressing, links, queues, routing,
// TTL/ICMP, netem, capture taps.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/netem.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"

namespace msim {
namespace {

Packet makeUdpPacket(Ipv4Address src, Ipv4Address dst, std::int64_t bytes) {
  Packet p;
  p.uid = nextPacketUid();
  p.src = src;
  p.dst = dst;
  p.proto = IpProto::Udp;
  p.overheadBytes = wire::kEthIpUdp;
  p.payloadBytes = ByteSize::bytes(bytes);
  return p;
}

// ------------------------------------------------------------------ Address

TEST(AddressTest, DottedQuadFormat) {
  EXPECT_EQ(Ipv4Address(10, 1, 2, 3).toString(), "10.1.2.3");
  EXPECT_EQ(Ipv4Address{}.toString(), "0.0.0.0");
  EXPECT_TRUE(Ipv4Address{}.isUnspecified());
}

TEST(AddressTest, PrefixMatching) {
  const Ipv4Address addr{10, 1, 2, 3};
  EXPECT_TRUE(addr.inPrefix(Ipv4Address(10, 1, 0, 0), 16));
  EXPECT_TRUE(addr.inPrefix(Ipv4Address(10, 1, 2, 3), 32));
  EXPECT_FALSE(addr.inPrefix(Ipv4Address(10, 2, 0, 0), 16));
  EXPECT_TRUE(addr.inPrefix(Ipv4Address{}, 0));  // default route matches all
}

TEST(AddressTest, EndpointEqualityAndHash) {
  const Endpoint a{Ipv4Address(1, 2, 3, 4), 80};
  const Endpoint b{Ipv4Address(1, 2, 3, 4), 80};
  const Endpoint c{Ipv4Address(1, 2, 3, 4), 81};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.toString(), "1.2.3.4:80");
}

// ------------------------------------------------------------------- Packet

TEST(PacketTest, WireSizeIncludesOverhead) {
  const auto p = makeUdpPacket(Ipv4Address(1, 0, 0, 1), Ipv4Address(1, 0, 0, 2), 100);
  EXPECT_EQ(p.wireSize().toBytes(), 100 + wire::kEthIpUdp);
}

TEST(PacketTest, HeaderVariantAccess) {
  Packet p;
  EXPECT_EQ(p.tcp(), nullptr);
  EXPECT_EQ(p.icmp(), nullptr);
  p.l4 = TcpHeader{};
  EXPECT_NE(p.tcp(), nullptr);
  p.l4 = IcmpHeader{};
  EXPECT_NE(p.icmp(), nullptr);
}

// ----------------------------------------------------------- link transport

class TwoNodeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    a = &net.addNode("a");
    b = &net.addNode("b");
    a->addAddress(Ipv4Address(10, 0, 0, 1));
    b->addAddress(Ipv4Address(10, 0, 0, 2));
    LinkConfig cfg;
    cfg.rate = DataRate::mbps(8);           // 1 byte per microsecond
    cfg.delay = Duration::millis(1);
    auto [devA, devB] = Link::connect(*a, *b, cfg);
    a->setDefaultRoute(devA);
    b->setDefaultRoute(devB);
    this->devA = &devA;
    this->devB = &devB;
  }

  Simulator sim{1};
  Network net{sim};
  Node* a{};
  Node* b{};
  NetDevice* devA{};
  NetDevice* devB{};
};

TEST_F(TwoNodeFixture, DeliversWithSerializationPlusPropagation) {
  TimePoint arrival;
  b->setLocalHandler([&](const Packet&) { arrival = sim.now(); });
  // 1000 B payload + 42 B overhead = 1042 B -> 1.042 ms at 8 Mbps, + 1 ms prop.
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 1000));
  sim.run();
  EXPECT_NEAR(arrival.toMillis(), 1.042 + 1.0, 1e-6);
}

TEST_F(TwoNodeFixture, BackToBackPacketsSerialize) {
  std::vector<double> arrivals;
  b->setLocalHandler([&](const Packet&) { arrivals.push_back(sim.now().toMillis()); });
  for (int i = 0; i < 3; ++i) {
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  }
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  // 1000 B wire each -> 1 ms serialization; arrivals 1 ms apart.
  EXPECT_NEAR(arrivals[1] - arrivals[0], 1.0, 1e-6);
  EXPECT_NEAR(arrivals[2] - arrivals[1], 1.0, 1e-6);
}

TEST_F(TwoNodeFixture, QueueOverflowDropsTail) {
  // Shrink the queue: reconnect with a tiny limit.
  LinkConfig cfg;
  cfg.rate = DataRate::kbps(80);  // slow: 100 ms per 1000 B packet
  cfg.delay = Duration::millis(1);
  cfg.queueLimit = ByteSize::bytes(2100);  // about two packets
  auto [devA2, devB2] = Link::connect(*a, *b, cfg);
  a->setDefaultRoute(devA2);
  int received = 0;
  b->setLocalHandler([&](const Packet&) { ++received; });
  for (int i = 0; i < 10; ++i) {
    a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 958));
  }
  sim.run();
  EXPECT_LT(received, 10);
  EXPECT_GT(devA2.queueDrops(), 0u);
  EXPECT_EQ(received + static_cast<int>(devA2.queueDrops()), 10);
}

TEST_F(TwoNodeFixture, LoopbackDeliversLocally) {
  int received = 0;
  a->setLocalHandler([&](const Packet&) { ++received; });
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), a->primaryAddress(), 10));
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST_F(TwoNodeFixture, UnroutableCountsDrop) {
  Node& c = net.addNode("c");
  c.addAddress(Ipv4Address(10, 0, 0, 3));
  c.sendFromLocal(makeUdpPacket(c.primaryAddress(), a->primaryAddress(), 10));
  sim.run();
  EXPECT_EQ(c.unroutableDrops(), 1u);
}

TEST_F(TwoNodeFixture, TapsSeeBothDirections) {
  int egress = 0;
  int ingress = 0;
  std::vector<TimePoint> egressAt;
  std::vector<TimePoint> ingressAt;
  devA->addTap([&](const Packet&, TapDir dir) {
    (dir == TapDir::Egress ? egress : ingress) += 1;
    (dir == TapDir::Egress ? egressAt : ingressAt).push_back(devA->tapTime());
    // Ingress is shown at arrival; egress at acceptance, never later than
    // the transmission start it reports.
    if (dir == TapDir::Ingress) EXPECT_EQ(devA->tapTime(), sim.now());
    if (dir == TapDir::Egress) EXPECT_GE(devA->tapTime(), sim.now());
  });
  b->setLocalHandler([](const Packet&) {});
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 100));
  sim.run();
  EXPECT_EQ(egress, 1);
  EXPECT_EQ(ingress, 0);  // no reply yet
  b->sendFromLocal(makeUdpPacket(b->primaryAddress(), a->primaryAddress(), 100));
  a->setLocalHandler([](const Packet&) {});
  sim.run();
  EXPECT_EQ(ingress, 1);
  ASSERT_EQ(ingressAt.size(), 1u);
  EXPECT_EQ(ingressAt[0], sim.now());

  // Two packets accepted at the same instant: the second waits in the queue
  // behind the first, and its egress tap reports its transmission start.
  const TimePoint t0 = sim.now();
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 100));
  a->sendFromLocal(makeUdpPacket(a->primaryAddress(), b->primaryAddress(), 100));
  sim.run();
  ASSERT_EQ(egressAt.size(), 3u);
  EXPECT_EQ(egressAt[0], TimePoint::epoch());
  EXPECT_EQ(egressAt[1], t0);
  // 142 B of wire at 1 B/us.
  EXPECT_EQ(egressAt[2], t0 + Duration::micros(142));
}

// ------------------------------------------------------------- link config

// Connects two fresh nodes with `cfg` in one direction and a good config in
// the other; reports whether Link::connect accepted it and, on rejection,
// that neither node gained a device.
bool connectAccepts(const LinkConfig& cfg, bool reverse = false) {
  Simulator sim;
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  try {
    if (reverse) {
      Link::connect(a, b, LinkConfig{}, cfg);
    } else {
      Link::connect(a, b, cfg, LinkConfig{});
    }
  } catch (const std::invalid_argument&) {
    EXPECT_TRUE(a.devices().empty());
    EXPECT_TRUE(b.devices().empty());
    return false;
  }
  return true;
}

TEST(LinkConfigTest, RejectsZeroRate) {
  LinkConfig cfg;
  cfg.rate = DataRate::zero();
  EXPECT_FALSE(connectAccepts(cfg));
  EXPECT_FALSE(connectAccepts(cfg, /*reverse=*/true));
}

TEST(LinkConfigTest, RejectsNegativeRate) {
  LinkConfig cfg;
  cfg.rate = DataRate::kbps(-5);
  EXPECT_FALSE(connectAccepts(cfg));
}

TEST(LinkConfigTest, RejectsNegativeDelay) {
  LinkConfig cfg;
  cfg.delay = Duration::micros(-1);
  EXPECT_FALSE(connectAccepts(cfg));
  EXPECT_FALSE(connectAccepts(cfg, /*reverse=*/true));
}

TEST(LinkConfigTest, RejectsNonPositiveQueueLimit) {
  LinkConfig cfg;
  cfg.queueLimit = ByteSize::zero();
  EXPECT_FALSE(connectAccepts(cfg));
  cfg.queueLimit = ByteSize::bytes(-1);
  EXPECT_FALSE(connectAccepts(cfg, /*reverse=*/true));
}

TEST(LinkConfigTest, AcceptsUnlimitedRateAndBoundaryValues) {
  LinkConfig cfg;
  cfg.rate = DataRate::unlimited();
  cfg.delay = Duration::zero();
  cfg.queueLimit = ByteSize::bytes(1);
  EXPECT_TRUE(connectAccepts(cfg));
  EXPECT_TRUE(connectAccepts(LinkConfig{}));
}

// ------------------------------------------------------------------ routing

TEST(RoutingTest, LongestPrefixWins) {
  Simulator sim;
  Network net{sim};
  Node& r = net.addNode("r");
  Node& n1 = net.addNode("n1");
  Node& n2 = net.addNode("n2");
  n1.addAddress(Ipv4Address(10, 1, 0, 1));
  n2.addAddress(Ipv4Address(10, 1, 2, 1));
  LinkConfig cfg;
  auto [r1, n1d] = Link::connect(r, n1, cfg);
  auto [r2, n2d] = Link::connect(r, n2, cfg);
  r.addPrefixRoute(Ipv4Address(10, 1, 0, 0), 16, r1);
  r.addPrefixRoute(Ipv4Address(10, 1, 2, 0), 24, r2);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 0, 5)), &r1);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 2, 5)), &r2);
  EXPECT_EQ(r.route(Ipv4Address(9, 9, 9, 9)), nullptr);
  // A host route beats every shorter prefix; the first one added for an
  // address wins; the default route catches the rest.
  r.addHostRoute(Ipv4Address(10, 1, 2, 7), r1);
  r.addHostRoute(Ipv4Address(10, 1, 2, 7), r2);
  r.setDefaultRoute(r2);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 2, 7)), &r1);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 2, 8)), &r2);
  EXPECT_EQ(r.route(Ipv4Address(10, 1, 0, 7)), &r1);
  EXPECT_EQ(r.route(Ipv4Address(9, 9, 9, 9)), &r2);
}

TEST(RoutingTest, MultiHopForwardingDecrementsTtl) {
  Simulator sim;
  Network net{sim};
  Node& src = net.addNode("src");
  Node& r1 = net.addNode("r1");
  Node& r2 = net.addNode("r2");
  Node& dst = net.addNode("dst");
  src.addAddress(Ipv4Address(10, 0, 0, 1));
  dst.addAddress(Ipv4Address(10, 0, 0, 9));
  LinkConfig cfg;
  auto [s1, r1a] = Link::connect(src, r1, cfg);
  auto [r1b, r2a] = Link::connect(r1, r2, cfg);
  auto [r2b, d1] = Link::connect(r2, dst, cfg);
  src.setDefaultRoute(s1);
  r1.setDefaultRoute(r1b);
  r2.setDefaultRoute(r2b);
  dst.setDefaultRoute(d1);

  std::uint8_t ttlAtArrival = 0;
  dst.setLocalHandler([&](const Packet& p) { ttlAtArrival = p.ttl; });
  auto p = makeUdpPacket(src.primaryAddress(), dst.primaryAddress(), 100);
  p.ttl = 64;
  src.sendFromLocal(std::move(p));
  sim.run();
  EXPECT_EQ(ttlAtArrival, 62);  // two forwarding hops
}

TEST(RoutingTest, TtlExpiryGeneratesTimeExceeded) {
  Simulator sim;
  Network net{sim};
  Node& src = net.addNode("src");
  Node& r1 = net.addNode("r1");
  Node& dst = net.addNode("dst");
  src.addAddress(Ipv4Address(10, 0, 0, 1));
  r1.addAddress(Ipv4Address(10, 0, 0, 5));
  dst.addAddress(Ipv4Address(10, 0, 0, 9));
  LinkConfig cfg;
  auto [s1, r1a] = Link::connect(src, r1, cfg);
  auto [r1b, d1] = Link::connect(r1, dst, cfg);
  src.setDefaultRoute(s1);
  r1.setDefaultRoute(r1b);
  r1.addHostRoute(src.primaryAddress(), r1a);  // reverse path for ICMP
  dst.setDefaultRoute(d1);

  Ipv4Address reporter;
  IcmpType type{};
  Ipv4Address reportedDst;
  src.addIcmpListener([&](const Packet& p) {
    reporter = p.src;
    if (const auto* h = p.icmp()) {
      type = h->type;
      reportedDst = h->originalDst;
    }
  });
  auto p = makeUdpPacket(src.primaryAddress(), dst.primaryAddress(), 40);
  p.ttl = 1;  // expires at r1
  p.dstPort = 33434;
  src.sendFromLocal(std::move(p));
  sim.run();
  EXPECT_EQ(reporter, r1.primaryAddress());
  EXPECT_EQ(type, IcmpType::TimeExceeded);
  EXPECT_EQ(reportedDst, dst.primaryAddress());
}

TEST(RoutingTest, IcmpEchoRoundTrip) {
  Simulator sim;
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  LinkConfig cfg;
  cfg.delay = Duration::millis(5);
  auto [da, db] = Link::connect(a, b, cfg);
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);

  TimePoint replyAt;
  bool gotReply = false;
  a.addIcmpListener([&](const Packet& p) {
    if (const auto* h = p.icmp(); h != nullptr && h->type == IcmpType::EchoReply) {
      gotReply = true;
      replyAt = sim.now();
    }
  });
  Packet probe;
  probe.src = a.primaryAddress();
  probe.dst = b.primaryAddress();
  probe.proto = IpProto::Icmp;
  probe.overheadBytes = wire::kEthIpIcmp;
  probe.payloadBytes = ByteSize::bytes(56);
  probe.l4 = IcmpHeader{IcmpType::EchoRequest, 7, 1, {}, 0};
  a.sendFromLocal(std::move(probe));
  sim.run();
  EXPECT_TRUE(gotReply);
  EXPECT_GE(replyAt.toMillis(), 10.0);  // two propagation legs
}

TEST(RoutingTest, EchoDisabledStaysSilent) {
  Simulator sim;
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  b.setIcmpEchoEnabled(false);
  auto [da, db] = Link::connect(a, b, LinkConfig{});
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);
  bool gotReply = false;
  a.addIcmpListener([&](const Packet&) { gotReply = true; });
  Packet probe;
  probe.src = a.primaryAddress();
  probe.dst = b.primaryAddress();
  probe.proto = IpProto::Icmp;
  probe.l4 = IcmpHeader{IcmpType::EchoRequest, 1, 1, {}, 0};
  a.sendFromLocal(std::move(probe));
  sim.run();
  EXPECT_FALSE(gotReply);
}

TEST(RoutingTest, AnycastPicksPerVantageReplica) {
  // Two replicas own the same address; routing decides which one answers.
  Simulator sim;
  Network net{sim};
  Node& client = net.addNode("client");
  Node& nearRep = net.addNode("near");
  Node& farRep = net.addNode("far");
  const Ipv4Address anycast{100, 0, 0, 1};
  client.addAddress(Ipv4Address(10, 0, 0, 1));
  nearRep.addAddress(anycast);
  farRep.addAddress(anycast);
  LinkConfig nearCfg;
  nearCfg.delay = Duration::millis(1);
  LinkConfig farCfg;
  farCfg.delay = Duration::millis(40);
  auto [cn, nc] = Link::connect(client, nearRep, nearCfg);
  auto [cf, fc] = Link::connect(client, farRep, farCfg);
  client.addHostRoute(anycast, cn);  // routing prefers the near replica
  nearRep.setDefaultRoute(nc);
  farRep.setDefaultRoute(fc);

  TimePoint replyAt;
  client.addIcmpListener([&](const Packet&) { replyAt = sim.now(); });
  Packet probe;
  probe.src = client.primaryAddress();
  probe.dst = anycast;
  probe.proto = IpProto::Icmp;
  probe.l4 = IcmpHeader{IcmpType::EchoRequest, 1, 1, {}, 0};
  client.sendFromLocal(std::move(probe));
  sim.run();
  EXPECT_LT(replyAt.toMillis(), 5.0);  // answered by the near replica
}

// -------------------------------------------------------------------- netem

TEST(NetemTest, TransparentByDefault) {
  Netem netem;
  Rng rng{1};
  const auto v = netem.apply(TimePoint::epoch(), ByteSize::bytes(1000), rng);
  EXPECT_FALSE(v.drop);
  EXPECT_TRUE(v.holdFor.isZero());
}

TEST(NetemTest, FullLossDropsEverything) {
  Netem netem;
  NetemConfig cfg;
  cfg.lossRate = 1.0;
  netem.configure(cfg);
  Rng rng{1};
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng).drop);
  }
  EXPECT_EQ(netem.droppedByLoss(), 50u);
}

TEST(NetemTest, PartialLossApproximatesRate) {
  Netem netem;
  NetemConfig cfg;
  cfg.lossRate = 0.2;
  netem.configure(cfg);
  Rng rng{42};
  int drops = 0;
  for (int i = 0; i < 10000; ++i) {
    drops += netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng).drop ? 1 : 0;
  }
  EXPECT_NEAR(drops / 10000.0, 0.2, 0.02);
}

TEST(NetemTest, DelayAddsHold) {
  Netem netem;
  NetemConfig cfg;
  cfg.delay = Duration::millis(100);
  netem.configure(cfg);
  Rng rng{1};
  const auto v = netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.holdFor.toMillis(), 100.0);
}

TEST(NetemTest, RateLimitSpacesPackets) {
  Netem netem;
  NetemConfig cfg;
  cfg.rateLimit = DataRate::mbps(1);  // 1000 B -> 8 ms
  netem.configure(cfg);
  Rng rng{1};
  const auto t0 = TimePoint::epoch();
  const auto v1 = netem.apply(t0, ByteSize::bytes(1000), rng);
  const auto v2 = netem.apply(t0, ByteSize::bytes(1000), rng);
  EXPECT_NEAR(v1.holdFor.toMillis(), 8.0, 1e-6);
  EXPECT_NEAR(v2.holdFor.toMillis(), 16.0, 1e-6);
}

TEST(NetemTest, ShaperBufferOverflowDrops) {
  Netem netem;
  NetemConfig cfg;
  cfg.rateLimit = DataRate::kbps(100);
  cfg.shaperBuffer = ByteSize::bytes(3000);
  netem.configure(cfg);
  Rng rng{1};
  int drops = 0;
  for (int i = 0; i < 50; ++i) {
    drops += netem.apply(TimePoint::epoch(), ByteSize::bytes(1000), rng).drop ? 1 : 0;
  }
  EXPECT_GT(drops, 0);
  EXPECT_EQ(netem.droppedByShaper(), static_cast<std::uint64_t>(drops));
}

TEST(NetemTest, JitterBoundsHold) {
  Netem netem;
  NetemConfig cfg;
  cfg.delay = Duration::millis(50);
  cfg.jitter = Duration::millis(10);
  netem.configure(cfg);
  Rng rng{9};
  for (int i = 0; i < 500; ++i) {
    const auto v = netem.apply(TimePoint::epoch(), ByteSize::bytes(100), rng);
    EXPECT_GE(v.holdFor.toMillis(), 40.0 - 1e-9);
    EXPECT_LE(v.holdFor.toMillis(), 60.0 + 1e-9);
  }
}

TEST(NetemTest, ResetClearsState) {
  Netem netem;
  NetemConfig cfg;
  cfg.delay = Duration::millis(100);
  netem.configure(cfg);
  netem.reset();
  Rng rng{1};
  EXPECT_TRUE(netem.apply(TimePoint::epoch(), ByteSize::bytes(1), rng).holdFor.isZero());
}

TEST(NetemDeviceTest, LossyLinkDropsTraffic) {
  Simulator sim{7};
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  auto [da, db] = Link::connect(a, b, LinkConfig{});
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);
  NetemConfig cfg;
  cfg.lossRate = 0.5;
  da.netem().configure(cfg);
  int received = 0;
  b.setLocalHandler([&](const Packet&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    a.sendFromLocal(makeUdpPacket(a.primaryAddress(), b.primaryAddress(), 100));
  }
  sim.run();
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
}

// A cut-through admission is made at acceptance upstream under the outbound
// device's netem config of that moment. Reconfiguring that netem before the
// packet's arrival at the AP would silently diverge from the one-event-per-
// hop model, which applies the config at the arrival, so it throws.
TEST(NetemDeviceTest, ReconfiguringACutThroughTargetAheadOfItsAdmissionThrows) {
  Simulator sim{7};
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

  // Accepted at 0, at the AP ~0.51 ms later.
  r.sendFromLocal(makeUdpPacket(r.primaryAddress(), leaf.primaryAddress(), 1000));
  ASSERT_EQ(u.cutThroughs(), 1u);
  NetemConfig slow;
  slow.delay = Duration::millis(1);
  sim.schedule(TimePoint::epoch() + Duration::micros(100), [&] {
    EXPECT_THROW(d.netem().configure(slow), std::logic_error);
    EXPECT_THROW(d.netem().reset(), std::logic_error);
    // Devices whose config the admission did not read stay free to change.
    EXPECT_NO_THROW(rev.netem().configure(slow));
  });
  sim.schedule(TimePoint::epoch() + Duration::millis(1),
               [&] { EXPECT_NO_THROW(d.netem().configure(slow)); });
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(d.netem().config().delay, slow.delay);
}

// ------------------------------------------- device model vs closed form
//
// A random multi-hop UDP workload through small drop-tail queues, checked
// against the transmitter model written out in closed form: a packet
// accepted at `now` starts at max(now, busyUntil), arrives at the next hop
// at start + tx + delay, and is dropped iff the backlog (accepted packets
// whose start lies after `now`) is non-empty and its bytes plus the new
// packet's exceed the queue limit. Send times are distinct to the
// nanosecond and the reference checks that no device ever sees two
// admissions at one instant, so the reference is free of tie-order choices.
// (key, nanoseconds): an egress start, an arrival or a delivery.
using Line = std::pair<std::uint64_t, std::int64_t>;

// One device of the closed-form reference. `ties` counts admissions at the
// instant of the previous one; the workloads keep it at 0 so the reference
// is free of tie-order choices.
struct ClosedFormDevice {
  explicit ClosedFormDevice(const LinkConfig& config) : cfg{config} {}

  LinkConfig cfg;
  std::int64_t busyUntil{0};
  std::int64_t lastAdmission{-1};
  std::deque<std::pair<std::int64_t, std::int64_t>> backlog;  // start, wire
  std::int64_t backlogBytes{0};
  std::uint64_t drops{0};
  std::uint64_t ties{0};
  std::vector<Line> starts;

  // Admits `key` at `at`; returns its arrival at the far end, or -1 when
  // the drop-tail queue drops it.
  std::int64_t admit(std::int64_t at, std::uint64_t key, std::int64_t wire) {
    if (at == lastAdmission) ++ties;
    lastAdmission = at;
    while (!backlog.empty() && backlog.front().first <= at) {
      backlogBytes -= backlog.front().second;
      backlog.pop_front();
    }
    if (!backlog.empty() && backlogBytes + wire > cfg.queueLimit.toBytes()) {
      ++drops;
      return -1;
    }
    const std::int64_t start = std::max(at, busyUntil);
    busyUntil = start + cfg.rate.transmissionTime(ByteSize::bytes(wire)).toNanos();
    backlog.emplace_back(start, wire);
    backlogBytes += wire;
    starts.emplace_back(key, start);
    return busyUntil + cfg.delay.toNanos();
  }
};

TEST(DeviceModelTest, MultiHopWorkloadMatchesClosedFormReference) {
  constexpr int kSources = 4;
  constexpr int kPerSource = 3000;
  Simulator sim{1};
  Network net{sim};
  Node& r1 = net.addNode("r1");
  Node& r2 = net.addNode("r2");
  Node& dst = net.addNode("dst");
  dst.addAddress(Ipv4Address(10, 9, 0, 1));

  // Device index: 0..3 the source uplinks, 4 = r1 -> r2 (the bottleneck),
  // 5 = r2 -> dst. next[i] is the device a packet leaving i is admitted to
  // (-1: delivered to dst).
  std::vector<NetDevice*> devs;
  std::vector<LinkConfig> cfgs;
  std::vector<int> next;
  std::vector<Node*> sources;
  for (int i = 0; i < kSources; ++i) {
    Node& src = net.addNode("s" + std::to_string(i));
    src.addAddress(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)));
    LinkConfig cfg;
    cfg.rate = DataRate::mbps(40 + 10 * i);
    cfg.delay = Duration::nanos(20'011 + 1'013 * i);
    cfg.queueLimit = ByteSize::bytes(2'500);
    auto [up, down] = Link::connect(src, r1, cfg);
    src.setDefaultRoute(up);
    devs.push_back(&up);
    cfgs.push_back(cfg);
    next.push_back(4);
    sources.push_back(&src);
  }
  LinkConfig trunk;
  trunk.rate = DataRate::mbps(60);
  trunk.delay = Duration::nanos(1'000'003);
  trunk.queueLimit = ByteSize::bytes(6'000);
  auto [r1out, r2in] = Link::connect(r1, r2, trunk);
  r1.setDefaultRoute(r1out);
  devs.push_back(&r1out);
  cfgs.push_back(trunk);
  next.push_back(5);
  LinkConfig edge;
  edge.rate = DataRate::mbps(45);
  edge.delay = Duration::nanos(50'021);
  edge.queueLimit = ByteSize::bytes(4'000);
  auto [r2out, dstIn] = Link::connect(r2, dst, edge);
  r2.setDefaultRoute(r2out);
  devs.push_back(&r2out);
  cfgs.push_back(edge);
  next.push_back(-1);

  // Observed: every egress (uid, tapTime) per device, every arrival at dst.
  std::vector<std::vector<Line>> tapped(devs.size());
  for (std::size_t d = 0; d < devs.size(); ++d) {
    NetDevice* dev = devs[d];
    dev->addTap([&tapped, d, dev](const Packet& p, TapDir dir) {
      if (dir == TapDir::Egress) {
        tapped[d].emplace_back(p.uid, dev->tapTime().toNanos());
      }
    });
  }
  std::vector<Line> arrived;
  dst.setLocalHandler(
      [&](const Packet& p) { arrived.emplace_back(p.uid, sim.now().toNanos()); });

  // The workload: random sizes at random, pairwise-distinct send times.
  struct Send {
    std::int64_t atNs;
    int source;
    std::uint64_t uid;
    std::int64_t payload;
  };
  std::vector<Send> sends;
  std::set<std::int64_t> used;
  std::uint64_t lcg = 12345;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  std::uint64_t uid = 0;
  for (int i = 0; i < kSources; ++i) {
    for (int k = 0; k < kPerSource; ++k) {
      std::int64_t t;
      do {
        t = static_cast<std::int64_t>(rnd() % 1'000'000'000);
      } while (!used.insert(t).second);
      sends.push_back(Send{t, i, ++uid,
                           60 + static_cast<std::int64_t>(rnd() % 1'400)});
    }
  }
  for (const Send& snd : sends) {
    Packet p = makeUdpPacket(sources[static_cast<std::size_t>(snd.source)]
                                 ->primaryAddress(),
                             dst.primaryAddress(), snd.payload);
    p.uid = snd.uid;
    sim.schedule(TimePoint::fromNanos(snd.atNs),
                 [&sources, src = snd.source, p = std::move(p)]() mutable {
                   sources[static_cast<std::size_t>(src)]->sendFromLocal(
                       std::move(p));
                 });
  }
  sim.run();

  // The reference: admissions in time order across all devices (each
  // device's own admissions are tie-free, checked below).
  struct Admission {
    std::int64_t atNs;
    int dev;
    std::uint64_t uid;
    std::int64_t wire;
    bool operator>(const Admission& o) const { return atNs > o.atNs; }
  };
  std::priority_queue<Admission, std::vector<Admission>, std::greater<>> todo;
  for (const Send& snd : sends) {
    todo.push(Admission{snd.atNs, snd.source, snd.uid,
                        snd.payload + wire::kEthIpUdp});
  }
  std::vector<ClosedFormDevice> ref;
  for (const LinkConfig& cfg : cfgs) ref.emplace_back(cfg);
  std::vector<Line> refArrived;
  while (!todo.empty()) {
    const Admission a = todo.top();
    todo.pop();
    const std::int64_t arrival =
        ref[static_cast<std::size_t>(a.dev)].admit(a.atNs, a.uid, a.wire);
    if (arrival < 0) continue;
    const int to = next[static_cast<std::size_t>(a.dev)];
    if (to < 0) {
      refArrived.emplace_back(a.uid, arrival);
    } else {
      todo.push(Admission{arrival, to, a.uid, a.wire});
    }
  }

  std::size_t lines = 0;
  int devicesWithDrops = 0;
  for (std::size_t d = 0; d < devs.size(); ++d) {
    std::sort(tapped[d].begin(), tapped[d].end());
    std::sort(ref[d].starts.begin(), ref[d].starts.end());
    EXPECT_EQ(tapped[d], ref[d].starts) << "egress tap times at device " << d;
    EXPECT_EQ(devs[d]->queueDrops(), ref[d].drops) << "drops at device " << d;
    EXPECT_EQ(ref[d].ties, 0u) << "workload tie at device " << d << "; pick another seed";
    lines += tapped[d].size();
    if (ref[d].drops > 0) ++devicesWithDrops;
  }
  std::sort(arrived.begin(), arrived.end());
  std::sort(refArrived.begin(), refArrived.end());
  EXPECT_EQ(arrived, refArrived);
  lines += arrived.size();
  // The workload must exercise queueing and drops at several hops.
  EXPECT_GE(devicesWithDrops, 3);
  EXPECT_GT(lines, 20'000u);
  // r2 has two ports and only forwards, but a packet can reach it from dst
  // in 50 us, well inside the trunk's 1 ms: its hop is never cut through.
  EXPECT_EQ(r1out.cutThroughs(), 0u);
}

// ------------------------------------ cut-through at a two-port transit node
//
// An AP-shaped node: sources feed a router r, r feeds the AP over a short hop,
// and the AP feeds a leaf (the headset) over a long one with a small queue.
// Downlink packets cut through the AP wherever the exactness rule allows
// (DESIGN.md §7). Leaf-side pings to the AP, TTL-1 probes that expire there
// and a hairpin (an address the AP routes back to the leaf) make the AP put
// packets onto the leaf link itself: they take the slow path, and while one
// is in flight toward the AP no downlink packet cuts through. Every egress
// and ingress tapTime(), every arrival and every drop count must equal the
// one-event-per-hop model in closed form, as in the test above.
TEST(DeviceModelTest, CutThroughAtTwoPortNodeMatchesClosedFormReference) {
  constexpr int kSources = 3;
  constexpr int kPerSource = 1500;
  constexpr int kLeafSends = 1000;
  constexpr std::uint64_t kUidBase = std::uint64_t{1} << 40;
  Simulator sim{1};
  Network net{sim};
  Node& r = net.addNode("r");
  Node& ap = net.addNode("ap");
  Node& leaf = net.addNode("leaf");
  const Ipv4Address rAddr(10, 0, 0, 1);
  const Ipv4Address apAddr(10, 2, 0, 1);
  const Ipv4Address leafAddr(10, 2, 0, 2);
  const Ipv4Address hairpinAddr(10, 2, 0, 3);  // the AP routes it to the leaf
  r.addAddress(rAddr);
  ap.addAddress(apAddr);
  leaf.addAddress(leafAddr);

  // Device index: 0..2 the source uplinks, then r -> ap, ap -> leaf,
  // leaf -> ap and ap -> r.
  constexpr int kU = kSources;
  constexpr int kD = kSources + 1;
  constexpr int kR = kSources + 2;
  constexpr int kI = kSources + 3;
  std::vector<NetDevice*> devs;
  std::vector<LinkConfig> cfgs;
  std::vector<Node*> sources;
  for (int i = 0; i < kSources; ++i) {
    Node& src = net.addNode("s" + std::to_string(i));
    src.addAddress(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)));
    LinkConfig cfg;
    cfg.rate = DataRate::mbps(30 + 10 * i);
    cfg.delay = Duration::nanos(20'011 + 1'013 * i);
    cfg.queueLimit = ByteSize::bytes(3'000);
    auto [up, down] = Link::connect(src, r, cfg);
    src.setDefaultRoute(up);
    devs.push_back(&up);
    cfgs.push_back(cfg);
    sources.push_back(&src);
  }
  LinkConfig shortHop;
  shortHop.rate = DataRate::mbps(40);
  shortHop.delay = Duration::nanos(300'007);
  shortHop.queueLimit = ByteSize::bytes(20'000);
  LinkConfig wifi;
  wifi.rate = DataRate::mbps(24);
  wifi.delay = Duration::nanos(2'000'003);
  wifi.queueLimit = ByteSize::bytes(3'000);
  auto [u, apUp] = Link::connect(r, ap, shortHop);
  auto [d, rev] = Link::connect(ap, leaf, wifi);
  for (NetDevice* dev : {&u, &d, &rev, &apUp}) devs.push_back(dev);
  for (const LinkConfig& cfg : {shortHop, wifi, wifi, shortHop}) cfgs.push_back(cfg);
  r.addHostRoute(leafAddr, u);
  ap.addHostRoute(leafAddr, d);
  ap.addHostRoute(hairpinAddr, d);
  ap.setDefaultRoute(apUp);
  leaf.setDefaultRoute(rev);

  // Packets the AP generates get simulator uids; they are keyed by the
  // ICMP type and the sequence number they copy from the leaf's request.
  auto keyOf = [kUidBase](const Packet& p) -> std::uint64_t {
    if (p.uid >= kUidBase) return p.uid;
    const IcmpHeader* icmp = p.icmp();
    return icmp == nullptr ? 0
                           : 1'000'000 + std::uint64_t{icmp->seq} * 4 +
                                 static_cast<std::uint64_t>(icmp->type);
  };

  // Observed, per transmitting device: egress and peer-ingress (key,
  // tapTime); arrivals at the leaf and at r.
  std::vector<std::vector<Line>> egress(devs.size());
  std::vector<std::vector<Line>> ingress(devs.size());
  for (std::size_t k = 0; k < devs.size(); ++k) {
    NetDevice* dev = devs[k];
    NetDevice* peer = dev->peer();
    dev->addTap([&, k, dev](const Packet& p, TapDir dir) {
      EXPECT_GE(dev->tapTime(), sim.now());
      if (dir == TapDir::Egress) egress[k].emplace_back(keyOf(p), dev->tapTime().toNanos());
    });
    peer->addTap([&, k, peer](const Packet& p, TapDir dir) {
      EXPECT_GE(peer->tapTime(), sim.now());
      if (dir == TapDir::Ingress) ingress[k].emplace_back(keyOf(p), peer->tapTime().toNanos());
    });
  }
  std::vector<Line> atLeaf;
  std::vector<Line> atR;
  leaf.setLocalHandler([&](const Packet& p) { atLeaf.emplace_back(keyOf(p), sim.now().toNanos()); });
  leaf.addIcmpListener([&](const Packet& p) { atLeaf.emplace_back(keyOf(p), sim.now().toNanos()); });
  r.setLocalHandler([&](const Packet& p) { atR.emplace_back(keyOf(p), sim.now().toNanos()); });

  // The workload, at pairwise-distinct send times: UDP from the sources to
  // the leaf; from the leaf, UDP to r (80%) and ICMP echo requests (20%):
  // pings to the AP, TTL-1 probes toward r and hairpins (TTL 3).
  enum class Dst : std::uint8_t { Leaf, R, Ap, Hairpin };
  struct RefPkt {
    std::uint64_t key;
    std::int64_t wire;
    int ttl;
    Dst dst;
    std::uint16_t seq;
  };
  struct Send {
    std::int64_t atNs;
    int dev;  // the sender's uplink
    RefPkt pkt;
  };
  std::vector<Send> sends;
  std::set<std::int64_t> used;
  std::uint64_t lcg = 777;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  auto sendTime = [&] {
    std::int64_t t;
    do {
      t = static_cast<std::int64_t>(rnd() % 1'000'000'000);
    } while (!used.insert(t).second);
    return t;
  };
  std::uint64_t uid = kUidBase;
  for (int s = 0; s < kSources; ++s) {
    for (int k = 0; k < kPerSource; ++k) {
      const auto payload = 60 + static_cast<std::int64_t>(rnd() % 1'400);
      sends.push_back(Send{sendTime(), s,
                           RefPkt{++uid, payload + wire::kEthIpUdp, 64, Dst::Leaf, 0}});
    }
  }
  std::uint16_t seq = 0;
  for (int k = 0; k < kLeafSends; ++k) {
    const auto roll = rnd() % 20;
    const std::int64_t at = sendTime();
    if (roll < 16) {
      const auto payload = 60 + static_cast<std::int64_t>(rnd() % 1'000);
      sends.push_back(Send{at, kR, RefPkt{++uid, payload + wire::kEthIpUdp, 64, Dst::R, 0}});
      continue;
    }
    const Dst dst = roll < 18 ? Dst::Ap : roll < 19 ? Dst::R : Dst::Hairpin;
    const int ttl = dst == Dst::Ap ? 64 : dst == Dst::R ? 1 : 3;
    sends.push_back(Send{at, kR, RefPkt{++uid, 56 + wire::kEthIpIcmp, ttl, dst, ++seq}});
  }
  for (const Send& snd : sends) {
    Packet p;
    p.uid = snd.pkt.key;
    p.ttl = static_cast<std::uint8_t>(snd.pkt.ttl);
    Node* from = &leaf;
    if (snd.dev < kSources) {
      from = sources[static_cast<std::size_t>(snd.dev)];
      p.dst = leafAddr;
    } else {
      p.dst = snd.pkt.dst == Dst::R ? rAddr : snd.pkt.dst == Dst::Ap ? apAddr : hairpinAddr;
    }
    p.src = from->primaryAddress();
    if (snd.pkt.seq == 0) {
      p.proto = IpProto::Udp;
      p.overheadBytes = wire::kEthIpUdp;
      p.payloadBytes = ByteSize::bytes(snd.pkt.wire - wire::kEthIpUdp);
    } else {
      p.proto = IpProto::Icmp;
      p.overheadBytes = wire::kEthIpIcmp;
      p.payloadBytes = ByteSize::bytes(snd.pkt.wire - wire::kEthIpIcmp);
      IcmpHeader hdr;
      hdr.type = IcmpType::EchoRequest;
      hdr.ident = 7;
      hdr.seq = snd.pkt.seq;
      p.l4 = hdr;
    }
    sim.schedule(TimePoint::fromNanos(snd.atNs),
                 [from, p = std::move(p)]() mutable { from->sendFromLocal(std::move(p)); });
  }
  sim.run();

  // The reference: admissions in time order, each device's closed form, and
  // what each node does with an arrival.
  struct Admission {
    std::int64_t atNs;
    int dev;
    RefPkt pkt;
    bool operator>(const Admission& o) const { return atNs > o.atNs; }
  };
  std::priority_queue<Admission, std::vector<Admission>, std::greater<>> todo;
  for (const Send& snd : sends) todo.push(Admission{snd.atNs, snd.dev, snd.pkt});
  std::vector<ClosedFormDevice> ref;
  for (const LinkConfig& cfg : cfgs) ref.emplace_back(cfg);
  std::vector<std::vector<Line>> refIngress(devs.size());
  std::vector<Line> refAtLeaf;
  std::vector<Line> refAtR;
  auto reply = [](const RefPkt& req, IcmpType type) {
    const std::int64_t payload =
        type == IcmpType::EchoReply ? req.wire - wire::kEthIpIcmp : 28;
    return RefPkt{1'000'000 + std::uint64_t{req.seq} * 4 + static_cast<std::uint64_t>(type),
                  payload + wire::kEthIpIcmp, 64, Dst::Leaf, req.seq};
  };
  while (!todo.empty()) {
    const Admission a = todo.top();
    todo.pop();
    const auto dev = static_cast<std::size_t>(a.dev);
    const std::int64_t t = ref[dev].admit(a.atNs, a.pkt.key, a.pkt.wire);
    if (t < 0) continue;
    refIngress[dev].emplace_back(a.pkt.key, t);
    RefPkt pkt = a.pkt;
    --pkt.ttl;  // consulted only where the arrival is forwarded
    switch (a.dev) {
      case kU:
        todo.push(Admission{t, kD, pkt});
        break;
      case kD:
        if (a.pkt.dst == Dst::Leaf) {
          refAtLeaf.emplace_back(a.pkt.key, t);
        } else {  // the hairpin, back toward the AP
          ASSERT_GT(a.pkt.ttl, 1);
          todo.push(Admission{t, kR, pkt});
        }
        break;
      case kR:
        if (a.pkt.dst == Dst::Ap) {
          todo.push(Admission{t, kD, reply(a.pkt, IcmpType::EchoReply)});
        } else if (a.pkt.ttl <= 1) {
          todo.push(Admission{t, kD, reply(a.pkt, IcmpType::TimeExceeded)});
        } else {
          todo.push(Admission{t, a.pkt.dst == Dst::Hairpin ? kD : kI, pkt});
        }
        break;
      case kI:
        refAtR.emplace_back(a.pkt.key, t);
        break;
      default:  // a source uplink: r forwards to the AP
        todo.push(Admission{t, kU, pkt});
        break;
    }
  }

  for (std::size_t k = 0; k < devs.size(); ++k) {
    for (auto* lines : {&egress[k], &ingress[k], &ref[k].starts, &refIngress[k]}) {
      std::sort(lines->begin(), lines->end());
    }
    EXPECT_EQ(egress[k], ref[k].starts) << "egress tap times at device " << k;
    EXPECT_EQ(ingress[k], refIngress[k]) << "ingress tap times behind device " << k;
    EXPECT_EQ(devs[k]->queueDrops(), ref[k].drops) << "drops at device " << k;
    EXPECT_EQ(ref[k].ties, 0u) << "workload tie at device " << k << "; pick another seed";
  }
  for (auto* lines : {&atLeaf, &refAtLeaf, &atR, &refAtR}) {
    std::sort(lines->begin(), lines->end());
  }
  EXPECT_EQ(atLeaf, refAtLeaf);
  EXPECT_EQ(atR, refAtR);

  // Both paths are exercised at the AP, and the cut-through target drops.
  // The uplink never cuts through: a packet from r reaches the AP in 0.3 ms.
  EXPECT_GT(u.cutThroughs(), 0u);
  EXPECT_LT(u.cutThroughs(), ref[kU].starts.size());
  EXPECT_GT(ref[kD].drops, 0u);
  EXPECT_EQ(rev.cutThroughs(), 0u);
  EXPECT_GT(refAtLeaf.size(), 3'000u);
}

}  // namespace
}  // namespace msim
