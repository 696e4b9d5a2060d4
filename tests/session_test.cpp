// The src/session subsystem: connection state machine, token auth, ping
// liveness, reconnect backoff, channel recovery — and its coupling to the
// cluster (gateway reconnect placement).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "audit/sweep.hpp"
#include "cluster/manager.hpp"
#include "cluster/sessions.hpp"
#include "core/seedsweep.hpp"
#include "session/hub.hpp"

namespace msim::session {
namespace {

constexpr std::uint64_t kSecret = 0xfeedfacecafeULL;

/// A hub with no cluster behind it: every accept binds to shard 0.
struct BareHub {
  Simulator sim;
  SessionHub hub;
  explicit BareHub(std::uint64_t seed, Duration ttl = Duration::minutes(10),
                   HubConfig hc = {})
      : sim{seed}, hub{sim, TokenAuthority{kSecret, ttl}, hc} {}
};

/// Fast client tuning so lifecycle tests stay in simulated seconds.
SessionConfig fastSession() {
  SessionConfig cfg;
  cfg.pingInterval = Duration::seconds(2);
  cfg.maxPingDelay = Duration::seconds(1);
  cfg.minReconnectDelay = Duration::millis(100);
  cfg.maxReconnectDelay = Duration::seconds(2);
  return cfg;
}

// ------------------------------------------------------------ history ring

TEST(HistoryRingTest, ReplaysOldestFirstAndReportsWindow) {
  HistoryRing ring{4};
  EXPECT_FALSE(ring.canRecoverFrom(0));  // empty: nothing to replay
  for (std::uint64_t s = 1; s <= 3; ++s) ring.push(ChannelMessage{s, s * 10, 64});
  EXPECT_EQ(ring.oldestSeq(), 1u);
  EXPECT_TRUE(ring.canRecoverFrom(0));
  std::vector<std::uint64_t> seqs;
  ring.replaySince(1, [&](const ChannelMessage& m) { seqs.push_back(m.seq); });
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 2u);
  EXPECT_EQ(seqs[1], 3u);
}

TEST(HistoryRingTest, OverflowEvictsOldest) {
  HistoryRing ring{4};
  for (std::uint64_t s = 1; s <= 10; ++s) ring.push(ChannelMessage{s, s, 32});
  EXPECT_EQ(ring.oldestSeq(), 7u);
  EXPECT_FALSE(ring.canRecoverFrom(3));  // 4..6 already evicted
  EXPECT_TRUE(ring.canRecoverFrom(6));   // 7..10 still held
}

TEST(ChannelBrokerTest, ResumeWithinWindowReplaysExactSuffix) {
  ChannelBroker broker{8};
  broker.subscribe(5, /*sessionId=*/1);
  for (int i = 0; i < 6; ++i) {
    broker.publish(5, 100 + i, 64, [](std::uint32_t, const ChannelMessage&) {});
  }
  broker.unsubscribeAll(1);
  std::vector<std::uint64_t> seqs;
  const auto res = broker.resume(
      5, 1, /*lastSeq=*/2,
      [&](std::uint32_t, const ChannelMessage& m) { seqs.push_back(m.seq); });
  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(res.headSeq, 6u);
  ASSERT_EQ(seqs.size(), 4u);  // 3,4,5,6 in order
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], 3 + i);
}

TEST(ChannelBrokerTest, ResumeBeyondWindowIsFullRejoin) {
  ChannelBroker broker{4};
  for (int i = 0; i < 20; ++i) {
    broker.publish(9, i, 64, [](std::uint32_t, const ChannelMessage&) {});
  }
  bool replayed = false;
  const auto res = broker.resume(
      9, 2, /*lastSeq=*/1,
      [&](std::uint32_t, const ChannelMessage&) { replayed = true; });
  EXPECT_FALSE(res.recovered);
  EXPECT_FALSE(replayed);
  EXPECT_EQ(res.headSeq, 20u);
}

// ------------------------------------------------------------- token auth

TEST(TokenAuthorityTest, IssueValidateExpiryAndForgery) {
  TokenAuthority auth{kSecret, Duration::seconds(10)};
  const TimePoint t0 = TimePoint::epoch();
  Token t = auth.issue(7, t0);
  EXPECT_TRUE(auth.validate(t, t0 + Duration::seconds(5)));
  EXPECT_FALSE(auth.validate(t, t0 + Duration::seconds(10)));  // expired
  Token forged = t;
  forged.userId = 8;  // claims changed, signature stale
  EXPECT_FALSE(auth.validate(forged, t0 + Duration::seconds(5)));
  EXPECT_EQ(auth.rejectedExpired(), 1u);
  EXPECT_EQ(auth.rejectedForged(), 1u);
}

// ------------------------------------------------------- connection machine

TEST(SessionTest, ConnectWalksDisconnectedConnectingConnected) {
  BareHub b{1};
  Session s{b.hub, fastSession(), 42, regions::usEast()};
  std::vector<ConnectionState> states;
  s.setOnStateChange(
      [&](Session&, ConnectionState st) { states.push_back(st); });
  s.connect();
  b.sim.runFor(Duration::seconds(1));
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0], ConnectionState::Connecting);
  EXPECT_EQ(states[1], ConnectionState::Connected);
  EXPECT_EQ(s.shard(), 0);
  EXPECT_EQ(s.stats().connects, 1u);
  EXPECT_EQ(b.hub.connectedCount(), 1u);
}

TEST(SessionTest, SilentShardDeathIsDiscoveredByPingDeadline) {
  BareHub b{2};
  Session s{b.hub, fastSession(), 42, regions::usEast()};
  s.connect();
  b.sim.runFor(Duration::seconds(1));
  ASSERT_EQ(s.state(), ConnectionState::Connected);

  EXPECT_EQ(b.hub.markShardDead(0), 1u);
  // Nothing told the client: it is still nominally Connected until a ping
  // goes unanswered past maxPingDelay.
  EXPECT_EQ(s.state(), ConnectionState::Connected);
  b.sim.runFor(Duration::seconds(8));
  EXPECT_EQ(s.state(), ConnectionState::Connected);  // reconnected by now
  EXPECT_GE(s.stats().pingTimeouts, 1u);
  EXPECT_EQ(s.stats().reconnects, 1u);
  EXPECT_EQ(b.hub.stats().shardEvictions, 1u);
}

TEST(SessionTest, RefreshBeforeExpiryKeepsTheSessionAlive) {
  BareHub b{3, Duration::seconds(5)};
  SessionConfig cfg = fastSession();
  cfg.tokenRefreshLead = Duration::seconds(2);
  Session s{b.hub, cfg, 42, regions::usEast()};
  s.connect();
  b.sim.runFor(Duration::seconds(12));
  EXPECT_EQ(s.state(), ConnectionState::Connected);
  EXPECT_GE(s.stats().tokenRefreshes, 2u);
  EXPECT_EQ(s.stats().serverDisconnects, 0u);
  EXPECT_EQ(b.hub.stats().expiries, 0u);
  EXPECT_GE(b.hub.stats().refreshes, 2u);
}

TEST(SessionTest, ExpiryWithoutRefreshForcesReauthReconnect) {
  BareHub b{4, Duration::seconds(3)};
  SessionConfig cfg = fastSession();
  cfg.tokenRefreshLead = Duration::zero();  // never refresh
  Session s{b.hub, cfg, 42, regions::usEast()};
  s.connect();
  b.sim.runFor(Duration::seconds(10));
  EXPECT_EQ(s.state(), ConnectionState::Connected);
  EXPECT_GE(b.hub.stats().expiries, 2u);
  EXPECT_GE(s.stats().serverDisconnects, 2u);
  EXPECT_GE(s.stats().reconnects, 2u);
  // Every re-establish had to mint a fresh token (the old one is expired).
  EXPECT_GE(b.hub.authority().issuedTotal(), 3u);
}

TEST(SessionTest, CleanDisconnectAndReconnectResumesSubscriptions) {
  BareHub b{5};
  Session s{b.hub, fastSession(), 42, regions::usEast()};
  s.subscribe(7);
  s.connect();
  b.sim.runFor(Duration::seconds(1));
  b.hub.publish(7, 111, 64);
  b.sim.runFor(Duration::seconds(1));
  EXPECT_EQ(s.stats().received, 1u);

  s.disconnect();
  EXPECT_EQ(s.state(), ConnectionState::Disconnected);
  b.sim.runFor(Duration::seconds(1));
  EXPECT_EQ(b.hub.stats().byes, 1u);
  b.hub.publish(7, 222, 64);  // missed while away
  b.sim.runFor(Duration::seconds(1));

  s.connect();
  b.sim.runFor(Duration::seconds(2));
  EXPECT_EQ(s.state(), ConnectionState::Connected);
  EXPECT_EQ(s.stats().received, 2u);   // the missed message was replayed
  EXPECT_EQ(s.stats().recovered, 1u);
  EXPECT_EQ(s.stats().duplicates, 0u);
  EXPECT_EQ(s.stats().gaps, 0u);
}

TEST(SessionTest, CloseIsTerminalAndReleasesServerState) {
  BareHub b{6};
  auto s = std::make_unique<Session>(b.hub, fastSession(), 42,
                                     regions::usEast());
  s->subscribe(7);
  s->connect();
  b.sim.runFor(Duration::seconds(1));
  s->close();
  EXPECT_EQ(s->state(), ConnectionState::Closed);
  EXPECT_EQ(b.hub.connectedCount(), 0u);
  EXPECT_EQ(b.hub.broker().subscriberCount(7), 0u);
  s->connect();  // no-op from Closed
  b.sim.runFor(Duration::seconds(1));
  EXPECT_EQ(s->state(), ConnectionState::Closed);
}

// --------------------------------------------------------------- backoff

TEST(SessionBackoffTest, SynchronizedDelaysAreTheExactExponentialCeiling) {
  BareHub b{7};
  SessionConfig cfg = fastSession();
  cfg.jitteredBackoff = false;
  Session s{b.hub, cfg, 1, regions::usEast()};
  // Attempt k waits min(max, min * factor^(k+1)): 200ms, 400ms, 800ms, ...
  EXPECT_EQ(s.backoffDelay(0).toNanos(), Duration::millis(200).toNanos());
  EXPECT_EQ(s.backoffDelay(1).toNanos(), Duration::millis(400).toNanos());
  EXPECT_EQ(s.backoffDelay(2).toNanos(), Duration::millis(800).toNanos());
  EXPECT_EQ(s.backoffDelay(3).toNanos(), Duration::millis(1600).toNanos());
  EXPECT_EQ(s.backoffDelay(9).toNanos(), Duration::seconds(2).toNanos());
}

TEST(SessionBackoffTest, JitterStaysInsideTheClampWindow) {
  BareHub b{8};
  Session s{b.hub, fastSession(), 1, regions::usEast()};
  const std::int64_t lo = Duration::millis(100).toNanos();
  const std::int64_t hi = Duration::millis(1600).toNanos();  // 100ms * 2^4
  bool varied = false;
  std::int64_t first = -1;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t d = s.backoffDelay(3).toNanos();
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
    if (first < 0) first = d;
    varied = varied || d != first;
  }
  EXPECT_TRUE(varied);  // it genuinely draws, not a constant
}

TEST(SessionBackoffTest, JitterComesFromTheSimRngDeterministically) {
  auto draws = [](std::uint64_t seed) {
    BareHub b{seed};
    Session s{b.hub, fastSession(), 1, regions::usEast()};
    std::vector<std::int64_t> v;
    for (int i = 0; i < 16; ++i) v.push_back(s.backoffDelay(2).toNanos());
    return v;
  };
  EXPECT_EQ(draws(11), draws(11));  // same seed, same schedule
  EXPECT_NE(draws(11), draws(12));  // a different seed moves it
}

// ------------------------------------------------------ config validation

/// Constructing a session from `cfg` must throw and leave the hub empty.
void expectRejected(const SessionConfig& cfg) {
  BareHub b{1};
  EXPECT_THROW(Session(b.hub, cfg, 42, regions::usEast()),
               std::invalid_argument);
  EXPECT_EQ(b.hub.sessionAt(0), nullptr);
}

TEST(SessionConfigTest, RejectsNonPositivePingInterval) {
  SessionConfig cfg = fastSession();
  cfg.pingInterval = Duration::zero();
  expectRejected(cfg);
}

TEST(SessionConfigTest, RejectsNonPositiveMaxPingDelay) {
  SessionConfig cfg = fastSession();
  cfg.maxPingDelay = Duration::zero();
  expectRejected(cfg);
}

TEST(SessionConfigTest, RejectsNegativeOneWayDelay) {
  SessionConfig cfg = fastSession();
  cfg.oneWayDelay = Duration::millis(-1);
  expectRejected(cfg);
}

TEST(SessionConfigTest, RejectsInvertedReconnectWindow) {
  SessionConfig cfg = fastSession();
  cfg.minReconnectDelay = cfg.maxReconnectDelay + Duration::millis(1);
  expectRejected(cfg);
}

TEST(SessionConfigTest, RejectsShrinkingBackoffFactor) {
  SessionConfig cfg = fastSession();
  cfg.backoffFactor = 0.5;
  expectRejected(cfg);
}

// ------------------------------------------------------- channel recovery

TEST(SessionRecoveryTest, ReplayDeliversMissedMessagesExactlyOnceInOrder) {
  BareHub b{9};
  Session s{b.hub, fastSession(), 42, regions::usEast()};
  std::vector<std::uint64_t> seqs;
  std::uint64_t replayedCount = 0;
  s.setOnMessage([&](Session&, std::uint64_t, std::uint64_t seq, std::uint64_t,
                     bool replayed) {
    seqs.push_back(seq);
    if (replayed) ++replayedCount;
  });
  s.subscribe(7);
  s.connect();
  b.sim.runFor(Duration::seconds(1));
  for (int i = 0; i < 5; ++i) b.hub.publish(7, 100 + i, 64);
  b.sim.runFor(Duration::seconds(1));

  b.hub.markShardDead(0);
  for (int i = 0; i < 5; ++i) b.hub.publish(7, 200 + i, 64);  // missed
  b.sim.runFor(Duration::seconds(8));  // deadline -> backoff -> resume

  EXPECT_EQ(s.state(), ConnectionState::Connected);
  ASSERT_EQ(seqs.size(), 10u);
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
  EXPECT_EQ(replayedCount, 5u);
  EXPECT_EQ(s.stats().recovered, 5u);
  EXPECT_EQ(s.stats().duplicates, 0u);
  EXPECT_EQ(s.stats().gaps, 0u);
  EXPECT_EQ(s.stats().fullRejoins, 0u);
  EXPECT_EQ(b.hub.stats().replayed, 5u);
}

TEST(SessionRecoveryTest, OutrunningTheHistoryWindowFallsBackToFullRejoin) {
  HubConfig hc;
  hc.historyWindow = 4;
  BareHub b{10, Duration::minutes(10), hc};
  Session s{b.hub, fastSession(), 42, regions::usEast()};
  s.subscribe(7);
  s.connect();
  b.sim.runFor(Duration::seconds(1));
  for (int i = 0; i < 3; ++i) b.hub.publish(7, i, 64);
  b.sim.runFor(Duration::seconds(1));

  b.hub.markShardDead(0);
  for (int i = 0; i < 20; ++i) b.hub.publish(7, 100 + i, 64);  // evicts 4..19
  b.sim.runFor(Duration::seconds(8));

  EXPECT_EQ(s.state(), ConnectionState::Connected);
  EXPECT_EQ(s.stats().fullRejoins, 1u);
  EXPECT_EQ(b.hub.stats().fullRejoins, 1u);
  // The cursor snapped to head: live again, the gap acknowledged as lost.
  EXPECT_EQ(s.lastSeq(7), b.hub.broker().headSeq(7));
  b.hub.publish(7, 999, 64);
  b.sim.runFor(Duration::seconds(1));
  EXPECT_EQ(s.lastSeq(7), b.hub.broker().headSeq(7));
  EXPECT_EQ(s.stats().gaps, 0u);  // full rejoin is not a sequence gap
}

// ------------------------------------------------------ batched downlink

/// One accepted message as a client saw it.
struct Seen {
  std::uint64_t user;
  TimePoint at;
  std::uint64_t seq;
  bool replayed;
};

void recordInto(Session& s, const Simulator& sim, std::vector<Seen>& log) {
  s.setOnMessage([&sim, &log](Session& self, std::uint64_t, std::uint64_t seq,
                              std::uint64_t, bool replayed) {
    log.push_back(Seen{self.userId(), sim.now(), seq, replayed});
  });
}

TEST(SessionBatchTest, EachDownlinkDelayIsOneEventWalkedInSidOrder) {
  BareHub b{11};
  SessionConfig nearCfg = fastSession();
  nearCfg.oneWayDelay = Duration::millis(20);
  SessionConfig farCfg = fastSession();
  farCfg.oneWayDelay = Duration::millis(50);
  // Sids 0..3 alternate near and far, so each delay's batch interleaves
  // with the other's in subscriber order.
  std::vector<std::unique_ptr<Session>> owned;
  std::vector<Seen> log;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<Session>(
        b.hub, i % 2 == 0 ? nearCfg : farCfg, 100 + i, regions::usEast()));
    recordInto(*owned.back(), b.sim, log);
    owned.back()->subscribe(7);
    owned.back()->connect();
  }
  b.sim.runFor(Duration::millis(900));
  ASSERT_EQ(b.hub.connectedCount(), 4u);

  const TimePoint t0 = b.sim.now();
  const std::size_t before = b.sim.liveEvents();
  b.hub.publish(7, 42, 64);
  EXPECT_EQ(b.sim.liveEvents(), before + 2);  // one event per delay
  b.sim.runFor(Duration::millis(100));

  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].user, 100u);
  EXPECT_EQ(log[1].user, 102u);
  EXPECT_EQ(log[2].user, 101u);
  EXPECT_EQ(log[3].user, 103u);
  EXPECT_EQ(log[0].at, t0 + Duration::millis(20));
  EXPECT_EQ(log[1].at, t0 + Duration::millis(20));
  EXPECT_EQ(log[2].at, t0 + Duration::millis(50));
  EXPECT_EQ(log[3].at, t0 + Duration::millis(50));
}

TEST(SessionBatchTest, ReconnectBeforeDeliveryDropsTheStaleEntry) {
  BareHub b{12};
  Session a{b.hub, fastSession(), 1, regions::usEast()};
  Session c{b.hub, fastSession(), 2, regions::usEast()};
  std::vector<Seen> log;
  recordInto(a, b.sim, log);
  for (Session* s : {&a, &c}) {
    s->subscribe(7);
    s->connect();
  }
  b.sim.runFor(Duration::millis(900));
  b.hub.publish(7, 1, 64);
  b.sim.runFor(Duration::millis(5));
  // A new epoch before the batch lands: a's entry in it is stale.
  a.disconnect();
  a.connect();
  b.sim.runFor(Duration::seconds(2));

  ASSERT_EQ(a.state(), ConnectionState::Connected);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log[0].replayed);  // the live copy was dropped, replay won
  EXPECT_EQ(a.stats().received, 1u);
  EXPECT_EQ(a.stats().duplicates, 0u);
  EXPECT_EQ(a.stats().gaps, 0u);
  EXPECT_EQ(c.stats().received, 1u);
  EXPECT_EQ(b.hub.stats().delivered, 2u);  // both were in the live batch
}

/// a misses three messages while disconnected, then resumes; a live publish
/// races its replay batch. With `reconnectMidReplay` a also starts a new
/// epoch before that batch lands, which makes the replay and a's live entry
/// stale, so the second resume must replay all four.
void replayRacesLivePublish(bool reconnectMidReplay) {
  BareHub b{13};
  Session a{b.hub, fastSession(), 1, regions::usEast()};
  Session c{b.hub, fastSession(), 2, regions::usEast()};
  std::vector<Seen> log;
  recordInto(a, b.sim, log);
  for (Session* s : {&a, &c}) {
    s->subscribe(7);
    s->connect();
  }
  b.sim.runFor(Duration::millis(900));
  for (int i = 0; i < 3; ++i) b.hub.publish(7, i, 64);
  b.sim.runFor(Duration::millis(100));
  a.disconnect();
  b.sim.runFor(Duration::millis(100));
  for (int i = 3; i < 6; ++i) b.hub.publish(7, i, 64);  // a misses these
  a.connect();
  while (b.hub.stats().replayed < 3) b.sim.runFor(Duration::millis(1));
  b.hub.publish(7, 6, 64);  // live, behind the replay batch in flight
  if (reconnectMidReplay) {
    a.disconnect();
    a.connect();
  }
  b.sim.runFor(Duration::seconds(2));

  ASSERT_EQ(a.state(), ConnectionState::Connected);
  ASSERT_EQ(log.size(), 7u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, i + 1);
    // Seqs 4..6 always come by replay; 7 does too once its live copy is
    // stale.
    EXPECT_EQ(log[i].replayed, i >= 3 && (reconnectMidReplay || i < 6));
  }
  EXPECT_EQ(a.stats().recovered, reconnectMidReplay ? 4u : 3u);
  EXPECT_EQ(a.stats().duplicates, 0u);
  EXPECT_EQ(a.stats().gaps, 0u);
  EXPECT_EQ(c.stats().received, 7u);
  EXPECT_EQ(c.stats().duplicates + c.stats().gaps, 0u);
  EXPECT_EQ(b.hub.stats().replayed, reconnectMidReplay ? 7u : 3u);
}

TEST(SessionBatchTest, ReplayRacingALivePublishStaysInOrder) {
  replayRacesLivePublish(/*reconnectMidReplay=*/false);
}

TEST(SessionBatchTest, ReconnectDuringReplayDropsTheStaleReplay) {
  replayRacesLivePublish(/*reconnectMidReplay=*/true);
}

}  // namespace
}  // namespace msim::session

// ---------------------------------------------- gateway reconnect placement

namespace msim::cluster {
namespace {

DataSpec plainSpec() {
  DataSpec spec;
  spec.provisioningFactor = 1.0;
  return spec;
}

TEST(GatewaySessionReconnectTest, ReconnectIsStickyWhileTheShardIsAlive) {
  Simulator sim{1};
  ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.policy = PlacementPolicy::LeastLoaded;
  InstanceManager mgr{sim, plainSpec(), cfg};

  RelayInstance* a = mgr.joinUser(42, regions::usEast());
  ASSERT_NE(a, nullptr);
  mgr.suspendUser(42);  // binding lost, pin kept
  RelayInstance* b = mgr.reconnectUser(42, regions::usEast());
  EXPECT_EQ(b, a);
  EXPECT_EQ(mgr.stats().reconnectsSticky, 1u);
  EXPECT_EQ(mgr.stats().reconnectsReplaced, 0u);
}

TEST(GatewaySessionReconnectTest, CrashedPinIsReplacedThroughPolicy) {
  Simulator sim{2};
  ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.policy = PlacementPolicy::LeastLoaded;
  InstanceManager mgr{sim, plainSpec(), cfg};

  RelayInstance* a = mgr.joinUser(42, regions::usEast());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(mgr.crash(a->id()), 1u);
  RelayInstance* b = mgr.reconnectUser(42, regions::usEast());
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b->id(), a->id());
  EXPECT_EQ(b->state(), InstanceState::Active);
  EXPECT_EQ(mgr.stats().crashes, 1u);
  EXPECT_EQ(mgr.stats().reconnectsReplaced, 1u);
}

TEST(GatewaySessionReconnectTest, DrainedPinFollowsTheMigrationTarget) {
  Simulator sim{3};
  ClusterConfig cfg;
  cfg.initialInstances = 2;
  cfg.policy = PlacementPolicy::LeastLoaded;
  InstanceManager mgr{sim, plainSpec(), cfg};

  RelayInstance* a = mgr.joinUser(42, regions::usEast());
  ASSERT_NE(a, nullptr);
  mgr.drain(a->id());  // pin reassigned to the migration target
  mgr.suspendUser(42);
  RelayInstance* b = mgr.reconnectUser(42, regions::usEast());
  ASSERT_NE(b, nullptr);
  EXPECT_NE(b->id(), a->id());
  EXPECT_EQ(mgr.stats().reconnectsSticky, 1u);  // the moved pin was honoured
}

// ------------------------------------------------------- churn workloads

/// Short-fuse tuning shared by the workload acceptance tests.
ChurnWorkloadConfig fastChurn() {
  ChurnWorkloadConfig cfg;
  cfg.sessions = 60;
  cfg.shards = 3;
  cfg.channels = 6;
  cfg.connectWindow = Duration::seconds(1);
  cfg.publishStart = Duration::seconds(2);
  cfg.publishEvery = Duration::millis(200);
  cfg.publishUntil = Duration::seconds(20);
  cfg.runFor = Duration::seconds(30);
  cfg.session.pingInterval = Duration::seconds(2);
  cfg.session.maxPingDelay = Duration::seconds(1);
  cfg.session.minReconnectDelay = Duration::millis(100);
  cfg.session.maxReconnectDelay = Duration::seconds(2);
  return cfg;
}

/// The three disruption scenarios the acceptance tests below run.
ChurnWorkloadConfig crashChurn() {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.crashAt = Duration::seconds(10);
  return cfg;
}

ChurnWorkloadConfig expiryChurn() {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.tokenTtl = Duration::seconds(6);
  cfg.session.tokenRefreshLead = Duration::zero();  // ride into the wave
  return cfg;
}

ChurnWorkloadConfig herdChurn(bool jittered) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.sessions = 150;
  cfg.connectWindow = Duration::seconds(2);
  cfg.connectCost = Duration::millis(2);
  cfg.herdAt = Duration::seconds(10);
  cfg.session.minReconnectDelay = Duration::millis(200);
  cfg.session.maxReconnectDelay = Duration::seconds(5);
  cfg.session.backoffFactor = 8.0;
  cfg.session.jitteredBackoff = jittered;
  return cfg;
}

TEST(SessionChurnTest, ReconnectStormAfterCrashLosesNothing) {
  const ChurnWorkloadConfig cfg = crashChurn();
  const ChurnWorkloadResult r = runChurnWorkload(17, cfg);

  EXPECT_EQ(r.connectedAtEnd, r.sessions);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_GT(r.pingTimeouts, 0u);          // the crash was silent
  EXPECT_GT(r.reconnects, 0u);
  EXPECT_GT(r.reconnectsReplaced, 0u);    // stale pins re-ran placement
  // The acceptance bar: recovery replays every missed message exactly once,
  // in order, with no full-state rejoin.
  EXPECT_GT(r.recovered, 0u);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.gaps, 0u);
  EXPECT_EQ(r.fullRejoins, 0u);
  // Zero loss means total receipts equal publishes times subscribers.
  EXPECT_EQ(r.received,
            r.published * (static_cast<std::uint64_t>(cfg.sessions) /
                           static_cast<std::uint64_t>(cfg.channels)));
}

TEST(SessionChurnTest, DrainReconnectsLandSticky) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.drainAt = Duration::seconds(10);
  const ChurnWorkloadResult r = runChurnWorkload(18, cfg);

  EXPECT_EQ(r.connectedAtEnd, r.sessions);
  EXPECT_GT(r.reconnectsSticky, 0u);  // pins followed the migration target
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.gaps, 0u);
  EXPECT_EQ(r.fullRejoins, 0u);
}

TEST(SessionChurnTest, TokenExpiryWaveRecoversWithoutLoss) {
  const ChurnWorkloadConfig cfg = expiryChurn();
  const ChurnWorkloadResult r = runChurnWorkload(19, cfg);

  EXPECT_GE(r.expiries, static_cast<std::uint64_t>(cfg.sessions));
  EXPECT_GT(r.serverDisconnects, 0u);
  EXPECT_EQ(r.connectedAtEnd, r.sessions);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.gaps, 0u);
}

TEST(SessionChurnTest, RefreshLeadPreventsTheExpiryWave) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.tokenTtl = Duration::seconds(6);
  cfg.session.tokenRefreshLead = Duration::seconds(2);
  const ChurnWorkloadResult r = runChurnWorkload(20, cfg);

  EXPECT_EQ(r.expiries, 0u);
  EXPECT_GT(r.tokenRefreshes, 0u);
  EXPECT_EQ(r.connectedAtEnd, r.sessions);
  EXPECT_EQ(r.lost, 0u);
}

TEST(SessionChurnTest, JitteredBackoffBeatsSynchronizedHerd) {
  const ChurnWorkloadResult rSync = runChurnWorkload(21, herdChurn(false));
  const ChurnWorkloadResult rJit = runChurnWorkload(21, herdChurn(true));

  // Both herds recover fully...
  EXPECT_EQ(rSync.connectedAtEnd, rSync.sessions);
  EXPECT_EQ(rJit.connectedAtEnd, rJit.sessions);
  EXPECT_EQ(rSync.lost, 0u);
  EXPECT_EQ(rJit.lost, 0u);
  // ...but lockstep retries slam the connect queue while jitter spreads it.
  EXPECT_GT(rSync.peakQueueInflation, 50.0);
  EXPECT_LT(rJit.peakQueueInflation, rSync.peakQueueInflation / 2.0);
}

TEST(ChurnConfigTest, RejectsNegativeSessions) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.sessions = -1;
  EXPECT_THROW((void)runChurnWorkload(1, cfg), std::invalid_argument);
}

TEST(ChurnConfigTest, RejectsZeroShards) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.shards = 0;
  EXPECT_THROW((void)runChurnWorkload(1, cfg), std::invalid_argument);
}

TEST(ChurnConfigTest, RejectsZeroChannels) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.channels = 0;
  EXPECT_THROW((void)runChurnWorkload(1, cfg), std::invalid_argument);
}

TEST(ChurnConfigTest, RejectsZeroPublishPeriod) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.publishEvery = Duration::zero();
  EXPECT_THROW((void)runChurnWorkload(1, cfg), std::invalid_argument);
}

// What every client accepted, and when, is independent of how the hub groups
// deliveries into events: these digests were recorded with one event per
// subscriber per message and must not move under batched fan-out.
TEST(SessionChurnTest, DeliveryTraceIsPinned) {
  EXPECT_EQ(runChurnWorkload(17, crashChurn()).deliveryTrace,
            0x8ce27afeed19beddULL);
  EXPECT_EQ(runChurnWorkload(19, expiryChurn()).deliveryTrace,
            0x193435efc6e38048ULL);
  EXPECT_EQ(runChurnWorkload(21, herdChurn(false)).deliveryTrace,
            0x25978b9ea4196395ULL);
  EXPECT_EQ(runChurnWorkload(21, herdChurn(true)).deliveryTrace,
            0xe16d963fb7e34c6cULL);
}

// ------------------------------------------------ thread-invariance sweep

audit::RunFingerprint churnFingerprint(std::uint64_t seed) {
  ChurnWorkloadConfig cfg = fastChurn();
  cfg.sessions = 40;
  cfg.crashAt = Duration::seconds(10);
  cfg.tokenTtl = Duration::seconds(12);
  cfg.session.tokenRefreshLead = Duration::zero();  // expiry wave too
  return runChurnWorkload(seed, cfg).fingerprint;
}

TEST(SessionSweepTest, ChurnDigestsIdenticalAcrossThreadCounts) {
  const auto seeds = defaultSeeds(2);
  for (const unsigned threads : {2u, 8u}) {
    const auto report =
        audit::verifyThreadInvariance(seeds, churnFingerprint, 1, threads);
    EXPECT_TRUE(report.identical) << report.describe();
  }
}

TEST(SessionSweepTest, ChurnFingerprintIsNotDegenerate) {
  const auto a = churnFingerprint(1000);
  const auto b = churnFingerprint(8919);
  EXPECT_GT(a.events, 1000u);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace msim::cluster
