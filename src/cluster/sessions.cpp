#include "cluster/sessions.hpp"

#include <stdexcept>

#include "audit/digest.hpp"
#include "geo/geo.hpp"

namespace msim::cluster {

SessionCluster::SessionCluster(Simulator& sim, DataSpec dataSpec,
                               SessionClusterConfig cfg)
    : sim_{sim},
      cfg_{cfg},
      mgr_{sim, dataSpec, cfg.cluster},
      hub_{sim, session::TokenAuthority{cfg.tokenSecret, cfg.tokenTtl},
           cfg.hub} {
  // Placement reads no region: every shard serves the same one.
  hub_.setPlacer([this](std::uint64_t userId, const Region&,
                        bool reconnect) -> std::int32_t {
    RelayInstance* inst = reconnect ? mgr_.reconnectUser(userId)
                                    : mgr_.joinUser(userId);
    return inst != nullptr ? static_cast<std::int32_t>(inst->id()) : -1;
  });
  hub_.setOnSessionDown(
      [this](session::Session& s) { mgr_.suspendUser(s.userId()); });
  hub_.setOnSessionClosed(
      [this](session::Session& s) { mgr_.leaveUser(s.userId()); });
}

void SessionCluster::reserveSessions(std::size_t expected) {
  sessions_.reserve(expected);
  mgr_.reserveUsers(expected);
}

session::Session& SessionCluster::addSession(std::uint64_t userId,
                                             const Region& region) {
  sessions_.push_back(std::make_unique<session::Session>(hub_, cfg_.session,
                                                         userId, region));
  return *sessions_.back();
}

std::size_t SessionCluster::crashShard(std::uint32_t id) {
  const std::size_t dropped = mgr_.crash(id);
  hub_.markShardDead(static_cast<std::int32_t>(id));
  return dropped;
}

std::size_t SessionCluster::drainShard(std::uint32_t id) {
  const std::size_t moved = mgr_.drain(id);
  // Even a polite drain forces a reconnect (the old shard address is gone);
  // the pins moved with the migration, so the storm lands sticky.
  hub_.markShardDead(static_cast<std::int32_t>(id));
  return moved;
}

// ---- canonical churn workloads --------------------------------------------

namespace {

/// Self-rescheduling per-channel publisher (payload ids from the sim's own
/// id source keep runs hermetic).
void pumpChannel(Simulator& sim, session::SessionHub& hub,
                 std::uint64_t channel, Duration every, TimePoint until) {
  if (sim.now() > until) return;
  hub.publish(channel, sim.nextId(), /*bytes=*/64);
  Simulator* simp = &sim;
  session::SessionHub* hubp = &hub;
  sim.scheduleAfter(every, [simp, hubp, channel, every, until] {
    pumpChannel(*simp, *hubp, channel, every, until);
  });
}

}  // namespace

ChurnWorkloadResult runChurnWorkload(std::uint64_t seed,
                                     const ChurnWorkloadConfig& cfg) {
  // Fail before building anything: sessions are dealt `i % channels`, and a
  // publisher with no period would re-arm at the same instant forever.
  if (cfg.sessions < 0) {
    throw std::invalid_argument("runChurnWorkload: sessions must be >= 0");
  }
  if (cfg.shards <= 0) {
    throw std::invalid_argument("runChurnWorkload: shards must be > 0");
  }
  if (cfg.channels <= 0) {
    throw std::invalid_argument("runChurnWorkload: channels must be > 0");
  }
  if (cfg.publishEvery <= Duration::zero()) {
    throw std::invalid_argument("runChurnWorkload: publishEvery must be > 0");
  }
  Simulator sim{seed};
  sim.enableAudit(/*recordTrail=*/true);

  SessionClusterConfig scc;
  scc.cluster.initialInstances = cfg.shards;
  scc.cluster.capacity.softUserCap = cfg.softUserCap;
  scc.session = cfg.session;
  scc.hub.connectCost = cfg.connectCost;
  scc.hub.historyWindow = cfg.historyWindow;
  scc.tokenTtl = cfg.tokenTtl;
  DataSpec dataSpec;  // plain relay rooms; the session tier is under test
  SessionCluster sc{sim, dataSpec, scc};
  sc.reserveSessions(static_cast<std::size_t>(cfg.sessions));
  // Word-wise FNV over each accepted message: a multiply per field keeps
  // the fold cheap next to the delivery it records.
  std::uint64_t trace = audit::Digest::kOffsetBasis;
  const auto fold = [&trace](std::uint64_t v) {
    trace = (trace ^ v) * audit::Digest::kPrime;
  };

  // Sessions: subscribe first (queued until accept), connect at RNG-uniform
  // offsets inside the window (a flash crowd when the window is zero).
  for (int i = 0; i < cfg.sessions; ++i) {
    const std::uint64_t userId = 1000 + static_cast<std::uint64_t>(i);
    session::Session& s = sc.addSession(userId, regions::usEast());
    s.subscribe(1 + static_cast<std::uint64_t>(i % cfg.channels));
    s.setOnMessage([&sim, &fold](session::Session& self,
                                 std::uint64_t channel, std::uint64_t seq,
                                 std::uint64_t payload, bool replayed) {
      sim.auditNote(self.userId() ^ (channel << 20) ^ (seq << 28) ^ payload ^
                    (replayed ? 0x8000000000000000ULL : 0));
      fold(static_cast<std::uint64_t>(sim.now().toNanos()));
      fold(self.userId());
      fold(channel);
      fold(seq);
      fold(payload);
      fold(replayed ? 1 : 0);
    });
    const Duration at =
        cfg.connectWindow.isZero()
            ? Duration::zero()
            : Duration::seconds(sim.rng().uniform(
                  0.0, cfg.connectWindow.toSeconds()));
    session::Session* sp = &s;
    sim.scheduleAfter(at, [sp] { sp->connect(); });
  }

  // Publishers.
  const TimePoint until = TimePoint::epoch() + cfg.publishUntil;
  for (int c = 0; c < cfg.channels; ++c) {
    const std::uint64_t channel = 1 + static_cast<std::uint64_t>(c);
    Simulator* simp = &sim;
    session::SessionHub* hubp = &sc.hub();
    const Duration every = cfg.publishEvery;
    sim.schedule(TimePoint::epoch() + cfg.publishStart,
                 [simp, hubp, channel, every, until] {
                   pumpChannel(*simp, *hubp, channel, every, until);
                 });
  }

  // Disruptions.
  SessionCluster* scp = &sc;
  if (!cfg.crashAt.isZero()) {
    sim.schedule(TimePoint::epoch() + cfg.crashAt, [scp] {
      scp->sim().auditNote("shard0-crash");
      scp->crashShard(0);
    });
  }
  if (!cfg.drainAt.isZero()) {
    sim.schedule(TimePoint::epoch() + cfg.drainAt, [scp] {
      scp->sim().auditNote("shard0-drain");
      scp->drainShard(0);
    });
  }
  if (!cfg.herdAt.isZero()) {
    sim.schedule(TimePoint::epoch() + cfg.herdAt, [scp] {
      scp->sim().auditNote("herd-disconnect");
      scp->hub().disconnectAll(/*notifyClients=*/true);
    });
  }

  sim.runFor(cfg.runFor);

  ChurnWorkloadResult r;
  r.sessions = static_cast<std::size_t>(cfg.sessions);
  for (const auto& sp : sc.sessions()) {
    const session::Session& s = *sp;
    if (s.state() == session::ConnectionState::Connected) ++r.connectedAtEnd;
    const session::SessionStats& st = s.stats();
    r.received += st.received;
    r.recovered += st.recovered;
    r.duplicates += st.duplicates;
    r.gaps += st.gaps;
    r.fullRejoins += st.fullRejoins;
    r.connects += st.connects;
    r.reconnects += st.reconnects;
    r.pingTimeouts += st.pingTimeouts;
    r.serverDisconnects += st.serverDisconnects;
    r.tokenRefreshes += st.tokenRefreshes;
    // Exactly-once ledger: every subscriber must end at its channel's head.
    const std::uint64_t channel =
        1 + (s.userId() - 1000) % static_cast<std::uint64_t>(cfg.channels);
    const std::uint64_t head = sc.hub().broker().headSeq(channel);
    const std::uint64_t cursor = s.lastSeq(channel);
    r.lost += head > cursor ? head - cursor : 0;
  }
  const session::HubStats& hs = sc.hub().stats();
  r.published = hs.published;
  r.expiries = hs.expiries;
  r.peakPendingConnects = hs.peakPendingConnects;
  r.peakConnectQueueDelay = hs.peakConnectQueueDelay;
  r.peakQueueInflation =
      cfg.connectCost.isZero()
          ? 0.0
          : hs.peakConnectQueueDelay / cfg.connectCost;
  const ClusterStats cs = sc.manager().stats();
  r.crashes = cs.crashes;
  r.reconnectsSticky = cs.reconnectsSticky;
  r.reconnectsReplaced = cs.reconnectsReplaced;
  r.fingerprint = sim.auditFingerprint();
  r.deliveryTrace = trace;
  return r;
}

}  // namespace msim::cluster
