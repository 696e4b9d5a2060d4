#pragma once

// Session tier x cluster coupling, plus the churn workload family.
//
// SessionCluster glues a SessionHub (connection lifecycle, token auth,
// channel recovery — src/session) to an InstanceManager (sticky placement,
// relay shards — this directory): accepted sessions are placed and join
// their shard's relay room, severed sessions leave it but keep their sticky
// pin, and shard drain/crash produces *real* reconnect traffic instead of a
// silent server-side re-home.
//
// runChurnWorkload() is the canonical scenario runner shared by tests,
// bench_session_churn, and the TSan thread-invariance sweep: a flash crowd
// connects, subscribes, and consumes published channel messages while the
// run optionally crashes a shard (reconnect storm via ping deadline), lets a
// token wave expire, or force-disconnects everyone at one instant (the
// thundering-herd comparison). The result carries the audit fingerprint and
// the exactly-once ledger (lost/duplicates/gaps must be zero).

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/manager.hpp"
#include "session/hub.hpp"

namespace msim::cluster {

struct SessionClusterConfig {
  ClusterConfig cluster;
  session::SessionConfig session;
  session::HubConfig hub;
  Duration tokenTtl = Duration::minutes(10);
  std::uint64_t tokenSecret{0x6d73696d5f736573ULL};
};

class SessionCluster {
 public:
  SessionCluster(Simulator& sim, DataSpec dataSpec, SessionClusterConfig cfg);

  /// Pre-sizes the session table, the pin table, and the shard rooms for
  /// `expected` sessions — the bulk-setup path large churn runs use so
  /// construction does not dominate the measurement window.
  void reserveSessions(std::size_t expected);

  /// Creates a session for `userId` (not yet connected; call connect()).
  /// Placement ignores `region`: every shard serves the same one.
  session::Session& addSession(std::uint64_t userId, const Region& region);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] InstanceManager& manager() { return mgr_; }
  [[nodiscard]] session::SessionHub& hub() { return hub_; }
  [[nodiscard]] const std::vector<std::unique_ptr<session::Session>>& sessions()
      const {
    return sessions_;
  }

  /// Simulated shard failure: room members dropped with no migration, shard
  /// Stopped, session bindings severed *silently* — clients discover the
  /// loss through their ping deadline and storm back through placement,
  /// which re-places them (the stale pin points at a Stopped shard).
  std::size_t crashShard(std::uint32_t id);
  /// Polite handoff: the room live-migrates and pins follow, then bindings
  /// are severed so sessions reconnect — landing sticky on the target.
  std::size_t drainShard(std::uint32_t id);

 private:
  Simulator& sim_;
  SessionClusterConfig cfg_;
  InstanceManager mgr_;
  session::SessionHub hub_;  // must outlive sessions_ (they deregister)
  std::vector<std::unique_ptr<session::Session>> sessions_;
};

// ---- canonical churn workloads --------------------------------------------

struct ChurnWorkloadConfig {
  int sessions{200};
  int shards{4};
  int channels{8};
  /// Sessions connect at RNG-uniform times in [0, connectWindow]; zero means
  /// a flash crowd (everyone at t=0, the connect-storm ramp).
  Duration connectWindow = Duration::seconds(2);
  /// Publishing runs [publishStart, publishUntil] per channel; the gap after
  /// connectWindow lets every subscription settle, the tail after
  /// publishUntil lets the last reconnect finish its recovery replay.
  Duration publishStart = Duration::seconds(5);
  Duration publishEvery = Duration::millis(250);
  Duration publishUntil = Duration::seconds(60);
  Duration runFor = Duration::seconds(90);
  /// Zero disables. crashAt: shard 0 fails (reconnect storm via deadline).
  Duration crashAt = Duration::zero();
  /// drainAt: shard 0 drains politely (sticky reconnect onto the target).
  Duration drainAt = Duration::zero();
  /// herdAt: every session is force-disconnected at one instant (the
  /// thundering-herd trigger; flip session.jitteredBackoff to compare).
  Duration herdAt = Duration::zero();
  session::SessionConfig session;
  Duration tokenTtl = Duration::minutes(10);
  std::size_t historyWindow{512};
  Duration connectCost = Duration::micros(500);
  int softUserCap{0};
};

struct ChurnWorkloadResult {
  audit::RunFingerprint fingerprint;
  std::size_t sessions{0};
  std::size_t connectedAtEnd{0};
  std::uint64_t published{0};
  std::uint64_t received{0};
  std::uint64_t recovered{0};   // arrived via history replay
  std::uint64_t duplicates{0};  // must be 0: exactly-once
  std::uint64_t gaps{0};        // must be 0: in-order
  std::uint64_t lost{0};        // must be 0: sum of head - cursor at end
  std::uint64_t fullRejoins{0};
  std::uint64_t connects{0};
  std::uint64_t reconnects{0};
  std::uint64_t pingTimeouts{0};
  std::uint64_t serverDisconnects{0};
  std::uint64_t tokenRefreshes{0};
  std::uint64_t expiries{0};
  std::uint64_t crashes{0};
  std::uint64_t reconnectsSticky{0};
  std::uint64_t reconnectsReplaced{0};
  std::size_t peakPendingConnects{0};
  Duration peakConnectQueueDelay = Duration::zero();
  /// peakConnectQueueDelay / connectCost: how many service slots the worst
  /// arrival waited behind — the gateway queue inflation number the
  /// jittered-vs-synchronized comparison records.
  double peakQueueInflation{0.0};
  /// Digest over (now, userId, channel, seq, payload, replayed) of every
  /// accepted channel message, in acceptance order. Unlike the fingerprint
  /// it ignores how deliveries are grouped into events, so it pins what
  /// clients saw across changes to the fan-out's event structure.
  std::uint64_t deliveryTrace{0};
};

/// Runs one seeded churn scenario to completion on a private audited
/// Simulator. Deterministic: bit-identical for any MSIM_THREADS when swept.
/// Throws std::invalid_argument on negative sessions, or on non-positive
/// shards, channels or publishEvery.
[[nodiscard]] ChurnWorkloadResult runChurnWorkload(
    std::uint64_t seed, const ChurnWorkloadConfig& cfg);

}  // namespace msim::cluster
