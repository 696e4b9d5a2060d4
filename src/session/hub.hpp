#pragma once

// Server-side session tier: accepts connects, validates tokens, binds
// sessions to shards, answers pings, expires tokens, and fans published
// channel messages out to connected subscribers.
//
// The hub is the control-plane single server the reconnect-storm workloads
// stress: connect attempts drain through a FIFO queue at `connectCost`
// apiece, so a synchronized retry wave inflates the queue delay while a
// jittered wave spreads it — peakConnectQueueDelay / connectCost is the
// "gateway queue inflation" number the thundering-herd comparison records.
//
// Shard death is silent by design: markShardDead() severs the server-side
// bindings (so deliveries stop and placement hooks fire) but never notifies
// clients — they discover the loss through the ping deadline, exactly like a
// relay that stopped answering (§4.2's sessions pinned to a dead address).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "session/history.hpp"
#include "session/session.hpp"
#include "util/batchpool.hpp"

namespace msim::session {

struct HubConfig {
  /// Control-plane service time per connect attempt (token check, placement,
  /// state setup). The connect queue drains at this rate.
  Duration connectCost = Duration::micros(500);
  /// Messages retained per channel for reconnect recovery.
  std::size_t historyWindow{256};
};

struct HubStats {
  std::uint64_t accepts{0};
  std::uint64_t rejects{0};
  std::uint64_t tokenRejects{0};
  std::uint64_t refreshes{0};
  std::uint64_t pings{0};
  std::uint64_t expiries{0};       // server-initiated disconnects on expiry
  std::uint64_t byes{0};           // clean client disconnects
  std::uint64_t closes{0};
  std::uint64_t published{0};
  std::uint64_t delivered{0};      // live fan-out deliveries scheduled
  std::uint64_t replayed{0};       // recovery replays scheduled
  std::uint64_t fullRejoins{0};    // resumes that outran the history window
  std::uint64_t shardEvictions{0}; // bindings severed by markShardDead
  std::uint64_t forcedDisconnects{0};  // severed by disconnectAll
  /// Connect-queue pressure: high-water length and wait (wait includes the
  /// service slot, so an idle hub still reports one connectCost).
  std::size_t peakPendingConnects{0};
  Duration peakConnectQueueDelay = Duration::zero();
};

class SessionHub {
 public:
  /// Decides the shard for an accepted session; `reconnect` is true when the
  /// session held a binding before. Return a negative id to refuse
  /// (NoCapacity reject).
  using Placer =
      std::function<std::int32_t(std::uint64_t userId, const Region& region,
                                 bool reconnect)>;
  using SessionHook = std::function<void(Session& s)>;

  SessionHub(Simulator& sim, TokenAuthority authority, HubConfig cfg);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] TokenAuthority& authority() { return authority_; }
  [[nodiscard]] ChannelBroker& broker() { return broker_; }
  [[nodiscard]] const HubConfig& config() const { return cfg_; }
  [[nodiscard]] const HubStats& stats() const { return stats_; }
  /// Sessions currently accepted and bound to a live shard.
  [[nodiscard]] std::size_t connectedCount() const { return connected_; }
  [[nodiscard]] std::size_t pendingConnects() const {
    return queue_.size() - queueHead_;
  }

  void setPlacer(Placer p) { placer_ = std::move(p); }
  /// Fired when a session is accepted / loses its binding (shard death,
  /// expiry, clean bye) / closes for good. The cluster layer joins and
  /// leaves relay rooms from these.
  void setOnSessionUp(SessionHook h) { onUp_ = std::move(h); }
  void setOnSessionDown(SessionHook h) { onDown_ = std::move(h); }
  void setOnSessionClosed(SessionHook h) { onClosed_ = std::move(h); }

  // ---- session registry (called by Session) -------------------------------
  std::uint32_t registerSession(Session* s);
  void deregisterSession(std::uint32_t id);
  [[nodiscard]] Session* sessionAt(std::uint32_t id) {
    return id < recs_.size() ? recs_[id].s : nullptr;
  }

  // ---- client -> hub messages (arrive via scheduled events) ---------------
  void requestToken(std::uint32_t id, std::uint64_t epoch);
  void clientConnect(std::uint32_t id, std::uint64_t epoch, const Token& token,
                     bool reconnect);
  void clientRefresh(std::uint32_t id, std::uint64_t epoch, const Token& token);
  void clientPing(std::uint32_t id, std::uint64_t epoch);
  void clientSubscribe(std::uint32_t id, std::uint64_t epoch,
                       std::uint64_t channel, std::uint64_t lastSeq,
                       bool resume);
  void clientBye(std::uint32_t id, std::uint64_t epoch);
  void closeSession(std::uint32_t id);

  // ---- server operations --------------------------------------------------
  /// Publishes to a channel: stamps a sequence, retains history, and
  /// schedules delivery to every connected subscriber after the downlink
  /// hop — one event per distinct downlink delay, walking its subscribers
  /// in id order. Returns the assigned sequence.
  std::uint64_t publish(std::uint64_t channel, std::uint64_t payload,
                        std::uint32_t bytes);
  /// Severs every binding to `shard` without telling the clients (they find
  /// out via ping deadline). Returns sessions evicted.
  std::size_t markShardDead(std::int32_t shard);
  /// Severs every connected session at once — the forced re-auth /
  /// maintenance push that makes thundering herds: with notification every
  /// client learns simultaneously, so synchronized backoff slams the connect
  /// queue while jittered backoff spreads the wave. Returns sessions severed.
  std::size_t disconnectAll(bool notifyClients = true);

  /// One-way hub->client delay used for all downlink scheduling (mirrors
  /// SessionConfig::oneWayDelay; per-session configs may differ, so the
  /// downlink uses the session's own).
  [[nodiscard]] Duration downlinkDelay(const Session& s) const {
    return s.config().oneWayDelay;
  }

 private:
  /// Server-side view of one session. Ids are recycled in place, and each
  /// id keeps its expiry Timer (out of line, so the records the fan-out
  /// walks stay compact).
  struct Rec {
    Session* s{nullptr};
    bool connected{false};
    std::int32_t shard{-1};
    std::uint64_t epoch{0};  // epoch of the accepted connection
    std::unique_ptr<Timer> expiry;  // at the token's expiry while connected
  };
  struct PendingConnect {
    std::uint32_t id{0};
    std::uint64_t epoch{0};
    Token token;
    bool reconnect{false};
    TimePoint enqueuedAt;
  };
  /// One channel message bound for one session, stamped with the epoch of
  /// the binding it was sent under.
  struct Delivery {
    std::uint32_t sid{0};
    std::uint64_t epoch{0};
    std::uint64_t seq{0};
    std::uint64_t payload{0};
  };
  using Batch = BatchPool<Delivery>::Batch;
  /// A batch being filled for one downlink delay.
  struct OpenBatch {
    Duration delay;
    Batch batch;
  };

  void processNextConnect();
  void acceptOrReject(const PendingConnect& p);
  void sever(Rec& r, bool notifyClient);
  /// Adds a delivery to the open batch for `s`'s downlink delay.
  void enqueue(const Session& s, const Delivery& d);
  /// Schedules one event per open batch, then closes them all.
  void flushBatches(std::uint64_t channel, bool replayed);

  Simulator& sim_;
  TokenAuthority authority_;
  HubConfig cfg_;
  ChannelBroker broker_;
  std::vector<Rec> recs_;
  std::vector<std::uint32_t> freeIds_;
  // FIFO connect queue: vector + consumption head (kept warm; a deque would
  // re-allocate blocks in steady state).
  std::vector<PendingConnect> queue_;
  std::size_t queueHead_{0};
  Timer service_{sim_, [this] { processNextConnect(); }};  // armed while queued
  std::size_t connected_{0};
  Placer placer_;
  SessionHook onUp_;
  SessionHook onDown_;
  SessionHook onClosed_;
  HubStats stats_;
  // Batched downlink (DESIGN.md §13): a publish or a replay fills one batch
  // per distinct downlink delay, in subscriber order, and each batch is one
  // queue event. The entry buffers recycle through the pool.
  std::vector<OpenBatch> open_;
  BatchPool<Delivery> batches_;
};

}  // namespace msim::session
