#pragma once

// Client-side connection lifecycle: the session state machine.
//
// The paper's control-channel observations (§4.1) come from clients that
// were born connected and never left; every churn-driven behaviour of a real
// platform — reconnect storms after a relay dies, token-expiry waves,
// thundering herds — lives in the state machine this file models, patterned
// on the Centrifugo client (SNIPPETS.md): a
// Disconnected/Connecting/Connected/Reconnecting/Closed machine, token auth
// with expiry and refresh-before-expiry, ping/pong liveness with a
// maxPingDelay deadline, and exponential reconnect backoff with
// deterministic jitter clamped between minReconnectDelay and
// maxReconnectDelay.
//
// Determinism contract: every transition is driven by sim events and every
// jitter draw comes from the owning Simulator's Rng (R2/R5 — no wall clock,
// no thread order), so churn-heavy sweeps stay bit-identical across
// MSIM_THREADS.

#include <cstdint>
#include <functional>
#include <vector>

#include "geo/geo.hpp"
#include "sim/simulator.hpp"

namespace msim::session {

class SessionHub;

enum class ConnectionState : std::uint8_t {
  Disconnected,  // not connected, no retry pending (initial / client choice)
  Connecting,    // first user-initiated attempt in flight
  Connected,     // accepted by the hub, bound to a shard
  Reconnecting,  // lost the server; automatic backoff retries in progress
  Closed,        // terminal; the session will never connect again
};

[[nodiscard]] const char* toString(ConnectionState s);

/// Why the hub refused a connect attempt.
enum class RejectReason : std::uint8_t { TokenExpired, TokenForged, NoCapacity };

/// A signed bearer token for session establishment (JWT stand-in: the
/// simulation keeps the claims and an integrity tag, not an encoding).
struct Token {
  std::uint64_t userId{0};
  TimePoint expiresAt;
  std::uint64_t signature{0};
};

/// Issues and verifies session tokens. Lives server-side (the platform
/// control tier owns one per deployment); verification failures are counted
/// rather than logged.
class TokenAuthority {
 public:
  TokenAuthority(std::uint64_t secret, Duration ttl)
      : secret_{secret}, ttl_{ttl} {}

  [[nodiscard]] Token issue(std::uint64_t userId, TimePoint now) {
    ++issued_;
    Token t;
    t.userId = userId;
    t.expiresAt = now + ttl_;
    t.signature = sign(userId, t.expiresAt);
    return t;
  }

  /// Signature and expiry check; counts the failure mode.
  [[nodiscard]] bool validate(const Token& t, TimePoint now) {
    if (t.signature != sign(t.userId, t.expiresAt)) {
      ++rejectedForged_;
      return false;
    }
    if (t.expiresAt <= now) {
      ++rejectedExpired_;
      return false;
    }
    return true;
  }

  [[nodiscard]] Duration ttl() const { return ttl_; }
  [[nodiscard]] std::uint64_t issuedTotal() const { return issued_; }
  [[nodiscard]] std::uint64_t rejectedExpired() const { return rejectedExpired_; }
  [[nodiscard]] std::uint64_t rejectedForged() const { return rejectedForged_; }

 private:
  [[nodiscard]] std::uint64_t sign(std::uint64_t userId,
                                   TimePoint expiresAt) const {
    // splitmix64 finalizer over (secret, claims): not cryptography, but a
    // deterministic integrity tag a forged token cannot guess.
    std::uint64_t x =
        secret_ ^ (userId * 0x9e3779b97f4a7c15ULL) ^
        static_cast<std::uint64_t>(expiresAt.toNanos());
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t secret_;
  Duration ttl_;
  std::uint64_t issued_{0};
  std::uint64_t rejectedExpired_{0};
  std::uint64_t rejectedForged_{0};
};

/// Client session tuning, modeled on the Centrifugo ClientConfig defaults.
struct SessionConfig {
  /// Refresh the token this long before it expires (zero = never refresh —
  /// the token-expiry-wave workloads run with this off).
  Duration tokenRefreshLead = Duration::seconds(20);
  /// Liveness ping cadence while Connected.
  Duration pingInterval = Duration::seconds(25);
  /// A ping unanswered for this long means the server is gone.
  Duration maxPingDelay = Duration::seconds(10);
  /// Reconnect backoff window: attempt k waits within
  /// [minReconnectDelay, min(maxReconnectDelay, min * factor^(k+1))].
  Duration minReconnectDelay = Duration::millis(200);
  Duration maxReconnectDelay = Duration::seconds(20);
  double backoffFactor{2.0};
  /// Full jitter (drawn from the sim RNG) vs the raw exponential delay —
  /// the thundering-herd comparison flips this.
  bool jitteredBackoff{true};
  /// One-way client<->hub control latency per hop.
  Duration oneWayDelay = Duration::millis(20);
};

struct SessionStats {
  std::uint64_t connectAttempts{0};
  std::uint64_t connects{0};
  std::uint64_t reconnects{0};        // connects that followed a loss
  std::uint64_t rejects{0};
  std::uint64_t tokenRejects{0};
  std::uint64_t tokenRefreshes{0};
  std::uint64_t pingTimeouts{0};
  std::uint64_t serverDisconnects{0};
  std::uint64_t received{0};          // channel messages accepted
  std::uint64_t recovered{0};         // of which arrived via history replay
  std::uint64_t duplicates{0};        // dropped: seq <= cursor
  std::uint64_t gaps{0};              // cursor jumps (should stay 0)
  std::uint64_t fullRejoins{0};       // resume fell out of the history window
};

/// One client connection. Address-stable (owns live timer EventIds that
/// capture `this`): hold sessions by unique_ptr, never in a reallocating
/// vector by value.
class Session {
 public:
  /// Throws std::invalid_argument, before registering with the hub, on a
  /// non-positive pingInterval or maxPingDelay, a negative oneWayDelay,
  /// minReconnectDelay > maxReconnectDelay, or backoffFactor < 1.
  Session(SessionHub& hub, SessionConfig cfg, std::uint64_t userId,
          Region region);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- client API ---------------------------------------------------------
  /// Begins the first attempt (Disconnected -> Connecting). No-op otherwise.
  void connect();
  /// Clean client-side disconnect: tells the hub goodbye, keeps channel
  /// cursors so a later connect() resumes subscriptions.
  void disconnect();
  /// Terminal close: cancels everything and releases server-side state.
  void close();
  /// Registers interest in a channel; subscribes on the wire once Connected.
  void subscribe(std::uint64_t channelId);

  [[nodiscard]] ConnectionState state() const { return state_; }
  [[nodiscard]] std::uint64_t userId() const { return userId_; }
  [[nodiscard]] const Region& region() const { return region_; }
  /// Dense id assigned by the hub (stable for the session's lifetime).
  [[nodiscard]] std::uint32_t id() const { return id_; }
  /// Shard the session is (or was last) bound to; -1 before first accept.
  [[nodiscard]] std::int32_t shard() const { return shard_; }
  [[nodiscard]] const SessionStats& stats() const { return stats_; }
  [[nodiscard]] const SessionConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t lastSeq(std::uint64_t channelId) const;

  /// Observer hooks (tests, scenario runners). Invoked synchronously from
  /// within the transition event.
  void setOnStateChange(std::function<void(Session&, ConnectionState)> fn) {
    onStateChange_ = std::move(fn);
  }
  void setOnMessage(
      std::function<void(Session&, std::uint64_t channel, std::uint64_t seq,
                         std::uint64_t payload, bool replayed)>
          fn) {
    onMessage_ = std::move(fn);
  }

  /// Reconnect delay for (0-based) retry `attempt` — exposed so tests can
  /// pin the clamp/jitter contract. Draws from the sim RNG when jittered.
  [[nodiscard]] Duration backoffDelay(std::uint32_t attempt);

  // ---- hub -> client notifications (scheduled by SessionHub) --------------
  void deliverToken(const Token& t, std::uint64_t epoch);
  void onAccept(std::uint64_t epoch, std::int32_t shard);
  void onReject(std::uint64_t epoch, RejectReason reason);
  void onPong(std::uint64_t epoch);
  void onServerDisconnect(std::uint64_t epoch);
  void onSubscribed(std::uint64_t epoch, std::uint64_t channel,
                    std::uint64_t headSeq);
  void onResumed(std::uint64_t epoch, std::uint64_t channel, bool recovered,
                 std::uint64_t headSeq);
  void onMessage(std::uint64_t epoch, std::uint64_t channel, std::uint64_t seq,
                 std::uint64_t payload, bool replayed);
  /// Current attempt/connection generation; the hub stamps events with it so
  /// anything in flight across a disconnect is dropped on arrival.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  struct Subscription {
    std::uint64_t channel{0};
    std::uint64_t cursor{0};  // last seq accepted
    bool synced{false};       // false until the first subscribe ack
  };

  void setState(ConnectionState s);
  void beginAttempt();
  void scheduleReconnect();
  void sendPing();
  void cancelTimers();
  void armRefresh();
  [[nodiscard]] Subscription* findSub(std::uint64_t channel);

  SessionHub& hub_;
  Simulator& sim_;
  SessionConfig cfg_;
  std::uint64_t userId_;
  Region region_;
  std::uint32_t id_{0};
  ConnectionState state_{ConnectionState::Disconnected};
  std::uint64_t epoch_{0};
  std::uint32_t attempt_{0};  // consecutive failed attempts (backoff input)
  std::int32_t shard_{-1};
  Token token_;
  bool hasToken_{false};
  std::vector<Subscription> subs_;
  SessionStats stats_;
  EventId pingTimer_;
  EventId pongDeadline_;
  EventId reconnectTimer_;
  EventId refreshTimer_;
  std::function<void(Session&, ConnectionState)> onStateChange_;
  std::function<void(Session&, std::uint64_t, std::uint64_t, std::uint64_t,
                     bool)>
      onMessage_;
};

}  // namespace msim::session
