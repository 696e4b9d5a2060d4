#include "session/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "session/hub.hpp"

namespace msim::session {

const char* toString(ConnectionState s) {
  switch (s) {
    case ConnectionState::Disconnected: return "disconnected";
    case ConnectionState::Connecting: return "connecting";
    case ConnectionState::Connected: return "connected";
    case ConnectionState::Reconnecting: return "reconnecting";
    case ConnectionState::Closed: return "closed";
  }
  return "?";
}

namespace {

/// Rejects configs the state machine cannot run: a zero ping cadence
/// re-arms at the same instant forever, a zero deadline fails every ping,
/// and an inverted backoff window or a shrinking factor breaks the clamp
/// contract (the Centrifugo client's bounds, SNIPPETS.md).
const SessionConfig& validated(const SessionConfig& cfg) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"SessionConfig: "} + what);
  };
  if (cfg.pingInterval <= Duration::zero()) reject("pingInterval must be > 0");
  if (cfg.maxPingDelay <= Duration::zero()) reject("maxPingDelay must be > 0");
  if (cfg.oneWayDelay < Duration::zero()) reject("oneWayDelay must be >= 0");
  if (cfg.minReconnectDelay > cfg.maxReconnectDelay) {
    reject("minReconnectDelay must not exceed maxReconnectDelay");
  }
  if (!(cfg.backoffFactor >= 1.0)) reject("backoffFactor must be >= 1");
  return cfg;
}

}  // namespace

Session::Session(SessionHub& hub, SessionConfig cfg, std::uint64_t userId,
                 Region region)
    : hub_{hub},
      sim_{hub.sim()},
      cfg_{validated(cfg)},
      userId_{userId},
      region_{std::move(region)} {
  id_ = hub_.registerSession(this);
}

Session::~Session() {
  cancelTimers();
  hub_.deregisterSession(id_);
}

void Session::setState(ConnectionState s) {
  if (state_ == s) return;
  state_ = s;
  if (onStateChange_) onStateChange_(*this, s);
}

void Session::cancelTimers() {
  sim_.cancel(pingTimer_);
  sim_.cancel(pongDeadline_);
  sim_.cancel(reconnectTimer_);
  sim_.cancel(refreshTimer_);
}

Session::Subscription* Session::findSub(std::uint64_t channel) {
  for (Subscription& s : subs_) {
    if (s.channel == channel) return &s;
  }
  return nullptr;
}

std::uint64_t Session::lastSeq(std::uint64_t channelId) const {
  for (const Subscription& s : subs_) {
    if (s.channel == channelId) return s.cursor;
  }
  return 0;
}

// ---- client API -----------------------------------------------------------

void Session::connect() {
  if (state_ != ConnectionState::Disconnected) return;
  setState(ConnectionState::Connecting);
  beginAttempt();
}

void Session::disconnect() {
  if (state_ == ConnectionState::Closed ||
      state_ == ConnectionState::Disconnected) {
    return;
  }
  if (state_ == ConnectionState::Connected) {
    SessionHub* hub = &hub_;
    const std::uint32_t id = id_;
    const std::uint64_t epoch = epoch_;
    sim_.scheduleAfter(cfg_.oneWayDelay,
                       [hub, id, epoch] { hub->clientBye(id, epoch); });
  }
  cancelTimers();
  attempt_ = 0;
  ++epoch_;  // anything still in flight is stale on arrival
  setState(ConnectionState::Disconnected);
}

void Session::close() {
  if (state_ == ConnectionState::Closed) return;
  cancelTimers();
  ++epoch_;
  hub_.closeSession(id_);
  setState(ConnectionState::Closed);
}

void Session::subscribe(std::uint64_t channelId) {
  if (findSub(channelId) != nullptr) return;
  subs_.push_back({channelId, 0, false});
  if (state_ != ConnectionState::Connected) return;  // sent at next accept
  SessionHub* hub = &hub_;
  const std::uint32_t id = id_;
  const std::uint64_t epoch = epoch_;
  sim_.scheduleAfter(cfg_.oneWayDelay, [hub, id, epoch, channelId] {
    hub->clientSubscribe(id, epoch, channelId, 0, /*resume=*/false);
  });
}

// ---- attempt machinery ----------------------------------------------------

void Session::beginAttempt() {
  ++epoch_;
  ++stats_.connectAttempts;
  const std::uint64_t epoch = epoch_;
  if (!hasToken_ || token_.expiresAt <= sim_.now()) {
    hub_.requestToken(id_, epoch);  // continues in deliverToken()
    return;
  }
  SessionHub* hub = &hub_;
  const std::uint32_t id = id_;
  const Token tok = token_;
  const bool reconnect = shard_ >= 0;
  sim_.scheduleAfter(cfg_.oneWayDelay, [hub, id, epoch, tok, reconnect] {
    hub->clientConnect(id, epoch, tok, reconnect);
  });
}

void Session::deliverToken(const Token& t, std::uint64_t epoch) {
  if (epoch != epoch_) return;
  token_ = t;
  hasToken_ = true;
  if (state_ == ConnectionState::Connected) {
    // Proactive refresh: hand the new expiry to the hub, re-arm the timer.
    ++stats_.tokenRefreshes;
    SessionHub* hub = &hub_;
    const std::uint32_t id = id_;
    const Token tok = token_;
    sim_.scheduleAfter(cfg_.oneWayDelay, [hub, id, epoch, tok] {
      hub->clientRefresh(id, epoch, tok);
    });
    armRefresh();
    return;
  }
  if (state_ != ConnectionState::Connecting &&
      state_ != ConnectionState::Reconnecting) {
    return;
  }
  SessionHub* hub = &hub_;
  const std::uint32_t id = id_;
  const Token tok = token_;
  const bool reconnect = shard_ >= 0;
  sim_.scheduleAfter(cfg_.oneWayDelay, [hub, id, epoch, tok, reconnect] {
    hub->clientConnect(id, epoch, tok, reconnect);
  });
}

Duration Session::backoffDelay(std::uint32_t attempt) {
  const double minS = cfg_.minReconnectDelay.toSeconds();
  const double maxS = cfg_.maxReconnectDelay.toSeconds();
  // The ceiling grows from the first retry (attempt 0 draws in
  // [min, min*factor]) so even a storm's initial wave has spread to use.
  double raw = minS;
  for (std::uint32_t i = 0; i <= attempt && raw < maxS; ++i) {
    raw *= cfg_.backoffFactor;
  }
  raw = std::min(raw, maxS);
  raw = std::max(raw, minS);
  if (!cfg_.jitteredBackoff) return Duration::seconds(raw);
  return Duration::seconds(minS + (raw - minS) * sim_.rng().uniform(0.0, 1.0));
}

void Session::scheduleReconnect() {
  const Duration d = backoffDelay(attempt_);
  ++attempt_;
  reconnectTimer_ = sim_.scheduleAfter(d, [this] {
    if (state_ == ConnectionState::Reconnecting) beginAttempt();
  });
}

// ---- liveness -------------------------------------------------------------

void Session::sendPing() {
  if (state_ != ConnectionState::Connected) return;
  SessionHub* hub = &hub_;
  const std::uint32_t id = id_;
  const std::uint64_t epoch = epoch_;
  sim_.scheduleAfter(cfg_.oneWayDelay,
                     [hub, id, epoch] { hub->clientPing(id, epoch); });
  sim_.cancel(pongDeadline_);
  pongDeadline_ = sim_.scheduleAfter(cfg_.maxPingDelay, [this] {
    if (state_ != ConnectionState::Connected) return;
    // Silence past maxPingDelay: the shard stopped answering (crash, not a
    // polite drain) — enter the backoff loop.
    ++stats_.pingTimeouts;
    cancelTimers();
    setState(ConnectionState::Reconnecting);
    scheduleReconnect();
  });
}

void Session::onPong(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != ConnectionState::Connected) return;
  sim_.cancel(pongDeadline_);
  pingTimer_ = sim_.scheduleAfter(cfg_.pingInterval, [this] { sendPing(); });
}

// ---- token refresh --------------------------------------------------------

void Session::armRefresh() {
  sim_.cancel(refreshTimer_);
  if (cfg_.tokenRefreshLead <= Duration::zero() || !hasToken_) return;
  Duration d = (token_.expiresAt - cfg_.tokenRefreshLead) - sim_.now();
  if (d < Duration::zero()) d = Duration::zero();
  refreshTimer_ = sim_.scheduleAfter(d, [this] {
    if (state_ == ConnectionState::Connected) hub_.requestToken(id_, epoch_);
  });
}

// ---- hub -> client --------------------------------------------------------

void Session::onAccept(std::uint64_t epoch, std::int32_t shard) {
  if (epoch != epoch_) return;
  if (state_ != ConnectionState::Connecting &&
      state_ != ConnectionState::Reconnecting) {
    return;
  }
  const bool wasRetry = state_ == ConnectionState::Reconnecting;
  shard_ = shard;
  attempt_ = 0;
  ++stats_.connects;
  if (wasRetry) ++stats_.reconnects;
  setState(ConnectionState::Connected);
  pingTimer_ = sim_.scheduleAfter(cfg_.pingInterval, [this] { sendPing(); });
  armRefresh();
  // Re-establish every subscription: fresh ones subscribe from the head,
  // previously-synced ones resume from their cursor (the recovery path).
  SessionHub* hub = &hub_;
  const std::uint32_t id = id_;
  for (const Subscription& sub : subs_) {
    const std::uint64_t channel = sub.channel;
    const std::uint64_t cursor = sub.cursor;
    const bool resume = sub.synced;
    sim_.scheduleAfter(cfg_.oneWayDelay, [hub, id, epoch, channel, cursor,
                                          resume] {
      hub->clientSubscribe(id, epoch, channel, cursor, resume);
    });
  }
}

void Session::onReject(std::uint64_t epoch, RejectReason reason) {
  if (epoch != epoch_) return;
  if (state_ != ConnectionState::Connecting &&
      state_ != ConnectionState::Reconnecting) {
    return;
  }
  ++stats_.rejects;
  if (reason == RejectReason::TokenExpired ||
      reason == RejectReason::TokenForged) {
    ++stats_.tokenRejects;
    hasToken_ = false;  // force a fresh fetch on the next attempt
  }
  setState(ConnectionState::Reconnecting);
  scheduleReconnect();
}

void Session::onServerDisconnect(std::uint64_t epoch) {
  if (epoch != epoch_ || state_ != ConnectionState::Connected) return;
  ++stats_.serverDisconnects;
  cancelTimers();
  setState(ConnectionState::Reconnecting);
  scheduleReconnect();
}

void Session::onSubscribed(std::uint64_t epoch, std::uint64_t channel,
                           std::uint64_t headSeq) {
  if (epoch != epoch_ || state_ != ConnectionState::Connected) return;
  if (Subscription* sub = findSub(channel)) {
    sub->cursor = headSeq;
    sub->synced = true;
  }
}

void Session::onResumed(std::uint64_t epoch, std::uint64_t channel,
                        bool recovered, std::uint64_t headSeq) {
  if (epoch != epoch_ || state_ != ConnectionState::Connected) return;
  Subscription* sub = findSub(channel);
  if (sub == nullptr) return;
  if (!recovered) {
    // Gap outran the history ring: full-state rejoin, cursor restarts at
    // the head (whatever was missed is gone for good — counted, not lost
    // silently).
    ++stats_.fullRejoins;
    sub->cursor = headSeq;
  }
  sub->synced = true;
}

void Session::onMessage(std::uint64_t epoch, std::uint64_t channel,
                        std::uint64_t seq, std::uint64_t payload,
                        bool replayed) {
  if (epoch != epoch_ || state_ != ConnectionState::Connected) return;
  Subscription* sub = findSub(channel);
  if (sub == nullptr) return;
  if (seq <= sub->cursor) {
    ++stats_.duplicates;
    return;
  }
  if (seq > sub->cursor + 1) ++stats_.gaps;
  sub->cursor = seq;
  ++stats_.received;
  if (replayed) ++stats_.recovered;
  if (onMessage_) onMessage_(*this, channel, seq, payload, replayed);
}

}  // namespace msim::session
