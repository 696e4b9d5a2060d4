#include "session/hub.hpp"

#include "util/hotpath.hpp"

namespace msim::session {

SessionHub::SessionHub(Simulator& sim, TokenAuthority authority, HubConfig cfg)
    : sim_{sim},
      authority_{authority},
      cfg_{cfg},
      broker_{cfg.historyWindow} {}

// ---- registry -------------------------------------------------------------

std::uint32_t SessionHub::registerSession(Session* s) {
  std::uint32_t id;
  if (!freeIds_.empty()) {
    id = freeIds_.back();
    freeIds_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(recs_.size());
    recs_.emplace_back();
  }
  recs_[id] = Rec{};
  recs_[id].s = s;
  return id;
}

void SessionHub::deregisterSession(std::uint32_t id) {
  if (id >= recs_.size() || recs_[id].s == nullptr) return;
  Rec& r = recs_[id];
  if (r.connected) sever(r, /*notifyClient=*/false);
  sim_.cancel(r.expiry);
  broker_.unsubscribeAll(id);
  r.s = nullptr;
  freeIds_.push_back(id);
}

// ---- client -> hub --------------------------------------------------------

void SessionHub::requestToken(std::uint32_t id, std::uint64_t epoch) {
  Session* s = sessionAt(id);
  if (s == nullptr) return;
  // A control-channel round trip to the hub's own authority.
  sim_.scheduleAfter(downlinkDelay(*s) * 2.0, [this, id, epoch] {
    if (Session* s = sessionAt(id)) {
      s->deliverToken(authority_.issue(s->userId(), sim_.now()), epoch);
    }
  });
}

void SessionHub::clientConnect(std::uint32_t id, std::uint64_t epoch,
                               const Token& token, bool reconnect) {
  if (sessionAt(id) == nullptr) return;
  queue_.push_back(PendingConnect{id, epoch, token, reconnect, sim_.now()});
  const std::size_t pending = queue_.size() - queueHead_;
  if (pending > stats_.peakPendingConnects) {
    stats_.peakPendingConnects = pending;
  }
  if (!serviceArmed_) {
    serviceArmed_ = true;
    sim_.scheduleAfter(cfg_.connectCost, [this] { processNextConnect(); });
  }
}

void SessionHub::processNextConnect() {
  const PendingConnect p = queue_[queueHead_++];
  const Duration waited = sim_.now() - p.enqueuedAt;
  if (waited > stats_.peakConnectQueueDelay) {
    stats_.peakConnectQueueDelay = waited;
  }
  if (queueHead_ == queue_.size()) {
    queue_.clear();  // keeps capacity: the queue stays warm across storms
    queueHead_ = 0;
    serviceArmed_ = false;
  } else {
    sim_.scheduleAfter(cfg_.connectCost, [this] { processNextConnect(); });
  }
  acceptOrReject(p);
}

void SessionHub::acceptOrReject(const PendingConnect& p) {
  Rec& r = recs_[p.id];
  Session* s = r.s;
  // Stale attempts (the client bumped its epoch, or the session is gone)
  // are dropped server-side; the client-side epoch guard covers the rest.
  if (s == nullptr || p.epoch != s->epoch()) return;
  const std::uint32_t id = p.id;
  const std::uint64_t epoch = p.epoch;
  if (!authority_.validate(p.token, sim_.now())) {
    ++stats_.rejects;
    ++stats_.tokenRejects;
    const RejectReason why = p.token.expiresAt <= sim_.now()
                                 ? RejectReason::TokenExpired
                                 : RejectReason::TokenForged;
    sim_.scheduleAfter(downlinkDelay(*s), [this, id, epoch, why] {
      if (Session* s = sessionAt(id)) s->onReject(epoch, why);
    });
    return;
  }
  std::int32_t shard = 0;
  if (placer_) shard = placer_(s->userId(), s->region(), p.reconnect);
  if (shard < 0) {
    ++stats_.rejects;
    sim_.scheduleAfter(downlinkDelay(*s), [this, id, epoch] {
      if (Session* s = sessionAt(id)) {
        s->onReject(epoch, RejectReason::NoCapacity);
      }
    });
    return;
  }
  if (!r.connected) ++connected_;
  r.connected = true;
  r.shard = shard;
  r.epoch = epoch;
  r.tokenExpiresAt = p.token.expiresAt;
  armExpiry(id);
  ++stats_.accepts;
  if (onUp_) onUp_(*s);
  sim_.scheduleAfter(downlinkDelay(*s), [this, id, epoch, shard] {
    if (Session* s = sessionAt(id)) s->onAccept(epoch, shard);
  });
}

void SessionHub::armExpiry(std::uint32_t id) {
  Rec& r = recs_[id];
  sim_.cancel(r.expiry);
  Duration d = r.tokenExpiresAt - sim_.now();
  if (d < Duration::zero()) d = Duration::zero();
  r.expiry = sim_.scheduleAfter(d, [this, id] {
    Rec& r = recs_[id];
    if (r.s == nullptr || !r.connected) return;
    if (r.tokenExpiresAt > sim_.now()) {  // refreshed while this was queued
      armExpiry(id);
      return;
    }
    ++stats_.expiries;
    sever(r, /*notifyClient=*/true);
  });
}

void SessionHub::clientRefresh(std::uint32_t id, std::uint64_t epoch,
                               const Token& token) {
  Rec& r = recs_[id];
  if (r.s == nullptr || !r.connected || r.epoch != epoch) return;
  if (!authority_.validate(token, sim_.now())) return;  // expiry timer decides
  r.tokenExpiresAt = token.expiresAt;
  armExpiry(id);
  ++stats_.refreshes;
}

void SessionHub::clientPing(std::uint32_t id, std::uint64_t epoch) {
  Rec& r = recs_[id];
  // A ping traverses the session's shard binding: a severed binding (dead
  // shard, expired token) answers with silence, so the client's
  // maxPingDelay deadline is what discovers the loss.
  if (r.s == nullptr || !r.connected || r.epoch != epoch) return;
  ++stats_.pings;
  sim_.scheduleAfter(downlinkDelay(*r.s), [this, id, epoch] {
    if (Session* s = sessionAt(id)) s->onPong(epoch);
  });
}

void SessionHub::clientSubscribe(std::uint32_t id, std::uint64_t epoch,
                                 std::uint64_t channel, std::uint64_t lastSeq,
                                 bool resume) {
  Rec& r = recs_[id];
  if (r.s == nullptr || !r.connected || r.epoch != epoch) return;
  if (!resume) {
    const std::uint64_t head = broker_.subscribe(channel, id);
    sim_.scheduleAfter(downlinkDelay(*r.s), [this, id, epoch, channel, head] {
      if (Session* s = sessionAt(id)) s->onSubscribed(epoch, channel, head);
    });
    return;
  }
  // Recovery: replay the missed suffix as one batch, scheduled before the
  // resume ack so FIFO-at-equal-time delivery hands the client the messages
  // first.
  const ChannelBroker::ResumeResult res = broker_.resume(
      channel, id, lastSeq, [&](std::uint32_t sid, const ChannelMessage& m) {
        enqueue(*r.s, Delivery{sid, epoch, m.seq, m.payload});
        ++stats_.replayed;
      });
  flushBatches(channel, /*replayed=*/true);
  if (!res.recovered) ++stats_.fullRejoins;
  const bool recovered = res.recovered;
  const std::uint64_t head = res.headSeq;
  sim_.scheduleAfter(downlinkDelay(*r.s),
                     [this, id, epoch, channel, recovered, head] {
                       if (Session* s = sessionAt(id)) {
                         s->onResumed(epoch, channel, recovered, head);
                       }
                     });
}

void SessionHub::clientBye(std::uint32_t id, std::uint64_t epoch) {
  Rec& r = recs_[id];
  if (r.s == nullptr || !r.connected || r.epoch != epoch) return;
  ++stats_.byes;
  sever(r, /*notifyClient=*/false);
}

void SessionHub::closeSession(std::uint32_t id) {
  Rec& r = recs_[id];
  if (r.s == nullptr) return;
  if (r.connected) sever(r, /*notifyClient=*/false);
  sim_.cancel(r.expiry);
  broker_.unsubscribeAll(id);
  ++stats_.closes;
  if (onClosed_) onClosed_(*r.s);
}

// ---- server operations ----------------------------------------------------

// detlint:hotpath channel publish fans into history append plus one batch
// per downlink delay; steady-state publishes ride the ring, the recycled
// batches and the event pool, never the allocator (BM_SessionChurnSteady's
// --max-alloc gate).
MSIM_HOT std::uint64_t SessionHub::publish(std::uint64_t channel,
                                           std::uint64_t payload,
                                           std::uint32_t bytes) {
  ++stats_.published;
  const std::uint64_t seq = broker_.publish(
      channel, payload, bytes,
      [&](std::uint32_t sid, const ChannelMessage& m) {
        const Rec& r = recs_[sid];
        if (r.s == nullptr || !r.connected) return;  // caught up by resume
        ++stats_.delivered;
        enqueue(*r.s, Delivery{sid, r.epoch, m.seq, m.payload});
      });
  flushBatches(channel, /*replayed=*/false);
  return seq;
}

void SessionHub::enqueue(const Session& s, const Delivery& d) {
  const Duration delay = downlinkDelay(s);
  OpenBatch* open = nullptr;
  for (OpenBatch& o : open_) {
    if (o.delay == delay) open = &o;
  }
  if (open == nullptr) {
    open_.push_back(OpenBatch{delay, batches_.acquire()});
    open = &open_.back();
  }
  // detlint:allow(hotpath-alloc) batches are pool-recycled and keep their
  // capacity, so the push amortizes to zero once the pool has seen a
  // channel's subscriber count (open_ itself is cleared, never shrunk).
  open->batch.push_back(d);
}

void SessionHub::flushBatches(std::uint64_t channel, bool replayed) {
  // Batches of one fan-out take consecutive sequence stamps, so at any
  // instant they dispatch exactly where their per-message events would
  // have, and each walks its subscribers in the order they were enqueued.
  for (OpenBatch& o : open_) {
    batches_.scheduled(o.batch);
    sim_.scheduleAfter(o.delay, [this, batch = std::move(o.batch), channel,
                                 replayed]() mutable {
      for (const Delivery& d : batch) {
        if (Session* s = sessionAt(d.sid)) {
          s->onMessage(d.epoch, channel, d.seq, d.payload, replayed);
        }
      }
      batches_.release(std::move(batch));
    });
  }
  open_.clear();
}

std::size_t SessionHub::markShardDead(std::int32_t shard) {
  std::size_t evicted = 0;
  for (Rec& r : recs_) {
    if (r.s == nullptr || !r.connected || r.shard != shard) continue;
    sever(r, /*notifyClient=*/false);  // silent: clients learn via deadline
    ++stats_.shardEvictions;
    ++evicted;
  }
  return evicted;
}

std::size_t SessionHub::disconnectAll(bool notifyClients) {
  std::size_t severed = 0;
  for (Rec& r : recs_) {
    if (r.s == nullptr || !r.connected) continue;
    sever(r, notifyClients);
    ++stats_.forcedDisconnects;
    ++severed;
  }
  return severed;
}

void SessionHub::sever(Rec& r, bool notifyClient) {
  if (!r.connected) return;
  r.connected = false;
  sim_.cancel(r.expiry);
  --connected_;
  // Fan-out must stop the instant the binding dies: a live publish racing
  // the client's later resume would otherwise arrive before the replay and
  // break in-order exactly-once delivery. resume() re-registers.
  broker_.unsubscribeAll(r.s->id());
  if (onDown_) onDown_(*r.s);
  if (notifyClient) {
    const std::uint32_t id = r.s->id();
    const std::uint64_t epoch = r.epoch;
    sim_.scheduleAfter(downlinkDelay(*r.s), [this, id, epoch] {
      if (Session* s = sessionAt(id)) s->onServerDisconnect(epoch);
    });
  }
}

}  // namespace msim::session
