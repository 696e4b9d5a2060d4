#include "platform/relay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "avatar/codec.hpp"
#include "util/hotpath.hpp"

namespace msim {

namespace {
/// Intra-site replica-to-replica forwarding cost (same DC, one hop).
constexpr double kInterReplicaMs = 0.3;

/// Throws std::invalid_argument naming the first field `spec` cannot run
/// with: a replica count of zero leaves the deployment no server to hand
/// out, and the interest knobs would otherwise be silently clamped.
DataSpec validated(DataSpec spec) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"DataSpec: "} + what);
  };
  if (spec.replicasPerSite < 1) reject("replicasPerSite must be >= 1");
  if (!(spec.viewportWidthDeg > 0.0 && spec.viewportWidthDeg <= 360.0)) {
    reject("viewportWidthDeg must be in (0, 360]");
  }
  if (!(spec.interestCellM > 0.0) || !std::isfinite(spec.interestCellM)) {
    reject("interestCellM must be finite and > 0");
  }
  if (spec.interestFarKeepEvery < 1) reject("interestFarKeepEvery must be >= 1");
  if (spec.maxEventUsers < 0) reject("maxEventUsers must be >= 0");
  return spec;
}

/// Compiles a DataSpec's culling knobs into one interest policy. Every
/// configuration is a special case of the same scan:
///  - measured platforms: no radius, one open band, maybe the angular wedge
///    (AltspaceVR §6.1) — i.e. all-to-all with a per-receiver predicate;
///  - the §6.2 Donnybrook ablation: the grid's three bands, no radius;
///  - the interest grid: bounded radius + full/half/trickle bands.
interest::InterestParams interestParamsFor(const DataSpec& spec) {
  interest::InterestParams p;
  p.cellM = spec.interestCellM;
  if (spec.interestGrid) {
    p.cullRadiusM = spec.interestRadiusM;
    p.clearBands();
    p.addBand(spec.interestFullRadiusM, 1);
    p.addBand(spec.interestHalfRadiusM, 2);
    p.addBand(-1.0, spec.interestFarKeepEvery);
  }
  if (spec.viewportFilter) {
    p.angular = true;
    p.widthDeg = spec.viewportWidthDeg;
    p.predictionLeadMs = spec.viewportPredictionLeadMs;
  }
  return p;
}
}  // namespace

// ---------------------------------------------------------------- RelayRoom

RelayRoom::RelayRoom(Simulator& sim, DataSpec spec)
    : sim_{sim},
      spec_{validated(std::move(spec))},
      interest_{interestParamsFor(spec_)},
      grid_{interest_.cellM},
      gridActive_{interest_.cull()} {}

void RelayRoom::reserveUsers(std::size_t users, std::size_t slotsPerCell) {
  ids_.reserve(users);
  homes_.reserve(users);
  posX_.reserve(users);
  posY_.reserve(users);
  yawDeg_.reserve(users);
  prevX_.reserve(users);
  prevY_.reserve(users);
  prevYawDeg_.reserve(users);
  poseAt_.reserve(users);
  prevPoseAt_.reserve(users);
  lastActivity_.reserve(users);
  poseKnown_.reserve(users);
  poseSeq_.reserve(users);
  flowNextSame_.reserve(users);
  flowNextCross_.reserve(users);
  freeSlots_.reserve(users);
  unplaced_.reserve(users);
  index_.reserve(users);
  if (gridActive_) grid_.reserve(users, slotsPerCell);
}

void RelayRoom::setProvisioningFactor(double factor) {
  spec_.provisioningFactor = factor;
}

std::uint32_t RelayRoom::growColumns() {
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  ids_.push_back(kNoUser);
  homes_.push_back(nullptr);
  posX_.push_back(0.0);
  posY_.push_back(0.0);
  yawDeg_.push_back(0.0);
  prevX_.push_back(0.0);
  prevY_.push_back(0.0);
  prevYawDeg_.push_back(0.0);
  poseAt_.push_back(TimePoint::epoch());
  prevPoseAt_.push_back(TimePoint::epoch());
  lastActivity_.push_back(TimePoint::epoch());
  poseKnown_.push_back(0);
  poseSeq_.push_back(0);
  flowNextSame_.push_back(TimePoint::epoch());
  flowNextCross_.push_back(TimePoint::epoch());
  return slot;
}

void RelayRoom::resetJoinState(std::uint32_t slot, RelayServer* home) {
  homes_[slot] = home;
  posX_[slot] = 0.0;
  posY_[slot] = 0.0;
  yawDeg_[slot] = 0.0;
  prevX_[slot] = 0.0;
  prevY_[slot] = 0.0;
  prevYawDeg_[slot] = 0.0;
  poseAt_[slot] = TimePoint::epoch();
  prevPoseAt_[slot] = TimePoint::epoch();
  lastActivity_[slot] = sim_.now();
  poseKnown_[slot] = 0;
}

void RelayRoom::unplacedInsert(std::uint32_t slot) {
  const auto it = std::lower_bound(unplaced_.begin(), unplaced_.end(), slot);
  if (it == unplaced_.end() || *it != slot) unplaced_.insert(it, slot);
}

void RelayRoom::unplacedErase(std::uint32_t slot) {
  const auto it = std::lower_bound(unplaced_.begin(), unplaced_.end(), slot);
  if (it != unplaced_.end() && *it == slot) unplaced_.erase(it);
}

void RelayRoom::dropPlacement(std::uint32_t slot) {
  if (poseKnown_[slot] != 0) {
    if (gridActive_) grid_.remove(slot);
  } else {
    unplacedErase(slot);
  }
}

bool RelayRoom::joinImpl(std::uint64_t userId, RelayServer* home) {
  if (const std::uint32_t* it = index_.find(userId)) {
    const std::uint32_t slot = *it;
    // Re-join resets the user's own pose/activity state; the sender-side
    // pose sequence and flow clocks persist, so peers keep this sender's
    // FIFO order and decimation cadence across a reconnect.
    dropPlacement(slot);
    if (homes_[slot] == uniformHome_ && uniformHomeCount_ > 0) {
      --uniformHomeCount_;
    }
    resetJoinState(slot, home);
    if (home == uniformHome_) ++uniformHomeCount_;
    unplacedInsert(slot);
    return true;
  }
  if (spec_.maxEventUsers > 0 &&
      static_cast<int>(activeUsers_) >= spec_.maxEventUsers) {
    return false;  // event full (§6.2: Worlds caps at 16)
  }
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();  // LIFO: a pure function of join/leave history
    freeSlots_.pop_back();
  } else {
    slot = growColumns();
  }
  ids_[slot] = userId;
  resetJoinState(slot, home);
  poseSeq_[slot] = 0;
  flowNextSame_[slot] = TimePoint::epoch();
  flowNextCross_[slot] = TimePoint::epoch();
  index_[userId] = slot;
  ++activeUsers_;
  // Single-home tracking: `uniformHomeCount_` counts members bound to the
  // first member's replica. It equals `activeUsers_` exactly when every
  // member shares one home (including all-detached rooms), which lets the
  // fan-out skip the per-receiver home gather. The count only goes
  // conservative (fast path off, never wrong) when a mixed room drains
  // back to uniform.
  if (activeUsers_ == 1) {
    uniformHome_ = home;
    uniformHomeCount_ = 1;
  } else if (home == uniformHome_) {
    ++uniformHomeCount_;
  }
  unplacedInsert(slot);
  return true;
}

bool RelayRoom::join(std::uint64_t userId, RelayServer& home) {
  return joinImpl(userId, &home);
}

bool RelayRoom::joinDetached(std::uint64_t userId) {
  return joinImpl(userId, nullptr);
}

void RelayRoom::leave(std::uint64_t userId) {
  const std::uint32_t* it = index_.find(userId);
  if (it == nullptr) return;
  const std::uint32_t slot = *it;
  dropPlacement(slot);
  if (homes_[slot] == uniformHome_ && uniformHomeCount_ > 0) {
    --uniformHomeCount_;
  }
  ids_[slot] = kNoUser;
  homes_[slot] = nullptr;
  poseKnown_[slot] = 0;
  poseSeq_[slot] = 0;
  flowNextSame_[slot] = TimePoint::epoch();
  flowNextCross_[slot] = TimePoint::epoch();
  index_.erase(userId);
  freeSlots_.push_back(slot);
  --activeUsers_;
  if (activeUsers_ == 0) {
    uniformHome_ = nullptr;  // next join re-seeds the uniform-home tracker
    uniformHomeCount_ = 0;
  }
}

void RelayRoom::noteActivity(std::uint64_t userId) {
  const std::uint32_t* it = index_.find(userId);
  if (it != nullptr) lastActivity_[*it] = sim_.now();
}

void RelayRoom::startEvictionSweep(Duration timeout) {
  evictionTimeout_ = timeout;
  evictionTask_ = std::make_unique<PeriodicTask>(sim_, Duration::seconds(5), [this] {
    // Collect first: leave() edits the placement structures.
    evictScratch_.clear();
    for (std::size_t slot = 0; slot < ids_.size(); ++slot) {
      if (ids_[slot] == kNoUser) continue;
      if (sim_.now() - lastActivity_[slot] > evictionTimeout_) {
        evictScratch_.push_back(ids_[slot]);
      }
    }
    for (const std::uint64_t id : evictScratch_) leave(id);
  });
}

void RelayRoom::updatePose(std::uint64_t userId, const Pose& pose) {
  const std::uint32_t* it = index_.find(userId);
  if (it == nullptr) return;
  const std::uint32_t slot = *it;
  prevX_[slot] = posX_[slot];
  prevY_[slot] = posY_[slot];
  prevYawDeg_[slot] = yawDeg_[slot];
  prevPoseAt_[slot] = poseAt_[slot];
  posX_[slot] = pose.x;
  posY_[slot] = pose.y;
  yawDeg_[slot] = pose.yawDeg;
  poseAt_[slot] = sim_.now();
  if (poseKnown_[slot] == 0) {
    poseKnown_[slot] = 1;
    unplacedErase(slot);
    if (gridActive_) grid_.insert(slot, ids_[slot], pose.x, pose.y);
  } else if (gridActive_) {
    grid_.move(slot, ids_[slot], pose.x, pose.y);
  }
}

Duration RelayRoom::sampleProcessingDelay() {
  const double scaledMean = spec_.serverProcMeanMs * spec_.provisioningFactor;
  const double scaledStd = spec_.serverProcStdMs * spec_.provisioningFactor;
  double ms = sim_.rng().normalAtLeast(scaledMean, scaledStd, 0.5);
  // Queueing grows superlinearly with the event size (Fig. 11's growing
  // per-user latency deltas).
  const double n = static_cast<double>(activeUsers_);
  if (n > 2.0) ms += spec_.queueCoefMs * std::pow(n - 2.0, 1.5);
  return Duration::millis(ms);
}

void RelayRoom::scheduleBatch(TimePoint at, Batch batch,
                              std::shared_ptr<const Message> msg,
                              TimePoint inTime) {
  batches_.scheduled(batch);
  sim_.schedule(at, [this, batch = std::move(batch), msg = std::move(msg),
                     inTime]() mutable {
    for (const BatchEntry& e : batch) {
      if (msg->actionId != 0 && hooks_.onActionForwarded) {
        hooks_.onActionForwarded(msg->actionId, e.id, inTime, sim_.now());
      }
      if (e.home != nullptr) {
        e.home->deliverToUser(e.id, msg);
      } else if (hooks_.onLocalDeliver) {
        hooks_.onLocalDeliver(e.id, *msg);
      }
    }
    batches_.release(std::move(batch));
  });
}

void RelayRoom::broadcast(std::uint64_t fromUser, const Message& m) {
  // One immutable copy shared by every receiver's forward — the only heap
  // allocation on the whole fan-out, amortized over all receivers. The
  // shared_ptr overload below allocates nothing at all.
  broadcast(fromUser, std::make_shared<const Message>(m));
}

// detlint:hotpath the room fan-out — BM_RelayBroadcastSoA gates it near zero
// allocs/forward; batches and their entry vectors are pool-recycled, so the
// steady path must stay off the heap.
MSIM_HOT void RelayRoom::broadcast(std::uint64_t fromUser,
                                   std::shared_ptr<const Message> msg) {
  const std::uint32_t* fromIt = index_.find(fromUser);
  if (fromIt == nullptr) return;
  const std::uint32_t s = *fromIt;
  const Message& m = *msg;
  const bool isPose = m.kind == avatarmsg::kPoseUpdate;
  const ByteSize size = m.size;
  const TimePoint inTime = sim_.now();

  // The server does the receive-side work (decode, room lookup, queueing)
  // once per inbound message; the fan-out then differs per receiver only by
  // replica locality. Sampling the processing delay once per broadcast
  // models the machine faithfully AND leaves exactly two delivery instants
  // — same-home, and cross-home one intra-site hop later — each clamped
  // monotonic by a per-sender flow clock so no (sender → receiver) stream
  // ever reorders. Receivers sharing an instant share one queue event
  // walking a batch instead of one event each.
  const Duration procDelay = sampleProcessingDelay();
  TimePoint outSame = inTime + procDelay;
  if (outSame < flowNextSame_[s]) outSame = flowNextSame_[s];
  flowNextSame_[s] = outSame + Duration::micros(1);
  TimePoint outCross = inTime + procDelay + Duration::millis(kInterReplicaMs);
  if (outCross < flowNextCross_[s]) outCross = flowNextCross_[s];
  flowNextCross_[s] = outCross + Duration::micros(1);

  if (isPose) ++poseSeq_[s];
  const std::uint32_t seq = poseSeq_[s];

  Batch same = batches_.acquire();
  Batch cross = batches_.acquire();
  RelayServer* const senderHome = homes_[s];
  // Single-shard rooms (every member on one replica — the common case, and
  // every detached room) route all traffic to the same-home instant, so the
  // emit never has to gather the receiver's home from the room-wide column.
  const bool uniformHomes = uniformHomeCount_ == activeUsers_;

  // The hot loops only bump these dense locals; bytes and room-level stats
  // are flushed once per broadcast below, keeping the per-receiver work to
  // a couple of compares and a batch push.
  std::uint32_t tierHits[interest::kMaxBands] = {};
  std::uint64_t radiusCulls = 0;
  std::uint64_t lodDrops = 0;
  std::uint64_t wedgeDrops = 0;

  const auto emitId = [&](std::uint64_t rid, std::uint32_t r, int tier) {
    ++tierHits[static_cast<std::size_t>(tier)];
    if (uniformHomes) {
      // detlint:allow(hotpath-alloc) batches are pool-recycled: the entries
      // vector keeps its capacity across acquire/release, so the push
      // amortizes to zero after the first broadcasts at a given room size —
      // BM_RelayBroadcastSoA pins exactly that.
      same.push_back(BatchEntry{rid, senderHome});
      return;
    }
    RelayServer* const home = homes_[r];
    (home == senderHome ? same : cross).push_back(BatchEntry{rid, home});
  };
  const auto emit = [&](std::uint32_t r, int tier) { emitId(ids_[r], r, tier); };

  if (isPose && poseKnown_[s] != 0 && interest_.anyFilter()) {
    const double sx = posX_[s];
    const double sy = posY_[s];
    const double cullSq = interest_.cullRadiusM * interest_.cullRadiusM;
    const bool cull = interest_.cull();
    // Each band's decimation clock depends only on the sender's pose
    // sequence, so the modulo happens once per band per broadcast instead
    // of once per candidate.
    bool keepPass[interest::kMaxBands];
    for (int b = 0; b < interest_.bands; ++b) {
      const std::uint32_t keep = interest_.keepEvery[b];
      keepPass[b] = keep <= 1 || seq % keep == 0;
    }
    // Per-receiver predicate over receivers with a known pose: radius cull,
    // then the distance band's decimation clock, then the angular wedge —
    // a few compares against data already streaming through cache. Receiver
    // id and position come from the caller (the grid hands back the
    // cell-resident copies; the slot scan reads the columns), so in a
    // single-shard room the scan's emit touches no room-wide column at all.
    const auto visitPlaced = [&](std::uint32_t r, std::uint64_t rid, double rx,
                                 double ry) {
      if (r == s) return;
      const double dx = rx - sx;
      const double dy = ry - sy;
      const double d2 = dx * dx + dy * dy;
      if (cull && d2 > cullSq) {
        ++radiusCulls;
        return;
      }
      const int tier = interest_.bandFor(d2);
      if (!keepPass[tier]) {
        ++lodDrops;
        return;
      }
      if (interest_.angular) {
        // AltspaceVR's server-side viewport filter (§6.1), evaluated
        // against the receiver's *predicted* facing direction when a
        // prediction lead is configured.
        const Pose viewpoint{rx, ry,
                             predictYawDeg(yawDeg_[r], prevYawDeg_[r],
                                           poseAt_[r], prevPoseAt_[r],
                                           interest_.predictionLeadMs)};
        if (!inViewport(viewpoint, sx, sy, interest_.widthDeg)) {
          ++wedgeDrops;
          return;
        }
      }
      emitId(rid, r, tier);
    };

    if (gridActive_) {
      // Grid path: scan only the sender's neighboring AOI cells, in fixed
      // (cell, slot) order; placed receivers elsewhere are culled without
      // ever being visited.
      const std::size_t visited =
          grid_.forEachCandidate(sx, sy, interest_.cullRadiusM, visitPlaced);
      const std::size_t placed = activeUsers_ - unplaced_.size();
      const std::size_t skipped = placed > visited ? placed - visited : 0;
      stats_.culledByCell += skipped;
      culled_ += ByteSize::bytes(static_cast<std::int64_t>(skipped) *
                                 size.toBytes());
      // Receivers that never reported a pose can't be distance-culled; they
      // keep receiving everything, like on the unfiltered paths.
      for (const std::uint32_t r : unplaced_) {
        if (r != s) emit(r, 0);
      }
    } else {
      const auto slots = static_cast<std::uint32_t>(ids_.size());
      for (std::uint32_t r = 0; r < slots; ++r) {
        if (ids_[r] == kNoUser || r == s) continue;
        if (poseKnown_[r] == 0) {
          emit(r, 0);
        } else {
          visitPlaced(r, ids_[r], posX_[r], posY_[r]);
        }
      }
    }
  } else {
    // Non-pose traffic, or a sender whose pose the server has never seen:
    // plain all-to-all (§5.1), straight down the slot columns.
    const auto slots = static_cast<std::uint32_t>(ids_.size());
    for (std::uint32_t r = 0; r < slots; ++r) {
      if (ids_[r] == kNoUser || r == s) continue;
      emit(r, 0);
    }
  }

  // Flush the scan's dense counters into room accounting, once.
  const std::int64_t msgBytes = size.toBytes();
  std::uint64_t emitted = 0;
  for (std::size_t b = 0; b < interest::kMaxBands; ++b) {
    stats_.forwardedByTier[b] += tierHits[b];
    emitted += tierHits[b];
  }
  forwardedMsgs_ += emitted;
  forwarded_ += ByteSize::bytes(static_cast<std::int64_t>(emitted) * msgBytes);
  if (radiusCulls > 0) {
    stats_.culledByRadius += radiusCulls;
    culled_ += ByteSize::bytes(static_cast<std::int64_t>(radiusCulls) * msgBytes);
  }
  if (lodDrops > 0) {
    stats_.lodFiltered += lodDrops;
    lodFiltered_ += ByteSize::bytes(static_cast<std::int64_t>(lodDrops) * msgBytes);
  }
  if (wedgeDrops > 0) {
    stats_.viewportFiltered += wedgeDrops;
    filtered_ += ByteSize::bytes(static_cast<std::int64_t>(wedgeDrops) * msgBytes);
  }

  if (!same.empty()) {
    scheduleBatch(outSame, std::move(same), msg, inTime);
  } else {
    batches_.release(std::move(same));
  }
  if (!cross.empty()) {
    scheduleBatch(outCross, std::move(cross), std::move(msg), inTime);
  } else {
    batches_.release(std::move(cross));
  }
}

std::vector<std::uint64_t> RelayRoom::userIds() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(activeUsers_);
  for (const std::uint64_t id : ids_) {
    if (id != kNoUser) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

RelayRoomSnapshot RelayRoom::exportSnapshot() const {
  // The snapshot contract is id order; slots are recycled in join order, so
  // sort an (id, slot) view rather than assuming the columns are ordered.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(activeUsers_);
  for (std::uint32_t slot = 0; slot < static_cast<std::uint32_t>(ids_.size());
       ++slot) {
    if (ids_[slot] != kNoUser) order.emplace_back(ids_[slot], slot);
  }
  std::sort(order.begin(), order.end());

  RelayRoomSnapshot snap;
  snap.users.reserve(order.size());
  for (const auto& [id, slot] : order) {
    RelayUserRecord rec;
    rec.id = id;
    rec.pose = Pose{posX_[slot], posY_[slot], yawDeg_[slot]};
    rec.poseKnown = poseKnown_[slot] != 0;
    rec.prevPose = Pose{prevX_[slot], prevY_[slot], prevYawDeg_[slot]};
    rec.poseAt = poseAt_[slot];
    rec.prevPoseAt = prevPoseAt_[slot];
    rec.lastActivity = lastActivity_[slot];
    rec.flowNextSame = flowNextSame_[slot];
    rec.flowNextCross = flowNextCross_[slot];
    rec.poseSeq = poseSeq_[slot];
    snap.users.push_back(rec);
  }
  return snap;
}

void RelayRoom::importSnapshot(const RelayRoomSnapshot& snap) {
  for (const RelayUserRecord& rec : snap.users) {
    if (index_.find(rec.id) == nullptr && !joinDetached(rec.id)) {
      continue;  // target room at its user cap
    }
    const std::uint32_t slot = *index_.find(rec.id);
    dropPlacement(slot);
    posX_[slot] = rec.pose.x;
    posY_[slot] = rec.pose.y;
    yawDeg_[slot] = rec.pose.yawDeg;
    prevX_[slot] = rec.prevPose.x;
    prevY_[slot] = rec.prevPose.y;
    prevYawDeg_[slot] = rec.prevPose.yawDeg;
    poseAt_[slot] = rec.poseAt;
    prevPoseAt_[slot] = rec.prevPoseAt;
    lastActivity_[slot] = rec.lastActivity;
    poseKnown_[slot] = rec.poseKnown ? 1 : 0;
    if (rec.poseKnown) {
      if (gridActive_) grid_.insert(slot, rec.id, rec.pose.x, rec.pose.y);
    } else {
      unplacedInsert(slot);
    }
    // Rate state merges monotonically: a handoff must never rewind a flow
    // clock (reordering) or a pose sequence (double-delivering a decimated
    // cadence).
    if (poseSeq_[slot] < rec.poseSeq) poseSeq_[slot] = rec.poseSeq;
    if (flowNextSame_[slot] < rec.flowNextSame) {
      flowNextSame_[slot] = rec.flowNextSame;
    }
    if (flowNextCross_[slot] < rec.flowNextCross) {
      flowNextCross_[slot] = rec.flowNextCross;
    }
  }
}

// -------------------------------------------------------------- RelayServer

RelayServer::RelayServer(Node& node, std::uint16_t port,
                         std::shared_ptr<RelayRoom> room)
    : node_{node}, port_{port}, room_{std::move(room)} {}

RelayServer::~RelayServer() = default;

std::unique_ptr<RelayServer> RelayServer::makeUdp(Node& node, std::uint16_t port,
                                                  std::shared_ptr<RelayRoom> room) {
  auto server = std::unique_ptr<RelayServer>(new RelayServer(node, port, std::move(room)));
  server->udp_ = std::make_unique<UdpSocket>(node, port);
  RelayServer* self = server.get();
  server->udp_->onReceive([self](const Packet& p, const Endpoint& from) {
    const Message* m = p.primaryMessage();
    if (m == nullptr) return;  // bare fragment
    self->handleMessage(m->senderId, *m, from, std::nullopt);
  });
  return server;
}

std::unique_ptr<RelayServer> RelayServer::makeTls(Node& node, std::uint16_t port,
                                                  std::shared_ptr<RelayRoom> room) {
  auto server = std::unique_ptr<RelayServer>(new RelayServer(node, port, std::move(room)));
  server->tls_ = std::make_unique<TlsStreamServer>(node, port);
  RelayServer* self = server.get();
  server->tls_->onMessage([self](TlsStreamServer::ConnId id, const Message& m) {
    self->handleMessage(m.senderId, m, std::nullopt, id);
  });
  server->tls_->onDisconnected([self](TlsStreamServer::ConnId id) {
    std::uint64_t match = 0;
    bool found = false;
    self->tlsUsers_.forEach([&](std::uint64_t userId, TlsStreamServer::ConnId conn) {
      if (!found && conn == id) {
        match = userId;
        found = true;
      }
    });
    if (found) {
      self->room_->leave(match);
      self->tlsUsers_.erase(match);
    }
  });
  return server;
}

void RelayServer::handleMessage(std::uint64_t senderId, const Message& m,
                                const std::optional<Endpoint>& udpFrom,
                                std::optional<TlsStreamServer::ConnId> tlsConn) {
  if (m.kind == relaymsg::kJoin) {
    if (udpFrom) udpUsers_[senderId] = *udpFrom;
    if (tlsConn) tlsUsers_[senderId] = *tlsConn;
    Message reply;
    reply.size = ByteSize::bytes(64);
    reply.senderId = 0;
    if (room_->join(senderId, *this)) {
      reply.kind = relaymsg::kJoinOk;
    } else {
      // Event full (§6.2: e.g. Worlds caps at 16 users).
      reply.kind = relaymsg::kJoinDenied;
    }
    deliverToUser(senderId, reply);
    if (reply.kind == relaymsg::kJoinDenied) {
      udpUsers_.erase(senderId);
      if (tlsConn) tlsUsers_.erase(senderId);
    }
    return;
  }
  if (m.kind == relaymsg::kLeave) {
    room_->leave(senderId);
    udpUsers_.erase(senderId);
    if (tlsConn) tlsUsers_.erase(senderId);
    return;
  }
  if (udpFrom) udpUsers_[senderId] = *udpFrom;  // track NAT rebinding
  room_->noteActivity(senderId);

  if (m.kind == relaymsg::kKeepalive) {
    // Answered so clients can detect data-channel liveness (§8.1).
    Message ack;
    ack.kind = relaymsg::kKeepalive;
    ack.size = ByteSize::bytes(24);
    ack.senderId = 0;  // from the server
    deliverToUser(senderId, ack);
    return;
  }
  if (m.kind == relaymsg::kClientStatus) {
    // Worlds: consumed by the server, never forwarded (§5.1).
    return;
  }
  if (m.kind == avatarmsg::kPoseUpdate && m.pose.has_value()) {
    // The server's view of a user's pose is whatever the last *arrived*
    // update said — stale under latency, which is exactly what makes
    // viewport filtering a prediction problem (§6.1).
    room_->updatePose(senderId, Pose{m.pose->x, m.pose->y, m.pose->yawDeg});
  }
  room_->broadcast(senderId, m);
}

void RelayServer::deliverToUser(std::uint64_t userId, const Message& m) {
  // detlint:allow(hotpath-alloc) convenience overload for single-user sends;
  // the broadcast fan-out calls the shared_ptr overload below, which hands
  // every receiver the same immutable message without allocating.
  deliverToUser(userId, std::make_shared<const Message>(m));
}

void RelayServer::deliverToUser(std::uint64_t userId,
                                const std::shared_ptr<const Message>& m) {
  if (udp_ != nullptr) {
    const Endpoint* ep = udpUsers_.find(userId);
    if (ep == nullptr) return;
    udp_->sendTo(*ep, m->size, m);
    return;
  }
  if (tls_ != nullptr) {
    const TlsStreamServer::ConnId* conn = tlsUsers_.find(userId);
    if (conn == nullptr) return;
    tls_->sendTo(*conn, *m);
  }
}

void RelayServer::startMiscDownlink() {
  const Duration interval = Duration::millis(200);
  miscTask_ = std::make_unique<PeriodicTask>(node_.sim(), interval,
                                             [this] { sendMiscTick(); });
}

void RelayServer::sendMiscTick() {
  const DataSpec& spec = room_->spec();
  if (spec.miscDownlink.isZero()) return;
  // Size each tick so the on-wire rate (including per-datagram overhead)
  // matches the calibrated misc downlink rate.
  const double intervalSec = 0.2;
  const double wireBytesPerTick =
      static_cast<double>(spec.miscDownlink.toBps()) / 8.0 * intervalSec;
  const double overhead = udp_ != nullptr
                              ? static_cast<double>(wire::kEthIpUdp)
                              : static_cast<double>(wire::kEthIpTcp + wire::kTlsRecord);
  const auto payload = static_cast<std::int64_t>(
      wireBytesPerTick > overhead + 10 ? wireBytesPerTick - overhead : 10);
  Message m;
  m.kind = relaymsg::kMiscState;
  m.size = ByteSize::bytes(payload);
  m.senderId = 0;
  udpUsers_.forEach(
      [&](std::uint64_t userId, const Endpoint&) { deliverToUser(userId, m); });
  tlsUsers_.forEach([&](std::uint64_t userId, const TlsStreamServer::ConnId&) {
    deliverToUser(userId, m);
  });
}

}  // namespace msim
