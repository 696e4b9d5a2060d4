#include "cluster/partitioned.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/digest.hpp"
#include "geo/fabric.hpp"

namespace msim::cluster {

namespace {

// Mirrors the engine's "no bound" ceiling: far above any reachable instant,
// low enough that adding a lookahead cannot overflow.
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max() / 4;

PartitionedClusterConfig normalize(PartitionedClusterConfig cfg) {
  if (cfg.regions.empty()) {
    cfg.regions = {regions::usEast(), regions::usWest(), regions::europe()};
  }
  if (cfg.shards < 1) cfg.shards = 1;
  if (cfg.users < 0) cfg.users = 0;
  return cfg;
}

pdes::EngineConfig engineConfig(const PartitionedClusterConfig& cfg) {
  pdes::EngineConfig ec;
  ec.threads = cfg.threads;
  ec.audit = cfg.audit;
  ec.recordTrail = cfg.recordTrail;
  ec.adaptiveWindows = cfg.adaptiveWindows;
  return ec;
}

}  // namespace

PartitionedCluster::PartitionedCluster(PartitionedClusterConfig cfg)
    : cfg_{normalize(std::move(cfg))},
      engine_{static_cast<std::uint32_t>(cfg_.shards) + 1, cfg_.seed,
              engineConfig(cfg_)} {
  const auto shardCount = static_cast<std::uint32_t>(cfg_.shards);
  const Region& controlRegion = cfg_.regions[0];
  const auto regionOf = [&](std::uint32_t s) -> const Region& {
    return cfg_.regions[s % static_cast<std::uint32_t>(cfg_.regions.size())];
  };

  // Channels: control <-> each shard with lookahead = geo trunk bound
  // floored by the control-plane turnaround, plus (by default) a direct
  // shard <-> shard mesh at the raw trunk bound — the lanes migration
  // snapshots and interest-scoped ghosts ride instead of bouncing through
  // control. Declared serially, so the engine's link table keeps one order.
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    Duration lookahead =
        InternetFabric::trunkLookahead(controlRegion, regionOf(s));
    if (lookahead.toNanos() < cfg_.controlLookahead.toNanos()) {
      lookahead = cfg_.controlLookahead;
    }
    engine_.link(0, partitionOf(s), lookahead);
    engine_.link(partitionOf(s), 0, lookahead);
  }
  if (cfg_.directShardLinks) {
    for (std::uint32_t s = 0; s < shardCount; ++s) {
      for (std::uint32_t t = 0; t < shardCount; ++t) {
        if (s == t) continue;
        engine_.link(partitionOf(s), partitionOf(t),
                     InternetFabric::trunkLookahead(regionOf(s), regionOf(t)));
      }
    }
  }

  // Placement: the gateway's LeastLoaded policy (accepting shard with the
  // fewest assignments, lowest id on ties) over fresh, equal shards deals
  // users round-robin, so user u lands on shard u % shards as the
  // (u / shards)-th member. Every shard fills in lockstep until it reaches
  // the smaller positive cap of softUserCap (the shard stops accepting) and
  // maxEventUsers (the room refuses the join), and then every shard is
  // full: exactly the users below shards x cap are placed. A shard's
  // population is therefore a pure function of (shard, users, caps), and
  // each shard partition builds its own room in parallel.
  std::size_t placed = static_cast<std::size_t>(cfg_.users);
  int cap = cfg_.capacity.softUserCap;
  if (cfg_.dataSpec.maxEventUsers > 0 &&
      (cap <= 0 || cfg_.dataSpec.maxEventUsers < cap)) {
    cap = cfg_.dataSpec.maxEventUsers;
  }
  if (cap > 0) {
    placed = std::min(placed, static_cast<std::size_t>(shardCount) *
                                  static_cast<std::size_t>(cap));
  }
  // Memory-lean bulk setup: pre-size every room for its expected share so a
  // 1M-user construction never rehashes a column mid-join.
  const std::size_t perShard =
      (static_cast<std::size_t>(cfg_.users) + shardCount - 1) / shardCount;
  std::size_t slotsPerCell = 1;
  if (cfg_.latticeSpacingM > 0.0 && cfg_.dataSpec.interestGrid) {
    // Lattice density is known exactly, so the grid's cell tables can be
    // reserved at true occupancy instead of the one-cell-per-member bound.
    const double perAxis = cfg_.dataSpec.interestCellM / cfg_.latticeSpacingM;
    slotsPerCell = static_cast<std::size_t>(std::max(1.0, perAxis * perAxis));
  }
  const std::size_t latticeSide = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(perShard == 0 ? 1 : perShard))));
  shards_.resize(shardCount);
  assigned_.assign(shardCount, 0);
  accepting_.assign(shardCount, true);
  engine_.forEachPartition([&](pdes::Partition& part) {
    if (part.id() == 0) return;  // control owns no room
    const std::uint32_t s = part.id() - 1;
    Shard& shard = shards_[s];
    shard.inst = std::make_unique<RelayInstance>(part.sim(), s, regionOf(s),
                                                 cfg_.dataSpec, cfg_.capacity);
    shard.inst->activate();
    shard.inst->setDeliverySink(
        [this, s](std::uint32_t, std::uint64_t, const Message&) {
          ++shards_[s].delivered;
        });
    RelayRoom& room = shard.inst->room();
    room.reserveUsers(perShard, slotsPerCell);
    std::size_t k = 0;
    for (std::size_t u = s; u < placed; u += shardCount, ++k) {
      const auto id = static_cast<std::uint64_t>(u) + 1;
      if (!room.joinDetached(id)) {
        throw std::logic_error(
            "PartitionedCluster: placement overfilled shard " +
            std::to_string(s));
      }
      if (cfg_.latticeSpacingM > 0.0) {
        // Deterministic per-shard lattice: the k-th member takes cell k, so
        // interest-grid neighborhoods are identical for every seed, thread
        // count, and shard count.
        room.updatePose(
            id, Pose{cfg_.latticeSpacingM * static_cast<double>(k % latticeSide),
                     cfg_.latticeSpacingM * static_cast<double>(k / latticeSide),
                     0.0});
      }
    }
    assigned_[s] = static_cast<std::uint32_t>(k);
  });

  shardDrainNs_.resize(shardCount);
  shardDrainCursor_.assign(shardCount, 0);
}

PartitionedCluster::~PartitionedCluster() = default;

void PartitionedCluster::scheduleDrain(std::uint32_t shard, TimePoint at) {
  if (shard >= shards_.size()) {
    throw std::invalid_argument("PartitionedCluster: no such shard");
  }
  drainSchedule_.emplace_back(at.toNanos(), shard);
  engine_.partition(0).sim().schedule(at,
                                      [this, shard] { controlDrain(shard); });
}

// ---- promise choreography ---------------------------------------------------
//
// Every cross-partition send instant in this workload is derivable: drain
// orders go out exactly at their scheduled times, exports exactly when the
// order lands, hub relays exactly one shard->control hop later, and ghosts
// exactly on pacing ticks. The helpers below keep each partition's
// out-links promised up to the earliest such instant still ahead of it, so
// the engine's adaptive bounds can run every quiet stretch as one window.
// Under-promising (a floor earlier than the next real send) is always
// sound; the floors are also monotone by construction, which notePromise
// enforces.

std::int64_t PartitionedCluster::nextControlSendNs() const {
  std::int64_t floorNs = kInfNs;
  if (drainCursor_ < drainSchedule_.size()) {
    floorNs = drainSchedule_[drainCursor_].first;
  }
  for (const std::int64_t f : pendingForwardNs_) {
    floorNs = std::min(floorNs, f);
  }
  return floorNs;
}

void PartitionedCluster::promiseControlLinks() {
  if (!promisesArmed_) return;
  pdes::Partition& control = engine_.partition(0);
  const std::int64_t nowNs = control.sim().now().toNanos();
  // Relay entries in the past can no longer constrain a future send (their
  // forward either executed or never will — an empty source exports
  // nothing); drop them so one stale entry can't pin the floor forever.
  std::erase_if(pendingForwardNs_,
                [nowNs](std::int64_t f) { return f < nowNs; });
  const TimePoint floor =
      TimePoint::fromNanos(std::max(nextControlSendNs(), nowNs));
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    control.promiseNoSendBefore(partitionOf(s), floor);
  }
}

void PartitionedCluster::promiseShardLinks(std::uint32_t s) {
  if (!promisesArmed_) return;
  pdes::Partition& part = engine_.partition(partitionOf(s));
  const std::int64_t nowNs = part.sim().now().toNanos();
  const std::int64_t drainFloor =
      shardDrainCursor_[s] < shardDrainNs_[s].size()
          ? shardDrainNs_[s][shardDrainCursor_[s]]
          : kInfNs;
  const auto shardCount = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t ghostTarget = (s + 1) % shardCount;
  part.promiseNoSendBefore(0, TimePoint::fromNanos(std::max(drainFloor, nowNs)));
  if (!cfg_.directShardLinks) return;
  for (std::uint32_t t = 0; t < shardCount; ++t) {
    if (t == s) continue;
    std::int64_t floorNs = drainFloor;
    if (ghostActive() && t == ghostTarget) {
      floorNs = std::min(floorNs, shards_[s].nextGhostTickNs);
    }
    part.promiseNoSendBefore(partitionOf(t),
                             TimePoint::fromNanos(std::max(floorNs, nowNs)));
  }
}

// ---- migration protocol -----------------------------------------------------

void PartitionedCluster::controlDrain(std::uint32_t source) {
  // This order leaves the unprocessed schedule whatever happens below, and
  // the promise floor must reflect that before control's window closes.
  ++drainCursor_;
  if (!accepting_[source]) {
    promiseControlLinks();
    return;
  }
  accepting_[source] = false;
  // Least-assigned accepting target, lowest id on ties (the gateway's
  // migration probe, expressed on the control book).
  const auto shardCount = static_cast<std::uint32_t>(shards_.size());
  std::uint32_t target = shardCount;
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    if (s == source || !accepting_[s]) continue;
    if (target == shardCount || assigned_[s] < assigned_[target]) target = s;
  }
  if (target == shardCount) {
    promiseControlLinks();
    return;  // nowhere to move the room
  }
  assigned_[target] += assigned_[source];
  assigned_[source] = 0;

  pdes::Partition& control = engine_.partition(0);
  const Duration toSource = engine_.lookahead(0, partitionOf(source));
  control.send(partitionOf(source), control.sim().now() + toSource,
               [this, source, target] { sourceExport(source, target); });
  if (!engine_.linked(partitionOf(source), partitionOf(target))) {
    // Hub relay: the snapshot will bounce through control exactly one
    // shard->control hop after the order lands — control cannot promise
    // past that instant until the relay retires.
    pendingForwardNs_.push_back(
        (control.sim().now() + toSource +
         engine_.lookahead(partitionOf(source), 0))
            .toNanos());
  }
  promiseControlLinks();
}

void PartitionedCluster::sourceExport(std::uint32_t source,
                                      std::uint32_t target) {
  if (promisesArmed_ && shardDrainCursor_[source] < shardDrainNs_[source].size()) {
    ++shardDrainCursor_[source];
  }
  Shard& shard = shards_[source];
  shard.inst->beginDrain();
  auto snap =
      std::make_shared<RelayRoomSnapshot>(shard.inst->room().exportSnapshot());
  // Empty the source immediately: fan-out batches already scheduled here
  // captured their recipients at broadcast time, so in-flight deliveries
  // survive the leave and the zero-loss ledger stays exact.
  for (const RelayUserRecord& u : snap->users) shard.inst->room().leave(u.id);
  if (shard.inst->userCount() == 0) shard.inst->stop();
  if (snap->users.empty()) {
    promiseShardLinks(source);
    return;
  }

  pdes::Partition& part = engine_.partition(partitionOf(source));
  const std::uint32_t srcPart = partitionOf(source);
  const std::uint32_t dstPart = partitionOf(target);
  if (engine_.linked(srcPart, dstPart)) {
    // Two hops: the snapshot rides the direct link straight to the target.
    part.send(dstPart, part.sim().now() + engine_.lookahead(srcPart, dstPart),
              [this, snap, target] { importMigration(target, snap, 2); });
  } else {
    // Three-hop fallback: relay through control, as the hub topology must.
    part.send(0, part.sim().now() + engine_.lookahead(srcPart, 0),
              [this, snap, target] { controlForward(snap, target); });
  }
  promiseShardLinks(source);
}

void PartitionedCluster::controlForward(
    std::shared_ptr<RelayRoomSnapshot> snap, std::uint32_t target) {
  pdes::Partition& control = engine_.partition(0);
  control.send(partitionOf(target),
               control.sim().now() + engine_.lookahead(0, partitionOf(target)),
               [this, snap, target] { importMigration(target, snap, 3); });
  promiseControlLinks();
}

void PartitionedCluster::importMigration(
    std::uint32_t target, const std::shared_ptr<RelayRoomSnapshot>& snap,
    std::uint32_t hops) {
  Shard& shard = shards_[target];
  // Pre-size for the merged population before the joins land — at 1M-user
  // scale an import can double a shard, and a mid-import rehash of every
  // column is exactly the setup cost the bulk path avoids.
  shard.inst->room().reserveUsers(shard.inst->userCount() + snap->users.size());
  shard.inst->room().importSnapshot(*snap);
  ++shard.migrationsIn;
  shard.migratedUsersIn += snap->users.size();
  shard.migrationHopsIn += hops;
}

// ---- pacing -----------------------------------------------------------------

void PartitionedCluster::paceShard(std::uint32_t s) {
  Shard& shard = shards_[s];
  const std::int64_t nowNs =
      engine_.partition(partitionOf(s)).sim().now().toNanos();
  const bool ghosting = ghostActive();
  if (shard.inst->userCount() >= 2) {
    shard.idsScratch = shard.inst->room().userIds();
    // Expected deliveries come from the room's own forward ledger, so the
    // zero-loss invariant holds for interest-scoped fan-out too (the grid
    // decides the receiver set, not the sender count).
    const std::uint64_t forwardedBefore =
        shard.inst->room().forwardedMessages();
    Message update = cfg_.updateProto;
    for (const std::uint64_t id : shard.idsScratch) {
      update.senderId = id;
      update.sequence = ++shard.seq;
      shard.inst->room().broadcast(id, update);
      ++shard.broadcasts;
    }
    shard.expected +=
        shard.inst->room().forwardedMessages() - forwardedBefore;

    if (ghosting) {
      // Interest-scoped forwarding: ghost the avatars near this shard's
      // portal point (the lattice origin) to the ring-next shard. The
      // receiving fold is auditNoted so ghost payloads are digest-pinned.
      std::uint64_t count = 0;
      std::uint64_t fold = 0;
      shard.inst->room().forEachNearby(
          0.0, 0.0, cfg_.ghostRadiusM,
          [&](std::uint64_t id, double, double) {
            ++count;
            fold = audit::combine(fold, id);
          });
      if (count > 0) {
        const auto shardCount = static_cast<std::uint32_t>(shards_.size());
        const std::uint32_t t = (s + 1) % shardCount;
        shard.ghostsSent += count;
        pdes::Partition& part = engine_.partition(partitionOf(s));
        part.send(partitionOf(t),
                  part.sim().now() +
                      engine_.lookahead(partitionOf(s), partitionOf(t)),
                  [this, t, count, fold] {
                    shards_[t].ghostsReceived += count;
                    engine_.partition(partitionOf(t))
                        .sim()
                        .auditNote(audit::combine(fold, count));
                  });
      }
    }
  }
  if (ghosting) {
    shard.nextGhostTickNs = nowNs + pacePeriodNs_;
    promiseShardLinks(s);
  }
}

PartitionedClusterStats PartitionedCluster::run(Duration measure,
                                                Duration slack) {
  const Duration period = Duration::seconds(1.0 / cfg_.updateRateHz);
  pacePeriodNs_ = period.toNanos();
  const TimePoint stopAt = TimePoint::epoch() + measure;

  // Arm the promise choreography before anything runs: sort the drain
  // schedule into execution order (stable on ties, matching the control
  // sim's schedule-seq order) and derive every initial floor.
  promisesArmed_ = cfg_.adaptiveWindows;
  if (promisesArmed_) {
    std::stable_sort(drainSchedule_.begin(), drainSchedule_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& arrivals : shardDrainNs_) arrivals.clear();
    for (const auto& [atNs, shard] : drainSchedule_) {
      shardDrainNs_[shard].push_back(
          atNs + engine_.lookahead(0, partitionOf(shard)).toNanos());
    }
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      shards_[s].nextGhostTickNs = ghostActive() ? pacePeriodNs_ : kInfNs;
    }
    promiseControlLinks();
    for (std::uint32_t s = 0; s < shards_.size(); ++s) promiseShardLinks(s);
  }

  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    Simulator& sim = engine_.partition(partitionOf(s)).sim();
    shard.pacer =
        std::make_unique<PeriodicTask>(sim, period, [this, s] { paceShard(s); });
    // Stop exactly at the window edge. The tick landing on the edge was
    // scheduled earlier, so it still fires (schedule-seq order), matching
    // the monolithic bench's run-then-stop sequence. Stopping also retires
    // the ghost lane's promise floor.
    PeriodicTask* pacer = shard.pacer.get();
    sim.schedule(stopAt, [this, s, pacer] {
      pacer->stop();
      if (ghostActive() && promisesArmed_) {
        shards_[s].nextGhostTickNs = kInfNs;
        promiseShardLinks(s);
      }
    });
  }

  PartitionedClusterStats stats;
  stats.engine = engine_.run(stopAt + slack);

  // Flush the in-flight tail. At high occupancy the capacity model's queue
  // inflation can delay scheduled deliveries well past any fixed slack (the
  // monolithic bench has the same loop), and the per-shard load samplers
  // tick forever so the engine can't simply run to idle: extend the horizon
  // in bounded slices until the ledger balances. The slice count is a pure
  // function of simulated state — identical for every worker count — so
  // digests stay thread-invariant.
  auto outstanding = [this] {
    std::uint64_t expected = 0;
    std::uint64_t delivered = 0;
    for (const Shard& shard : shards_) {
      expected += shard.expected + shard.ghostsSent;
      delivered += shard.delivered + shard.ghostsReceived;
    }
    return expected - delivered;
  };
  TimePoint horizon = stopAt + slack;
  for (int guard = 0; guard < 1000 && outstanding() > 0; ++guard) {
    horizon = horizon + Duration::seconds(10);
    const pdes::RunReport extra = engine_.run(horizon);
    stats.engine.rounds += extra.rounds;
    stats.engine.eventsExecuted += extra.eventsExecuted;
    stats.engine.messagesDelivered += extra.messagesDelivered;
    stats.engine.coalescedWindows += extra.coalescedWindows;
  }

  for (const Shard& shard : shards_) {
    stats.broadcasts += shard.broadcasts;
    stats.expectedDeliveries += shard.expected;
    stats.delivered += shard.delivered;
    stats.migrations += shard.migrationsIn;
    stats.migratedUsers += shard.migratedUsersIn;
    stats.migrationHops += shard.migrationHopsIn;
    stats.ghostsSent += shard.ghostsSent;
    stats.ghostsReceived += shard.ghostsReceived;
    stats.usersPerShard.push_back(shard.inst->userCount());
    stats.forwardsPerShard.push_back(shard.inst->roomPtr()->forwardedMessages());
    stats.maxUtilization =
        std::max(stats.maxUtilization, shard.inst->utilization());
  }
  return stats;
}

}  // namespace msim::cluster
