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

/// Floor on control-link lookahead (control-plane RPC turnaround); the geo
/// trunk bound is used when larger.
constexpr Duration kControlLookahead = Duration::millis(25);

/// Rejects configs the cluster cannot run (see the constructor's contract)
/// and fills in the default regions.
PartitionedClusterConfig validated(PartitionedClusterConfig cfg) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"PartitionedClusterConfig: "} +
                                what);
  };
  if (cfg.shards < 1) reject("shards must be >= 1");
  if (cfg.users < 0) reject("users must be >= 0");
  if (!(cfg.updateRateHz > 0.0)) reject("updateRateHz must be > 0");
  if (!(cfg.latticeSpacingM >= 0.0)) reject("latticeSpacingM must be >= 0");
  if (!(cfg.ghostRadiusM >= 0.0)) reject("ghostRadiusM must be >= 0");
  if (!cfg.directShardLinks) {
    reject("directShardLinks must be true (the direct mesh is the only "
           "topology)");
  }
  if (cfg.regions.empty()) {
    cfg.regions = {regions::usEast(), regions::usWest(), regions::europe()};
  }
  return cfg;
}

pdes::EngineConfig engineConfig(const PartitionedClusterConfig& cfg) {
  return {.threads = cfg.threads,
          .audit = true,
          .adaptiveWindows = cfg.adaptiveWindows};
}

}  // namespace

PartitionedCluster::PartitionedCluster(PartitionedClusterConfig cfg)
    : cfg_{validated(std::move(cfg))},
      engine_{static_cast<std::uint32_t>(cfg_.shards) + 1, cfg_.seed,
              engineConfig(cfg_)} {
  const auto shardCount = static_cast<std::uint32_t>(cfg_.shards);
  const Region& controlRegion = cfg_.regions[0];
  const auto regionOf = [&](std::uint32_t s) -> const Region& {
    return cfg_.regions[s % static_cast<std::uint32_t>(cfg_.regions.size())];
  };

  // Channels: control <-> each shard with lookahead = geo trunk bound
  // floored by the control-plane turnaround, plus a direct shard <-> shard
  // mesh at the raw trunk bound — the lanes migration snapshots and
  // interest-scoped ghosts ride. Declared serially, so the engine's link
  // table keeps one order.
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    Duration lookahead =
        InternetFabric::trunkLookahead(controlRegion, regionOf(s));
    if (lookahead.toNanos() < kControlLookahead.toNanos()) {
      lookahead = kControlLookahead;
    }
    engine_.link(0, partitionOf(s), lookahead);
    engine_.link(partitionOf(s), 0, lookahead);
  }
  for (std::uint32_t s = 0; s < shardCount; ++s) {
    for (std::uint32_t t = 0; t < shardCount; ++t) {
      if (s == t) continue;
      engine_.link(partitionOf(s), partitionOf(t),
                   InternetFabric::trunkLookahead(regionOf(s), regionOf(t)));
    }
  }

  // Placement: the cluster tier's least-loaded rule (accepting shard with
  // the fewest assignments, lowest id on ties) over fresh, equal shards deals
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
// order lands, and ghosts exactly on pacing ticks. The helpers below keep
// each partition's out-links promised up to the earliest such instant still
// ahead of it, so the engine's adaptive bounds can run every quiet stretch
// as one window. Under-promising (a floor earlier than the next real send)
// is always sound; the floors are also monotone by construction, which
// notePromise enforces.

void PartitionedCluster::promiseControlLinks() {
  if (!adaptivePromises_) return;
  pdes::Partition& control = engine_.partition(0);
  const std::int64_t nextOrderNs = drainCursor_ < drainSchedule_.size()
                                       ? drainSchedule_[drainCursor_].first
                                       : kInfNs;
  const TimePoint floor = TimePoint::fromNanos(
      std::max(nextOrderNs, control.sim().now().toNanos()));
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    control.promiseNoSendBefore(partitionOf(s), floor);
  }
}

void PartitionedCluster::promiseShardLinks(std::uint32_t s) {
  if (!adaptivePromises_) return;
  pdes::Partition& part = engine_.partition(partitionOf(s));
  const std::int64_t nowNs = part.sim().now().toNanos();
  const std::int64_t drainFloor =
      shardDrainCursor_[s] < shardDrainNs_[s].size()
          ? shardDrainNs_[s][shardDrainCursor_[s]]
          : kInfNs;
  const auto shardCount = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t ghostTarget = (s + 1) % shardCount;
  part.promiseNoSendBefore(0, TimePoint::fromNanos(std::max(drainFloor, nowNs)));
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
  // The cluster tier's placement rule on the control book: least-assigned
  // accepting shard (the source no longer accepts), lowest id on ties.
  const auto shardCount = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t target = leastLoaded(
      shardCount, [this](std::uint32_t s) -> bool { return accepting_[s]; },
      [this](std::uint32_t s) { return assigned_[s]; });
  if (target == shardCount) {
    promiseControlLinks();
    return;  // nowhere to move the room
  }
  assigned_[target] += assigned_[source];
  assigned_[source] = 0;

  pdes::Partition& control = engine_.partition(0);
  control.send(partitionOf(source),
               control.sim().now() + engine_.lookahead(0, partitionOf(source)),
               [this, source, target] { sourceExport(source, target); });
  promiseControlLinks();
}

void PartitionedCluster::sourceExport(std::uint32_t source,
                                      std::uint32_t target) {
  if (adaptivePromises_ && shardDrainCursor_[source] < shardDrainNs_[source].size()) {
    ++shardDrainCursor_[source];
  }
  Shard& shard = shards_[source];
  RelayRoomSnapshot snap = shard.inst->evacuate();
  if (!snap.users.empty()) {
    ++shard.migrationHopsIn;  // the drain order that landed here
    // The second hop: the snapshot rides the direct link to the target.
    pdes::Partition& part = engine_.partition(partitionOf(source));
    part.send(partitionOf(target),
              part.sim().now() +
                  engine_.lookahead(partitionOf(source), partitionOf(target)),
              [this, target, snap = std::move(snap)] {
                importMigration(target, snap);
              });
  }
  promiseShardLinks(source);
}

void PartitionedCluster::importMigration(std::uint32_t target,
                                         const RelayRoomSnapshot& snap) {
  Shard& shard = shards_[target];
  shard.inst->adopt(snap);
  ++shard.migrationsIn;
  shard.migratedUsersIn += snap.users.size();
  ++shard.migrationHopsIn;  // the snapshot that landed here
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
  adaptivePromises_ = cfg_.adaptiveWindows;
  if (adaptivePromises_) {
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
    // Stop exactly at the window edge. The stop is scheduled before any
    // tick, so it wins the tie with the tick landing on the edge
    // (schedule-seq order): a shard paces at period, 2 x period, ...
    // strictly below stopAt. Stopping also retires the ghost lane's promise
    // floor.
    PeriodicTask* pacer = shard.pacer.get();
    sim.schedule(stopAt, [this, s, pacer] {
      pacer->stop();
      if (ghostActive() && adaptivePromises_) {
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
