#pragma once

// A planet-scale cluster run split across PDES partitions.
//
// bench_cluster_planet_scale's monolithic form drives 32 shards from one
// Simulator — one core per run no matter how many the host has. This layer
// re-expresses the same workload on pdes::Engine: each shard becomes its
// own logical process (partition) with a private event loop, and one extra
// control partition plays the gateway/autoscaler role (placement book,
// drain brokerage). Cross-partition traffic is exactly what crosses
// machines in the real deployment — control-plane RPCs and room-migration
// snapshots — and rides channels whose conservative lookahead is the geo
// fabric's trunk bound (InternetFabric::trunkLookahead) floored by the
// configured control-plane turnaround: tens of milliseconds against
// microsecond-scale intra-shard event spacing, which is the whole reason
// the partitioning parallelizes.
//
// Topology: control <-> every shard partition, plus (by default) a full
// mesh of direct shard <-> shard channels with geo-trunk lookahead. A drain
// then travels drain-order -> snapshot-to-target as TWO timestamped hops —
// the source exports straight to the target over its direct link — with the
// classic three-hop relay through control kept as the fallback whenever no
// direct channel exists (directShardLinks = false). The source empties the
// moment it exports (in-flight fan-out batches still deliver — they
// captured their recipients at broadcast time). Expected and delivered
// counts are kept per shard partition, so the zero-loss invariant of the
// monolithic bench carries over unchanged; migration accounting moved from
// the control book to per-shard import counters so the two-hop path never
// touches control state from a shard partition's event.
//
// Window coalescing: with adaptiveWindows on, the cluster derives per-link
// send promises (pdes::Partition::promiseNoSendBefore) from what it already
// knows statically — the drain schedule fixes every control-plane and
// migration send instant, and the pacing cadence fixes every ghost-forward
// instant. Between those instants every channel is provably quiet, so the
// engine's adaptive bounds let each shard run whole stretches of simulated
// time per barrier instead of one trunk-lookahead window at a time. That —
// not the hop count — is where the rounds-per-sim-second collapse comes
// from; see DESIGN.md §11.
//
// Interest-scoped forwarding (interestForwarding): each pacing tick, a
// shard queries its room's AOI grid for avatars within ghostRadiusM of its
// portal point and ghosts a summary of them to the ring-next shard over the
// direct link. ghostsSent/ghostsReceived form an exactly-once ledger, and
// the received fold is auditNoted into the target sim so payloads are
// digest-pinned.
//
// The partition structure is fixed by (shards, regions) alone — never by
// the worker count — so audit digests are byte-identical for any
// MSIM_THREADS; that is pinned by tests/pdes_test.cpp via
// audit::verifyThreadInvariance.

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/instance.hpp"
#include "pdes/pdes.hpp"

namespace msim::cluster {

struct PartitionedClusterConfig {
  std::uint64_t seed{1};
  int users{10000};
  int shards{32};
  /// Shard s serves regions[s % regions.size()]; the control partition is
  /// homed in regions[0]. Defaults to usEast/usWest/europe when empty.
  std::vector<Region> regions;
  ShardCapacitySpec capacity{};
  DataSpec dataSpec{};
  /// Prototype for the periodic per-user update (kind/size); senderId and
  /// sequence are stamped per send.
  Message updateProto{};
  /// Per-user update cadence, Hz (the avatar tick).
  double updateRateHz{10.0};
  /// Engine workers: 0 leases from the process ThreadBudget (honors
  /// MSIM_THREADS), > 0 pins the pool size. Results identical either way.
  unsigned threads{0};
  /// Floor on control-link lookahead (control-plane RPC turnaround); the
  /// geo trunk bound is used when larger.
  Duration controlLookahead = Duration::millis(25);
  /// Declare direct shard <-> shard channels (full mesh) with geo-trunk
  /// lookahead: migration snapshots hop source -> target directly (two hops
  /// instead of three) and interest-scoped ghost forwarding has a lane.
  /// Off = the classic hub star; migrations then relay through control.
  bool directShardLinks{true};
  /// Derive per-link send promises from the drain schedule and pacing
  /// cadence so the engine coalesces windows (pdes adaptive windows). The
  /// promises are sound for any schedule — they mirror the exact instants
  /// the cluster can send at — and digests are unchanged by construction.
  bool adaptiveWindows{true};
  /// When > 0, users are placed on a per-shard lattice with this spacing
  /// (meters) and their poses registered at construction — the
  /// deterministic population that interest-grid fan-out and ghost
  /// forwarding need. 0 = no poses (all-to-all fan-out path).
  double latticeSpacingM{0.0};
  /// Ghost avatars within ghostRadiusM of each shard's portal point (the
  /// lattice origin) to the ring-next shard every pacing tick. Requires
  /// directShardLinks and at least two shards.
  bool interestForwarding{false};
  double ghostRadiusM{25.0};
  bool audit{true};
  bool recordTrail{false};
};

struct PartitionedClusterStats {
  std::uint64_t broadcasts{0};
  std::uint64_t expectedDeliveries{0};
  std::uint64_t delivered{0};
  std::uint64_t migrations{0};
  std::uint64_t migratedUsers{0};
  /// Cross-partition hops the migrations took in total: 2 per direct-link
  /// migration, 3 per hub-relayed one — the regression hook for the
  /// two-hop path.
  std::uint64_t migrationHops{0};
  /// Interest-scoped ghost ledger (exactly-once: sent == received once the
  /// tail drains).
  std::uint64_t ghostsSent{0};
  std::uint64_t ghostsReceived{0};
  double maxUtilization{0.0};
  std::vector<std::size_t> usersPerShard;      // shard-id order
  std::vector<std::uint64_t> forwardsPerShard;  // shard-id order
  pdes::RunReport engine;
};

/// Owns the engine, the per-shard RelayInstances (each living on its own
/// partition's Simulator), and the control partition's placement book.
class PartitionedCluster {
 public:
  explicit PartitionedCluster(PartitionedClusterConfig cfg);
  ~PartitionedCluster();

  PartitionedCluster(const PartitionedCluster&) = delete;
  PartitionedCluster& operator=(const PartitionedCluster&) = delete;

  /// Schedules a control-brokered drain of `shard` at absolute time `at`
  /// (must be called before run()). The control partition picks the
  /// least-assigned accepting target; the snapshot then hops straight to
  /// the target over a direct link when one exists, or relays through
  /// control otherwise.
  void scheduleDrain(std::uint32_t shard, TimePoint at);

  /// Paces every shard at cfg.updateRateHz for `measure`, lets the
  /// in-flight tail (deliveries, migration hops) settle for `slack`, then
  /// keeps extending the horizon in bounded slices until every expected
  /// delivery has landed (queue inflation at high occupancy can defer
  /// deliveries arbitrarily far; the slice count depends only on simulated
  /// state, so digests stay thread-invariant). Callable once per instance.
  PartitionedClusterStats run(Duration measure, Duration slack);

  /// Per-partition audit digests folded in partition-id order (see
  /// pdes::Engine::auditFingerprint).
  [[nodiscard]] audit::RunFingerprint fingerprint() const {
    return engine_.auditFingerprint();
  }
  [[nodiscard]] std::uint64_t digest() const { return engine_.auditDigest(); }

  [[nodiscard]] pdes::Engine& engine() { return engine_; }

  /// Shard s's room, read-only: who was placed there and where they stand.
  [[nodiscard]] const RelayRoom& shardRoom(std::uint32_t s) const {
    return *shards_[s].inst->roomPtr();
  }

 private:
  struct Shard {
    std::unique_ptr<RelayInstance> inst;
    std::unique_ptr<PeriodicTask> pacer;
    // Every counter below is written only by this shard's own partition
    // events (imports run on the target, ghosts count on sender/receiver
    // sides separately), so the two-hop path never races on shared state.
    std::uint64_t broadcasts{0};
    std::uint64_t expected{0};
    std::uint64_t delivered{0};
    std::uint64_t seq{0};  // per-partition update sequence stamp
    std::uint64_t migrationsIn{0};      // snapshots imported here
    std::uint64_t migratedUsersIn{0};   // users those snapshots carried
    std::uint64_t migrationHopsIn{0};   // 2 per direct, 3 per hub relay
    std::uint64_t ghostsSent{0};
    std::uint64_t ghostsReceived{0};
    std::int64_t nextGhostTickNs{0};  // promise floor for the ghost lane
    std::vector<std::uint64_t> idsScratch;
  };

  /// Shard s lives on partition s + 1; partition 0 is control.
  [[nodiscard]] static std::uint32_t partitionOf(std::uint32_t shard) {
    return shard + 1;
  }

  [[nodiscard]] bool ghostActive() const {
    return cfg_.interestForwarding && cfg_.directShardLinks &&
           shards_.size() > 1;
  }

  void controlDrain(std::uint32_t source);
  void sourceExport(std::uint32_t source, std::uint32_t target);
  void controlForward(std::shared_ptr<RelayRoomSnapshot> snap,
                      std::uint32_t target);
  /// Final migration hop, always executed on the target's partition.
  void importMigration(std::uint32_t target,
                       const std::shared_ptr<RelayRoomSnapshot>& snap,
                       std::uint32_t hops);
  void paceShard(std::uint32_t shard);

  // ---- promise choreography (adaptiveWindows) -----------------------------
  /// Earliest instant control could still send on any out-link: the next
  /// unprocessed drain order, or an in-flight hub-relay forward.
  [[nodiscard]] std::int64_t nextControlSendNs() const;
  /// Re-promises every control out-link from the floor above.
  void promiseControlLinks();
  /// Re-promises every out-link of shard s: the next drain-order arrival
  /// (= the export send instant), min'd with the next pacing tick on the
  /// ghost lane.
  void promiseShardLinks(std::uint32_t s);

  PartitionedClusterConfig cfg_;
  pdes::Engine engine_;
  std::vector<Shard> shards_;
  // Control partition's book (touched only by control-partition events
  // after construction): placement counts and accepting flags.
  std::vector<std::uint32_t> assigned_;
  std::vector<bool> accepting_;
  // Drain schedule, (timeNs, shard) in execution order once run() stable-
  // sorts it. The cursors drive the promise floors: drainCursor_ is
  // control's (advanced as each drain order event executes), the per-shard
  // cursors advance as each export executes on its shard.
  std::vector<std::pair<std::int64_t, std::uint32_t>> drainSchedule_;
  std::size_t drainCursor_{0};
  std::vector<std::int64_t> pendingForwardNs_;  // in-flight hub relays
  std::vector<std::vector<std::int64_t>> shardDrainNs_;  // arrival instants
  std::vector<std::size_t> shardDrainCursor_;
  bool promisesArmed_{false};
  std::int64_t pacePeriodNs_{0};
};

}  // namespace msim::cluster
