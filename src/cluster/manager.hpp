#pragma once

// Cluster control plane: owns the shard fleet, places users on it, and
// executes live room migration when a shard drains.
//
// Placement answers "which shard serves this user?". The paper observed
// this tier from the outside (§4.2): load balancing spreads users across
// replicas, and which machine a user lands on decides the performance it
// gets (public vs well-provisioned Hubs, §7). The manager runs the cluster
// tier's one rule (leastLoaded, instance.hpp) and keeps its answer *sticky*:
// a placed user keeps its shard until it leaves or is migrated, exactly like
// a session pinned to a relay address.
//
// Determinism contract: everything here is driven by the owning Simulator
// (load samplers) and plain in-sim state — no wall clock, no process-global
// state — so a seed sweep over cluster runs is bit-identical for any
// MSIM_THREADS.

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/instance.hpp"
#include "util/flatmap.hpp"

namespace msim::cluster {

/// The placement rule: least-loaded accepting shard, lowest id on ties. The
/// enum and ClusterConfig::policy remain only because callers assign them.
enum class PlacementPolicy : std::uint8_t { LeastLoaded };

struct ClusterConfig {
  /// Shards created (Active, serving us-east) at construction.
  int initialInstances{1};
  PlacementPolicy policy{PlacementPolicy::LeastLoaded};
  ShardCapacitySpec capacity;
};

/// Point-in-time cluster telemetry.
struct ClusterStats {
  struct ShardRow {
    std::uint32_t id{0};
    InstanceState state{InstanceState::Active};
    std::size_t users{0};
    std::uint64_t forwards{0};
    double utilization{0.0};
    double queueInflation{1.0};
    std::uint64_t deliveredMsgs{0};
    ByteSize deliveredBytes;
  };
  std::vector<ShardRow> shards;
  std::uint64_t placementsTotal{0};
  std::uint64_t migrations{0};
  std::uint64_t migratedUsers{0};
  std::uint64_t drains{0};
  std::uint64_t crashes{0};
  /// Reconnects served by the sticky pin vs re-placed because the pinned
  /// shard was Draining/Stopped.
  std::uint64_t reconnectsSticky{0};
  std::uint64_t reconnectsReplaced{0};
  std::size_t totalUsers{0};
};

class InstanceManager {
 public:
  InstanceManager(Simulator& sim, const DataSpec& dataSpec,
                  const ClusterConfig& cfg);

  [[nodiscard]] const std::vector<std::unique_ptr<RelayInstance>>& instances()
      const {
    return instances_;
  }
  [[nodiscard]] RelayInstance* instance(std::uint32_t id) {
    return id < instances_.size() ? instances_[id].get() : nullptr;
  }

  /// Memory-lean bulk setup: pre-sizes the pin table for `expectedTotal`
  /// users and every shard's room for an even split, so a large join loop
  /// performs no mid-placement rehash or slot growth.
  void reserveUsers(std::size_t expectedTotal);

  // ---- detached population (benches, tests, examples) ----------------------
  /// Places `userId` and joins it to the chosen shard's room. Sticky: a
  /// pinned user lands on its shard again. Returns the shard, or nullptr
  /// when the whole cluster is full.
  RelayInstance* joinUser(std::uint64_t userId) {
    return place(userId, /*reconnect=*/false);
  }
  void leaveUser(std::uint64_t userId);
  /// Rejoins a user whose session dropped: sticky to the previous shard
  /// unless it is Draining/Stopped (then the user is placed afresh). The
  /// room join is idempotent, so a reconnect racing a migration is harmless.
  RelayInstance* reconnectUser(std::uint64_t userId) {
    return place(userId, /*reconnect=*/true);
  }
  /// Takes a user out of its room but KEEPS its pin, so a later
  /// reconnectUser lands on the same shard (session suspended, not gone).
  void suspendUser(std::uint64_t userId);
  /// The room currently serving a placed user (senders route through this).
  [[nodiscard]] RelayRoom* roomOf(std::uint64_t userId);
  /// The shard a user is pinned to, nullptr if unplaced.
  [[nodiscard]] RelayInstance* instanceOf(std::uint64_t userId);

  // ---- lifecycle / migration ----------------------------------------------
  /// Marks a shard Draining and live-migrates its whole room to the
  /// least-loaded accepting shard. In-flight deliveries already scheduled on
  /// the source still complete; new sends route to the target; flow clocks
  /// and LoD counters move with the users, so nothing is lost or duplicated.
  /// Returns users moved (0 when there is no viable target — the shard then
  /// keeps serving until one appears).
  std::size_t drain(std::uint32_t instanceId);
  /// Simulated shard failure: members are dropped with NO migration and the
  /// shard goes straight to Stopped. Pins are deliberately left stale —
  /// reconnecting sessions are placed afresh, which is what a reconnect
  /// storm exercises. Returns users dropped.
  std::size_t crash(std::uint32_t instanceId);

  /// Forwarded to every shard.
  void setDeliverySink(const RelayInstance::DeliverySink& sink);

  [[nodiscard]] ClusterStats stats() const;
  [[nodiscard]] std::size_t totalUsers() const;

 private:
  /// joinUser/reconnectUser: reuses the user's pin while its shard is
  /// Active, else drops the pin and places the user on pick(); then joins
  /// the room. `reconnect` feeds the sticky/replaced counters.
  RelayInstance* place(std::uint64_t userId, bool reconnect);
  static constexpr std::uint32_t kNoShard = ~std::uint32_t{0};
  /// Least-loaded accepting shard other than `excluding`; nullptr when none.
  /// Accepting: Active and below the soft cap. Load: room members or pins,
  /// whichever is higher — suspendUser takes a session out of its room but
  /// keeps its pin, so the shard still owes it a seat.
  [[nodiscard]] RelayInstance* pick(std::uint32_t excluding) const;
  void pin(std::uint64_t userId, std::uint32_t instanceId);
  void unpin(std::uint64_t userId);

  std::vector<std::unique_ptr<RelayInstance>> instances_;
  FlatMap64<std::uint32_t> pins_;     // userId -> shard id
  std::vector<std::uint32_t> pinned_;  // pins per shard id
  std::uint64_t placements_{0};
  std::uint64_t reconnectsSticky_{0};
  std::uint64_t reconnectsReplaced_{0};
  std::uint64_t migrations_{0};
  std::uint64_t migratedUsers_{0};
  std::uint64_t drains_{0};
  std::uint64_t crashes_{0};
};

}  // namespace msim::cluster
