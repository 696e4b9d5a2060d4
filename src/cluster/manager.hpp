#pragma once

// Cluster control plane: owns the shard fleet, runs the gateway, and
// executes live room migration when a shard drains.
//
// Determinism contract: everything here is driven by the owning Simulator
// (spin-up timers, load samplers) and plain in-sim state — no wall clock,
// no process-global state — so a seed sweep over cluster runs is
// bit-identical for any MSIM_THREADS.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/gateway.hpp"
#include "cluster/instance.hpp"

namespace msim::cluster {

struct ClusterConfig {
  /// Shards created (and immediately Active) at construction.
  int initialInstances{1};
  PlacementPolicy policy{PlacementPolicy::LeastLoaded};
  ShardCapacitySpec capacity;
  /// Shard i serves regions[i % regions.size()]; defaults to us-east.
  std::vector<Region> regions;
  /// Boot delay for shards spun up after construction (elastic scale-out).
  Duration spinUpDelay = Duration::seconds(2);
};

/// Point-in-time cluster telemetry.
struct ClusterStats {
  struct ShardRow {
    std::uint32_t id{0};
    std::string region;
    InstanceState state{InstanceState::Starting};
    std::size_t users{0};
    std::uint64_t forwards{0};
    double utilization{0.0};
    double queueInflation{1.0};
    std::uint64_t deliveredMsgs{0};
    ByteSize deliveredBytes;
    std::uint64_t placements{0};
  };
  std::vector<ShardRow> shards;
  std::uint64_t placementsTotal{0};
  std::uint64_t migrations{0};
  std::uint64_t migratedUsers{0};
  std::uint64_t drains{0};
  std::uint64_t crashes{0};
  std::uint64_t reconnectsSticky{0};
  std::uint64_t reconnectsReplaced{0};
  std::size_t totalUsers{0};
};

class InstanceManager {
 public:
  InstanceManager(Simulator& sim, DataSpec dataSpec, ClusterConfig cfg);

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] Gateway& gateway() { return *gateway_; }
  [[nodiscard]] const std::vector<std::unique_ptr<RelayInstance>>& instances()
      const {
    return instances_;
  }
  [[nodiscard]] RelayInstance* instance(std::uint32_t id) {
    return id < instances_.size() ? instances_[id].get() : nullptr;
  }

  /// Adds a shard; it becomes Active after cfg.spinUpDelay (immediately when
  /// `immediate`, used for the initial fleet).
  RelayInstance& spinUp(const Region& region, bool immediate = false);

  /// Memory-lean bulk setup: pre-sizes the gateway's assignment table for
  /// `expectedTotal` users and every current shard's room for an even split,
  /// so a large join loop performs no mid-placement rehash or slot growth.
  void reserveUsers(std::size_t expectedTotal);

  // ---- detached population (benches, tests, examples) ----------------------
  /// Places `userId` via the gateway and joins it to the chosen shard's room.
  /// Returns the shard, or nullptr when the whole cluster is full.
  RelayInstance* joinUser(std::uint64_t userId, const Region& region);
  void leaveUser(std::uint64_t userId);
  /// Rejoins a user whose session dropped: sticky to the previous shard
  /// unless it is Draining/Stopped (then the policy re-places). The room
  /// join is idempotent, so a reconnect racing a migration is harmless.
  RelayInstance* reconnectUser(std::uint64_t userId, const Region& region);
  /// Takes a user out of its room but KEEPS the gateway pin, so a later
  /// reconnectUser lands on the same shard (session suspended, not gone).
  void suspendUser(std::uint64_t userId);
  /// The room currently serving a placed user (senders route through this).
  [[nodiscard]] RelayRoom* roomOf(std::uint64_t userId);
  [[nodiscard]] RelayInstance* instanceOf(std::uint64_t userId) {
    return gateway_->instanceOf(userId);
  }

  // ---- lifecycle / migration ----------------------------------------------
  /// Marks a shard Draining and live-migrates its whole room to the best
  /// accepting shard (placement policy picks the target). In-flight
  /// deliveries already scheduled on the source still complete; new sends
  /// route to the target; flow clocks and LoD counters move with the users,
  /// so nothing is lost or duplicated. Returns users moved (0 when there is
  /// no viable target — the shard then keeps serving until one appears).
  std::size_t drain(std::uint32_t instanceId);
  /// Simulated shard failure: members are dropped with NO migration and the
  /// shard goes straight to Stopped. Gateway pins are deliberately left
  /// stale — reconnecting sessions hit placeReconnect's re-place path, which
  /// is what a reconnect storm exercises. Returns users dropped.
  std::size_t crash(std::uint32_t instanceId);
  /// Where the placement policy would send users from `sourceId`'s region
  /// (the shard itself excluded); nullptr when no shard accepts users.
  RelayInstance* pickMigrationTarget(std::uint32_t sourceId);

  /// Forwarded to every shard (current and future).
  void setDeliverySink(RelayInstance::DeliverySink sink);

  [[nodiscard]] ClusterStats stats() const;
  [[nodiscard]] std::size_t totalUsers() const;

 private:
  RelayInstance& addInstance(const Region& region, bool immediate);

  Simulator& sim_;
  DataSpec dataSpec_;
  ClusterConfig cfg_;
  std::vector<std::unique_ptr<RelayInstance>> instances_;
  std::unique_ptr<Gateway> gateway_;
  RelayInstance::DeliverySink sink_;
  std::uint64_t migrations_{0};
  std::uint64_t migratedUsers_{0};
  std::uint64_t drains_{0};
  std::uint64_t crashes_{0};
};

}  // namespace msim::cluster
