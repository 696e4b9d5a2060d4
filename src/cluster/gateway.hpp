#pragma once

// The cluster front door: answers "which shard serves this user?".
//
// The paper observed this tier from the outside (§4.2): the same client in
// the same event can be handed different server addresses — load balancing
// spreads users across replicas, and which machine you land on decides the
// performance you get (public vs well-provisioned Hubs, §7). The Gateway
// makes that decision explicit and pluggable, and keeps it *sticky*: a
// placed user keeps its shard until it leaves or is migrated, exactly like
// a session pinned to a relay address.

#include <cstdint>
#include <vector>

#include "cluster/instance.hpp"
#include "util/flatmap.hpp"

namespace msim::cluster {

/// Placement policies the gateway can run.
enum class PlacementPolicy : std::uint8_t {
  /// Prefer shards in the user's region; least-loaded among those.
  RegionAffinity,
  /// Globally least-loaded accepting shard (ties to the lowest id).
  LeastLoaded,
  /// Fill the lowest-id accepting shard to its soft cap before opening the
  /// next one (VRChat-style instance packing).
  FillToCapacity,
};

[[nodiscard]] const char* toString(PlacementPolicy p);

class Gateway {
 public:
  using InstanceList = std::vector<std::unique_ptr<RelayInstance>>;

  Gateway(InstanceList& instances, PlacementPolicy policy)
      : instances_{instances}, policy_{policy} {}

  [[nodiscard]] PlacementPolicy policy() const { return policy_; }
  void setPolicy(PlacementPolicy p) { policy_ = p; }

  /// Pre-sizes the assignment table for a bulk population of `users` so the
  /// join loop of a large run (the million-user bench) never rehashes
  /// mid-placement.
  void reserveUsers(std::size_t users) { assignment_.reserve(users); }

  /// Resolves the shard serving `userKey`, placing the user on first call.
  /// Sticky: later calls return the same shard until forget()/reassign().
  /// Returns nullptr when no shard is accepting users.
  RelayInstance* place(std::uint64_t userKey, const Region& userRegion);

  /// Placement for a *reconnecting* session: reuses the sticky assignment
  /// when the pinned shard can still serve (Starting/Active), and re-runs
  /// the placement policy when it is Draining/Stopped — the crash-recovery
  /// path. Counted separately so reconnect storms are observable.
  RelayInstance* placeReconnect(std::uint64_t userKey, const Region& userRegion);

  /// The shard a user is currently assigned to, nullptr if unplaced.
  [[nodiscard]] RelayInstance* instanceOf(std::uint64_t userKey) const;

  /// Re-pins a user to a specific shard (live migration handoff).
  void reassign(std::uint64_t userKey, std::uint32_t instanceId);
  /// Drops a user's assignment (user left the platform).
  void forget(std::uint64_t userKey);

  [[nodiscard]] std::uint64_t placementsTotal() const { return placements_; }
  /// Reconnects served by the sticky assignment vs re-placed because the
  /// pinned shard was Draining/Stopped.
  [[nodiscard]] std::uint64_t reconnectsSticky() const { return reconnectsSticky_; }
  [[nodiscard]] std::uint64_t reconnectsReplaced() const {
    return reconnectsReplaced_;
  }
  /// Placement decisions routed to each shard id (index = shard id).
  [[nodiscard]] const std::vector<std::uint64_t>& placementsPerInstance() const {
    return perInstance_;
  }
  /// Users currently assigned to a shard. Placement balances on this, not on
  /// room occupancy alone: InstanceManager::suspendUser takes a session out
  /// of its room but keeps its pin, so the shard still owes it a seat when
  /// it reconnects.
  [[nodiscard]] std::uint32_t assignedCount(std::uint32_t instanceId) const {
    return instanceId < assigned_.size() ? assigned_[instanceId] : 0;
  }

 private:
  [[nodiscard]] RelayInstance* pick(const Region& userRegion) const;
  /// Occupancy a placement decision sees: assignments or already-joined room
  /// residents, whichever is higher.
  [[nodiscard]] std::size_t occupancy(const RelayInstance& inst) const;
  [[nodiscard]] bool accepting(const RelayInstance& inst) const;
  void bumpAssigned(std::uint32_t instanceId, int delta);

  InstanceList& instances_;
  PlacementPolicy policy_;
  FlatMap64<std::uint32_t> assignment_;  // userKey -> instance id
  std::uint64_t placements_{0};
  std::uint64_t reconnectsSticky_{0};
  std::uint64_t reconnectsReplaced_{0};
  std::vector<std::uint64_t> perInstance_;
  std::vector<std::uint32_t> assigned_;
};

}  // namespace msim::cluster
