#include "cluster/manager.hpp"

#include <algorithm>

#include "geo/geo.hpp"

namespace msim::cluster {

InstanceManager::InstanceManager(Simulator& sim, const DataSpec& dataSpec,
                                 const ClusterConfig& cfg) {
  const auto count =
      static_cast<std::uint32_t>(std::max(cfg.initialInstances, 0));
  for (std::uint32_t id = 0; id < count; ++id) {
    instances_.push_back(std::make_unique<RelayInstance>(
        sim, id, regions::usEast(), dataSpec, cfg.capacity));
  }
  pinned_.assign(count, 0);
}

void InstanceManager::reserveUsers(std::size_t expectedTotal) {
  pins_.reserve(expectedTotal);
  if (instances_.empty()) return;
  const std::size_t perShard =
      (expectedTotal + instances_.size() - 1) / instances_.size();
  for (auto& inst : instances_) inst->room().reserveUsers(perShard);
}

// ---- placement -------------------------------------------------------------

RelayInstance* InstanceManager::pick(std::uint32_t excluding) const {
  const auto count = static_cast<std::uint32_t>(instances_.size());
  const auto load = [this](std::uint32_t s) {
    return std::max<std::size_t>(instances_[s]->userCount(), pinned_[s]);
  };
  const auto accepting = [&](std::uint32_t s) {
    const RelayInstance& inst = *instances_[s];
    const int cap = inst.capacity().softUserCap;
    return s != excluding && inst.state() == InstanceState::Active &&
           (cap <= 0 || load(s) < static_cast<std::size_t>(cap));
  };
  const std::uint32_t best = leastLoaded(count, accepting, load);
  return best < count ? instances_[best].get() : nullptr;
}

void InstanceManager::pin(std::uint64_t userId, std::uint32_t instanceId) {
  if (const std::uint32_t* old = pins_.find(userId)) --pinned_[*old];
  pins_[userId] = instanceId;
  ++pinned_[instanceId];
}

void InstanceManager::unpin(std::uint64_t userId) {
  if (const std::uint32_t* id = pins_.find(userId)) {
    --pinned_[*id];
    pins_.erase(userId);
  }
}

RelayInstance* InstanceManager::place(std::uint64_t userId, bool reconnect) {
  RelayInstance* inst = instanceOf(userId);
  if (inst != nullptr && inst->state() == InstanceState::Active) {
    if (reconnect) ++reconnectsSticky_;
  } else {
    // Unplaced, or a stale pin onto a Draining/Stopped shard (the
    // crash-recovery path): place the user afresh.
    const bool replacing = inst != nullptr && reconnect;
    unpin(userId);
    inst = pick(kNoShard);
    if (inst == nullptr) return nullptr;
    pin(userId, inst->id());
    ++placements_;
    if (replacing) ++reconnectsReplaced_;
  }
  if (!inst->room().joinDetached(userId)) {
    // Room-level cap tripped (maxEventUsers) even though placement had the
    // shard as accepting; give up rather than loop over shards — the soft
    // cap should be set at or below the room cap.
    unpin(userId);
    return nullptr;
  }
  return inst;
}

void InstanceManager::suspendUser(std::uint64_t userId) {
  if (RelayInstance* inst = instanceOf(userId)) inst->room().leave(userId);
  // The pin survives: a reconnecting session is sticky by default.
}

void InstanceManager::leaveUser(std::uint64_t userId) {
  suspendUser(userId);
  unpin(userId);
}

RelayInstance* InstanceManager::instanceOf(std::uint64_t userId) {
  const std::uint32_t* id = pins_.find(userId);
  return id != nullptr ? instances_[*id].get() : nullptr;
}

RelayRoom* InstanceManager::roomOf(std::uint64_t userId) {
  RelayInstance* inst = instanceOf(userId);
  return inst != nullptr ? &inst->room() : nullptr;
}

// ---- lifecycle / migration -------------------------------------------------

std::size_t InstanceManager::drain(std::uint32_t instanceId) {
  RelayInstance* source = instance(instanceId);
  if (source == nullptr || source->state() == InstanceState::Stopped) return 0;
  source->beginDrain();
  ++drains_;

  RelayInstance* target = pick(/*excluding=*/instanceId);
  if (target == nullptr) return 0;

  // The whole handoff runs inside this one event, so no send can observe
  // the users between the source's leave and the target's import. Fan-out
  // batches already scheduled on the source captured (id, home) pairs and
  // the room's delivery hook, so in-flight updates still deliver.
  const RelayRoomSnapshot snap = source->evacuate();
  if (snap.users.empty()) return 0;
  target->adopt(snap);
  for (const RelayUserRecord& u : snap.users) pin(u.id, target->id());
  ++migrations_;
  migratedUsers_ += snap.users.size();
  return snap.users.size();
}

std::size_t InstanceManager::crash(std::uint32_t instanceId) {
  RelayInstance* inst = instance(instanceId);
  if (inst == nullptr || inst->state() == InstanceState::Stopped) return 0;
  // Members drop with no handoff: in-flight batches still deliver (the room
  // outlives the stop), but everything after the crash instant is lost
  // until sessions reconnect and recover via channel history.
  ++crashes_;
  return inst->evacuate().users.size();
}

void InstanceManager::setDeliverySink(const RelayInstance::DeliverySink& sink) {
  for (auto& inst : instances_) inst->setDeliverySink(sink);
}

std::size_t InstanceManager::totalUsers() const {
  std::size_t n = 0;
  for (const auto& inst : instances_) n += inst->userCount();
  return n;
}

ClusterStats InstanceManager::stats() const {
  ClusterStats out;
  out.shards.reserve(instances_.size());
  for (const auto& instPtr : instances_) {
    const RelayInstance& inst = *instPtr;
    ClusterStats::ShardRow row;
    row.id = inst.id();
    row.state = inst.state();
    row.users = inst.userCount();
    row.forwards = instPtr->roomPtr()->forwardedMessages();
    row.utilization = inst.utilization();
    row.queueInflation = inst.queueInflation();
    row.deliveredMsgs = inst.deliveredMessages();
    row.deliveredBytes = inst.deliveredBytes();
    out.shards.push_back(std::move(row));
  }
  out.placementsTotal = placements_;
  out.migrations = migrations_;
  out.migratedUsers = migratedUsers_;
  out.drains = drains_;
  out.crashes = crashes_;
  out.reconnectsSticky = reconnectsSticky_;
  out.reconnectsReplaced = reconnectsReplaced_;
  out.totalUsers = totalUsers();
  return out;
}

}  // namespace msim::cluster
