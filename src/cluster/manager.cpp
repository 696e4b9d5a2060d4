#include "cluster/manager.hpp"

#include "geo/geo.hpp"

namespace msim::cluster {

InstanceManager::InstanceManager(Simulator& sim, DataSpec dataSpec,
                                 ClusterConfig cfg)
    : sim_{sim}, dataSpec_{std::move(dataSpec)}, cfg_{std::move(cfg)} {
  if (cfg_.regions.empty()) cfg_.regions.push_back(regions::usEast());
  gateway_ = std::make_unique<Gateway>(instances_, cfg_.policy);
  for (int i = 0; i < cfg_.initialInstances; ++i) {
    addInstance(cfg_.regions[static_cast<std::size_t>(i) % cfg_.regions.size()],
                /*immediate=*/true);
  }
}

RelayInstance& InstanceManager::spinUp(const Region& region, bool immediate) {
  return addInstance(region, immediate);
}

void InstanceManager::reserveUsers(std::size_t expectedTotal) {
  gateway_->reserveUsers(expectedTotal);
  if (instances_.empty()) return;
  const std::size_t perShard =
      (expectedTotal + instances_.size() - 1) / instances_.size();
  for (auto& inst : instances_) inst->room().reserveUsers(perShard);
}

RelayInstance& InstanceManager::addInstance(const Region& region,
                                            bool immediate) {
  const auto id = static_cast<std::uint32_t>(instances_.size());
  auto inst =
      std::make_unique<RelayInstance>(sim_, id, region, dataSpec_, cfg_.capacity);
  if (sink_) inst->setDeliverySink(sink_);
  RelayInstance& ref = *inst;
  instances_.push_back(std::move(inst));
  if (immediate) {
    ref.activate();
  } else {
    sim_.scheduleAfter(cfg_.spinUpDelay, [this, id] {
      if (RelayInstance* inst = instance(id)) inst->activate();
    });
  }
  return ref;
}

RelayInstance* InstanceManager::joinUser(std::uint64_t userId,
                                         const Region& region) {
  RelayInstance* inst = gateway_->place(userId, region);
  if (inst == nullptr) return nullptr;
  if (!inst->room().joinDetached(userId)) {
    // Room-level cap tripped (maxEventUsers) even though the gateway had it
    // as accepting; give up rather than loop over shards — the soft cap
    // should be set at or below the room cap.
    gateway_->forget(userId);
    return nullptr;
  }
  return inst;
}

RelayInstance* InstanceManager::reconnectUser(std::uint64_t userId,
                                              const Region& region) {
  RelayInstance* inst = gateway_->placeReconnect(userId, region);
  if (inst == nullptr) return nullptr;
  if (!inst->room().joinDetached(userId)) {
    gateway_->forget(userId);
    return nullptr;
  }
  return inst;
}

void InstanceManager::suspendUser(std::uint64_t userId) {
  if (RelayInstance* inst = gateway_->instanceOf(userId)) {
    inst->room().leave(userId);
  }
  // The gateway pin survives: a reconnecting session is sticky by default.
}

void InstanceManager::leaveUser(std::uint64_t userId) {
  if (RelayInstance* inst = gateway_->instanceOf(userId)) {
    inst->room().leave(userId);
  }
  gateway_->forget(userId);
}

RelayRoom* InstanceManager::roomOf(std::uint64_t userId) {
  RelayInstance* inst = gateway_->instanceOf(userId);
  return inst != nullptr ? &inst->room() : nullptr;
}

RelayInstance* InstanceManager::pickMigrationTarget(std::uint32_t sourceId) {
  RelayInstance* source = instance(sourceId);
  if (source == nullptr) return nullptr;
  // Probe the gateway with a key that cannot collide with a real user id:
  // "where would the policy place a user from the draining shard's region?"
  const std::uint64_t probeKey = ~std::uint64_t{0};
  RelayInstance* target = gateway_->place(probeKey, source->region());
  gateway_->forget(probeKey);
  if (target != nullptr && target->id() == sourceId) return nullptr;
  return target;
}

std::size_t InstanceManager::drain(std::uint32_t instanceId) {
  RelayInstance* source = instance(instanceId);
  if (source == nullptr || source->state() == InstanceState::Stopped) return 0;
  source->beginDrain();
  ++drains_;

  RelayInstance* target = pickMigrationTarget(instanceId);
  if (target == nullptr) return 0;

  // The whole handoff runs inside this one event, so no send can observe
  // the users between the source's leave and the target's import. Fan-out
  // batches already scheduled on the source captured (id, home) pairs and
  // the room's delivery hook, so in-flight updates still deliver.
  const RelayRoomSnapshot snap = source->evacuate();
  if (snap.users.empty()) return 0;
  target->adopt(snap);
  for (const RelayUserRecord& u : snap.users) {
    gateway_->reassign(u.id, target->id());
  }
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

void InstanceManager::setDeliverySink(RelayInstance::DeliverySink sink) {
  sink_ = std::move(sink);
  for (auto& inst : instances_) inst->setDeliverySink(sink_);
}

std::size_t InstanceManager::totalUsers() const {
  std::size_t n = 0;
  for (const auto& inst : instances_) n += inst->userCount();
  return n;
}

ClusterStats InstanceManager::stats() const {
  ClusterStats out;
  out.shards.reserve(instances_.size());
  const auto& perInst = gateway_->placementsPerInstance();
  for (const auto& instPtr : instances_) {
    const RelayInstance& inst = *instPtr;
    ClusterStats::ShardRow row;
    row.id = inst.id();
    row.region = inst.region().name;
    row.state = inst.state();
    row.users = inst.userCount();
    row.forwards = instPtr->roomPtr()->forwardedMessages();
    row.utilization = inst.utilization();
    row.queueInflation = inst.queueInflation();
    row.deliveredMsgs = inst.deliveredMessages();
    row.deliveredBytes = inst.deliveredBytes();
    row.placements = inst.id() < perInst.size() ? perInst[inst.id()] : 0;
    out.shards.push_back(std::move(row));
  }
  out.placementsTotal = gateway_->placementsTotal();
  out.migrations = migrations_;
  out.migratedUsers = migratedUsers_;
  out.drains = drains_;
  out.crashes = crashes_;
  out.reconnectsSticky = gateway_->reconnectsSticky();
  out.reconnectsReplaced = gateway_->reconnectsReplaced();
  out.totalUsers = totalUsers();
  return out;
}

}  // namespace msim::cluster
