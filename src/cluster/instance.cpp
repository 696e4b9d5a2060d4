#include "cluster/instance.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace msim::cluster {

const char* toString(InstanceState s) {
  switch (s) {
    case InstanceState::Active: return "active";
    case InstanceState::Draining: return "draining";
    case InstanceState::Stopped: return "stopped";
  }
  return "?";
}

namespace {

/// Rejects capacity specs the load model cannot run (see ShardCapacitySpec).
ShardCapacitySpec validated(ShardCapacitySpec c) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"ShardCapacitySpec: "} + what);
  };
  if (!(c.cores > 0.0)) reject("cores must be > 0");
  if (!(c.cpuPerForwardUs >= 0.0)) reject("cpuPerForwardUs must be >= 0");
  if (c.loadSampleEvery <= Duration::zero()) {
    reject("loadSampleEvery must be > 0");
  }
  if (!(c.loadEwmaAlpha > 0.0 && c.loadEwmaAlpha <= 1.0)) {
    reject("loadEwmaAlpha must lie in (0, 1]");
  }
  if (!(c.saturationKnee > 0.0 && c.saturationKnee < 1.0)) {
    reject("saturationKnee must lie in (0, 1)");
  }
  if (!(c.maxInflation >= 1.0)) reject("maxInflation must be >= 1");
  if (c.softUserCap < 0) reject("softUserCap must be >= 0");
  return c;
}

}  // namespace

RelayInstance::RelayInstance(Simulator& sim, std::uint32_t id, Region region,
                             DataSpec spec, ShardCapacitySpec capacity)
    : sim_{sim},
      id_{id},
      region_{std::move(region)},
      capacity_{validated(capacity)},
      baseProvisioning_{spec.provisioningFactor} {
  room_ = std::make_shared<RelayRoom>(sim_, std::move(spec));
  room_->hooks().onLocalDeliver = [this](std::uint64_t toUser,
                                         const Message& m) {
    ++deliveredMsgs_;
    deliveredBytes_ += m.size;
    if (sink_) sink_(id_, toUser, m);
  };
  loadSampler_ = std::make_unique<PeriodicTask>(
      sim_, capacity_.loadSampleEvery, [this] { sampleLoad(); });
}

void RelayInstance::beginDrain() {
  if (state_ == InstanceState::Active) state_ = InstanceState::Draining;
}

void RelayInstance::stop() {
  state_ = InstanceState::Stopped;
  if (loadSampler_) loadSampler_->stop();
  // With the sampler stopped nothing would decay the last sample: a stopped
  // shard forwards nothing, so it reads idle.
  ewmaForwardRate_ = 0.0;
  // Pending fan-out batches captured the room shared_ptr; keeping room_
  // alive here lets in-flight deliveries complete after the shard stops.
}

RelayRoomSnapshot RelayInstance::evacuate() {
  RelayRoomSnapshot snap = room_->exportSnapshot();
  for (const RelayUserRecord& u : snap.users) room_->leave(u.id);
  stop();
  return snap;
}

void RelayInstance::adopt(const RelayRoomSnapshot& snap) {
  // Pre-size for the merged population before the joins land: an import
  // can double a shard, and a mid-import rehash of every column is exactly
  // the setup cost the bulk path avoids.
  room_->reserveUsers(userCount() + snap.users.size());
  room_->importSnapshot(snap);
}

double RelayInstance::utilization() const {
  const double cap = capacity_.forwardCapacityPerSec();
  return cap > 0.0 ? ewmaForwardRate_ / cap : 0.0;
}

void RelayInstance::sampleLoad() {
  const std::uint64_t total = room_->forwardedMessages();
  const std::uint64_t delta = total - lastForwardCount_;
  lastForwardCount_ = total;
  const double windowS = capacity_.loadSampleEvery.toSeconds();
  const double rate = windowS > 0.0 ? static_cast<double>(delta) / windowS : 0.0;
  const double a = capacity_.loadEwmaAlpha;
  ewmaForwardRate_ = a * rate + (1.0 - a) * ewmaForwardRate_;

  // Past the knee, queueing inflates processing delay roughly like an
  // M/M/1 residence time: over/(1-u), clamped so an overcommitted shard
  // degrades hard but the sim stays finite.
  const double u = utilization();
  const double over = std::max(0.0, u - capacity_.saturationKnee);
  double inflation = 1.0;
  if (over > 0.0) {
    inflation = 1.0 + over / std::max(0.02, 1.0 - std::min(u, 0.98));
  }
  inflation_ = std::min(inflation, capacity_.maxInflation);
  room_->setProvisioningFactor(baseProvisioning_ * inflation_);
}

}  // namespace msim::cluster
