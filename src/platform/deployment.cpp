#include "platform/deployment.hpp"

#include <algorithm>
#include <limits>

namespace msim {

namespace {

int regionOctet(const Region& r) {
  if (r.name == "us-east") return 1;
  if (r.name == "us-west") return 2;
  if (r.name == "europe") return 3;
  if (r.name == "us-north") return 4;
  return 5;
}

std::uint32_t providerBlock(const std::string& owner) {
  if (owner == "Microsoft") return addrplan::kMicrosoftBlock.value();
  if (owner == "Meta") return addrplan::kMetaBlock.value();
  if (owner == "AWS") return addrplan::kAwsBlock.value();
  if (owner == "Cloudflare") return addrplan::kCloudflareBlock.value();
  if (owner == "ANS") return addrplan::kAnsBlock.value();
  return addrplan::kAwsBlock.value();
}

const Region& nearestOf(const std::vector<Region>& candidates,
                        const Region& user) {
  const Region* best = &candidates.front();
  double bestKm = std::numeric_limits<double>::max();
  for (const Region& r : candidates) {
    const double km = greatCircleKm(user.location, r.location);
    if (km < bestKm) {
      bestKm = km;
      best = &r;
    }
  }
  return *best;
}

}  // namespace

std::uint8_t PlatformDeployment::nextHostOctet() {
  hostOctetCounter_ = hostOctetCounter_ >= 250 ? 10 : hostOctetCounter_ + 1;
  return static_cast<std::uint8_t>(hostOctetCounter_);
}

Ipv4Address PlatformDeployment::providerAddress(const std::string& owner,
                                                const Region& region,
                                                int host) const {
  return Ipv4Address{providerBlock(owner) |
                     (static_cast<std::uint32_t>(regionOctet(region)) << 8) |
                     static_cast<std::uint32_t>(host)};
}

PlatformDeployment::PlatformDeployment(Simulator& sim, Network& net,
                                       InternetFabric& fabric, PlatformSpec spec,
                                       std::vector<Region> serveRegions)
    : sim_{sim},
      net_{net},
      spec_{std::move(spec)},
      regions_{std::move(serveRegions)} {
  if (regions_.empty()) {
    regions_ = {regions::usEast(), regions::usWest(), regions::europe()};
  }
  room_ = std::make_shared<RelayRoom>(sim_, spec_.data);
  room_->startEvictionSweep();
  buildControl(fabric);
  buildData(fabric);
}

void PlatformDeployment::buildControl(InternetFabric& fabric) {
  const ControlSpec& control = spec_.control;
  auto makeSite = [&](const Region& region) -> ControlSite& {
    const Ipv4Address addr =
        providerAddress(control.owner, region, nextHostOctet());
    Node& node = fabric.attachHost(
        spec_.name + ".control." + region.name, region, addr);
    controlSites_.push_back(ControlSite{&node, region, nullptr});
    controlSites_.back().service =
        std::make_unique<ControlService>(node, spec_, kControlPort);
    controlAddrs_.push_back(addr);
    return controlSites_.back();
  };

  switch (control.placement) {
    case Placement::Anycast: {
      // Anycast providers (Cloudflare, ANS, Microsoft's front door) run POPs
      // everywhere — every vantage in Table 2 saw <5 ms.
      std::vector<Node*> replicas;
      for (const Region& r : regions::all()) replicas.push_back(makeSite(r).node);
      controlAnycast_ = Ipv4Address{providerBlock(control.owner) | (9u << 8) |
                                    nextHostOctet()};
      fabric.advertiseAnycast(controlAnycast_, replicas);
      controlAddrs_.push_back(controlAnycast_);
      break;
    }
    case Placement::NearestRegion:
      for (const Region& r : regions_) makeSite(r);
      break;
    case Placement::FixedUsWest:
      makeSite(regions::usWest());
      break;
    case Placement::FixedUsEast:
      makeSite(regions::usEast());
      break;
  }
}

void PlatformDeployment::buildData(InternetFabric& fabric) {
  const DataSpec& data = spec_.data;
  auto makeReplica = [&](const Region& region, int ordinal) -> DataReplica& {
    const Ipv4Address addr = providerAddress(data.owner, region, nextHostOctet());
    Node& node = fabric.attachHost(spec_.name + ".data." + region.name + "." +
                                       std::to_string(ordinal),
                                   region, addr);
    DataReplica entry;
    entry.node = &node;
    entry.region = region;
    dataReplicas_.push_back(std::move(entry));
    auto& replica = dataReplicas_.back();
    replica.server = data.protocol == DataProtocol::Udp
                         ? RelayServer::makeUdp(node, kDataPort, room_)
                         : RelayServer::makeTls(node, kDataPort, room_);
    if (data.protocol == DataProtocol::HttpsStream) {
      replica.voice = std::make_unique<RtpRelay>(node, kVoicePort);
    }
    replica.server->startMiscDownlink();
    dataAddrs_.push_back(addr);
    return replica;
  };

  const int replicas = data.sameServerForAllUsers ? 1 : data.replicasPerSite;
  switch (data.placement) {
    case Placement::Anycast: {
      std::vector<Node*> nodes;
      for (const Region& r : regions::all()) nodes.push_back(makeReplica(r, 0).node);
      dataAnycast_ =
          Ipv4Address{providerBlock(data.owner) | (9u << 8) | nextHostOctet()};
      fabric.advertiseAnycast(dataAnycast_, nodes);
      dataAddrs_.push_back(dataAnycast_);
      break;
    }
    case Placement::NearestRegion:
      for (const Region& r : regions_) {
        for (int i = 0; i < replicas; ++i) makeReplica(r, i);
      }
      break;
    case Placement::FixedUsWest:
      for (int i = 0; i < replicas; ++i) makeReplica(regions::usWest(), i);
      break;
    case Placement::FixedUsEast:
      for (int i = 0; i < replicas; ++i) makeReplica(regions::usEast(), i);
      break;
  }
}

Endpoint PlatformDeployment::controlEndpointFor(const Region& userRegion) const {
  switch (spec_.control.placement) {
    case Placement::Anycast:
      return Endpoint{controlAnycast_, kControlPort};
    case Placement::NearestRegion: {
      const Region& best = nearestOf(regions_, userRegion);
      for (const auto& site : controlSites_) {
        if (site.region.name == best.name) {
          return Endpoint{site.node->primaryAddress(), kControlPort};
        }
      }
      break;
    }
    case Placement::FixedUsWest:
    case Placement::FixedUsEast:
      break;
  }
  return Endpoint{controlSites_.front().node->primaryAddress(), kControlPort};
}

Endpoint PlatformDeployment::dataEndpointFor(const Region& userRegion,
                                             int userIndex) const {
  switch (spec_.data.placement) {
    case Placement::Anycast:
      return Endpoint{dataAnycast_, kDataPort};
    case Placement::NearestRegion: {
      const Region& best = nearestOf(regions_, userRegion);
      std::vector<const DataReplica*> local;
      for (const auto& rep : dataReplicas_) {
        if (rep.region.name == best.name) local.push_back(&rep);
      }
      if (!local.empty()) {
        const auto pick = spec_.data.sameServerForAllUsers
                              ? 0u
                              : static_cast<std::size_t>(userIndex) % local.size();
        return Endpoint{local[pick]->node->primaryAddress(), kDataPort};
      }
      break;
    }
    case Placement::FixedUsWest:
    case Placement::FixedUsEast: {
      const auto pick = spec_.data.sameServerForAllUsers
                            ? 0u
                            : static_cast<std::size_t>(userIndex) %
                                  dataReplicas_.size();
      return Endpoint{dataReplicas_[pick].node->primaryAddress(), kDataPort};
    }
  }
  return Endpoint{dataReplicas_.front().node->primaryAddress(), kDataPort};
}

bool PlatformDeployment::isControlAddress(Ipv4Address addr) const {
  return std::find(controlAddrs_.begin(), controlAddrs_.end(), addr) !=
         controlAddrs_.end();
}

bool PlatformDeployment::isDataAddress(Ipv4Address addr) const {
  return std::find(dataAddrs_.begin(), dataAddrs_.end(), addr) != dataAddrs_.end();
}

}  // namespace msim
