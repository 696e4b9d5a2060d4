#pragma once

// Deploys a platform's server tiers onto the simulated internet per its
// placement spec (Table 2), and answers "which server does a user in region
// R talk to?" — the question the paper answered with DNS, WHOIS, ping and
// traceroute.

#include <memory>
#include <vector>

#include "geo/dns.hpp"
#include "geo/fabric.hpp"
#include "geo/whois.hpp"
#include "platform/control.hpp"
#include "platform/relay.hpp"
#include "platform/rtp_relay.hpp"

namespace msim {

/// All servers of one platform on one fabric.
class PlatformDeployment {
 public:
  /// Builds control and data tiers in `serveRegions` (defaults to
  /// us-east / us-west / europe, matching the providers' footprints).
  PlatformDeployment(Simulator& sim, Network& net, InternetFabric& fabric,
                     PlatformSpec spec,
                     std::vector<Region> serveRegions = {});

  PlatformDeployment(const PlatformDeployment&) = delete;
  PlatformDeployment& operator=(const PlatformDeployment&) = delete;

  [[nodiscard]] const PlatformSpec& spec() const { return spec_; }

  /// Control endpoint a client in `userRegion` is steered to.
  [[nodiscard]] Endpoint controlEndpointFor(const Region& userRegion) const;

  /// Data endpoint for the `userIndex`-th user in `userRegion` (load
  /// balancing may hand different users different replicas, §4.2).
  [[nodiscard]] Endpoint dataEndpointFor(const Region& userRegion,
                                         int userIndex) const;

  /// The shared event/room state (one social event per deployment).
  [[nodiscard]] const std::shared_ptr<RelayRoom>& room() const { return room_; }

  /// Classifier support (the capture agent maps server addresses to
  /// channels the way the paper mapped hostnames/WHOIS).
  [[nodiscard]] bool isControlAddress(Ipv4Address addr) const;
  [[nodiscard]] bool isDataAddress(Ipv4Address addr) const;

  [[nodiscard]] const std::vector<Ipv4Address>& controlAddresses() const {
    return controlAddrs_;
  }
  [[nodiscard]] const std::vector<Ipv4Address>& dataAddresses() const {
    return dataAddrs_;
  }

  /// The UDP/TLS port the data tier listens on.
  static constexpr std::uint16_t kDataPort = 5055;
  static constexpr std::uint16_t kControlPort = 443;
  static constexpr std::uint16_t kVoicePort = 5056;

 private:
  [[nodiscard]] Ipv4Address providerAddress(const std::string& owner,
                                            const Region& region, int host) const;
  /// Deterministic per-deployment host-octet allocator (addresses are
  /// identity, not behaviour). Instance-scoped so concurrent seed-sweep
  /// runs assign identical addresses regardless of thread interleaving.
  std::uint8_t nextHostOctet();

  struct DataReplica {
    Node* node{nullptr};
    Region region;
    std::unique_ptr<RelayServer> server;
    /// WebRTC-style voice SFU (Hubs): answers RTCP so clients can measure
    /// RTT the way the paper did, and forwards voice frames to all peers.
    std::unique_ptr<RtpRelay> voice;
  };
  struct ControlSite {
    Node* node{nullptr};
    Region region;
    std::unique_ptr<ControlService> service;
  };

  void buildControl(InternetFabric& fabric);
  void buildData(InternetFabric& fabric);

  Simulator& sim_;
  Network& net_;
  PlatformSpec spec_;
  std::vector<Region> regions_;
  std::shared_ptr<RelayRoom> room_;
  int hostOctetCounter_{9};

  std::vector<ControlSite> controlSites_;
  std::vector<DataReplica> dataReplicas_;
  Ipv4Address controlAnycast_;
  Ipv4Address dataAnycast_;
  std::vector<Ipv4Address> controlAddrs_;
  std::vector<Ipv4Address> dataAddrs_;
};

}  // namespace msim
