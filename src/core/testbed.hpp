#pragma once

// The Fig. 1 testbed: users on headsets behind per-user WiFi APs attached to
// a campus network, talking to platform servers across the simulated
// internet. Netem shaping applies at the AP, exactly where the paper ran
// `tc-netem` (§8).

#include <memory>
#include <vector>

#include "core/capture.hpp"
#include "platform/client_app.hpp"
#include "platform/deployment.hpp"

namespace msim {

/// Per-user device + network attachment + capture.
struct TestUser {
  int index{0};
  Node* headsetNode{nullptr};
  Node* ap{nullptr};
  NetDevice* headsetUplinkDev{nullptr};  // headset -> AP
  NetDevice* apWifiDev{nullptr};         // AP -> headset (downlink egress)
  NetDevice* apCampusDev{nullptr};       // AP -> campus (uplink egress)
  std::unique_ptr<HeadsetDevice> headset;
  std::unique_ptr<PlatformClient> client;
  std::unique_ptr<CaptureAgent> capture;

  /// tc-netem downlink shaping (ingress policing on the AP's campus link:
  /// applied on the core's egress toward the AP so the AP capture sees the
  /// post-shaping traffic, as the paper's Fig. 12 plots do).
  [[nodiscard]] Netem& downlinkNetem() { return apCampusDev->peer()->netem(); }
  /// tc-netem on the AP, uplink direction (AP -> campus egress).
  [[nodiscard]] Netem& uplinkNetem() { return apCampusDev->netem(); }
};

/// Options when adding a user.
struct TestUserConfig {
  Region region = regions::usEast();
  DeviceSpec device = devices::quest2();
  bool muted{true};
  bool wander{true};
  bool firstInstall{true};
  /// Device clocks drift; the harness re-syncs them like the paper did.
  Duration clockOffset = Duration::zero();
  bool randomClockOffset{true};
};

/// Owns the whole simulated world for one experiment run.
class Testbed {
 public:
  explicit Testbed(std::uint64_t seed = 1);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] InternetFabric& fabric() { return fabric_; }

  /// Deploys a platform's servers; must precede addUser().
  PlatformDeployment& deploy(const PlatformSpec& spec,
                             std::vector<Region> serveRegions = {});

  /// Creates a user (headset + AP + capture + platform client).
  TestUser& addUser(const TestUserConfig& cfg = {});

  [[nodiscard]] std::vector<std::unique_ptr<TestUser>>& users() { return users_; }
  [[nodiscard]] TestUser& user(std::size_t i) { return *users_.at(i); }
  [[nodiscard]] PlatformDeployment& deployment() { return *deployment_; }

  /// Fresh action ids for the latency probe.
  [[nodiscard]] std::uint64_t nextActionId() { return nextAction_++; }

 private:
  Simulator sim_;
  Network net_;
  InternetFabric fabric_;
  std::unique_ptr<PlatformDeployment> deployment_;
  std::vector<std::unique_ptr<TestUser>> users_;
  int nextUserIndex_{0};
  std::uint64_t nextAction_{1};
};

}  // namespace msim
