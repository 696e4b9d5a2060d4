#include "core/testbed.hpp"

namespace msim {

namespace {
/// WiFi hop: ~2 ms, plenty of rate for social VR.
LinkConfig wifiLink() {
  LinkConfig cfg;
  cfg.rate = DataRate::mbps(200);
  cfg.delay = Duration::millis(2);
  cfg.queueLimit = ByteSize::kilobytes(512);
  return cfg;
}
}  // namespace

Testbed::Testbed(std::uint64_t seed) : sim_{seed}, net_{sim_}, fabric_{net_} {}

PlatformDeployment& Testbed::deploy(const PlatformSpec& spec,
                                    std::vector<Region> serveRegions) {
  deployment_ = std::make_unique<PlatformDeployment>(
      sim_, net_, fabric_, spec, std::move(serveRegions));
  return *deployment_;
}

TestUser& Testbed::addUser(const TestUserConfig& cfg) {
  const int index = nextUserIndex_++;
  auto user = std::make_unique<TestUser>();
  user->index = index;

  // AP attached to the campus/fabric in the user's region.
  const auto apAddr = Ipv4Address{
      addrplan::kCampusBlock.value() |
      (static_cast<std::uint32_t>(index + 1) << 8) | 1u};
  user->ap = &fabric_.attachHost("ap" + std::to_string(index + 1), cfg.region,
                                 apAddr);
  // The AP's campus-side device is the one the fabric just wired.
  user->apCampusDev = user->ap->devices().back().get();

  // Headset behind the AP over WiFi.
  const auto headsetAddr = Ipv4Address{
      addrplan::kCampusBlock.value() |
      (static_cast<std::uint32_t>(index + 1) << 8) | 2u};
  user->headsetNode = &net_.addNode("u" + std::to_string(index + 1));
  user->headsetNode->addAddress(headsetAddr);
  auto [headsetDev, apWifiDev] =
      Link::connect(*user->headsetNode, *user->ap, wifiLink());
  user->headsetUplinkDev = &headsetDev;
  user->apWifiDev = &apWifiDev;
  user->headsetNode->setDefaultRoute(headsetDev);
  user->ap->addHostRoute(headsetAddr, apWifiDev);
  // The fabric routes the headset's address toward its AP, which forwards
  // over WiFi — so all server traffic crosses the captured campus device.
  fabric_.addHostAlias(*user->ap, headsetAddr);

  Duration offset = cfg.clockOffset;
  if (cfg.randomClockOffset && offset.isZero()) {
    offset = Duration::millis(sim_.rng().uniform(-400.0, 400.0));
  }
  user->headset = std::make_unique<HeadsetDevice>(sim_, *user->headsetNode,
                                                  cfg.device, offset);

  ClientConfig clientCfg;
  clientCfg.userId = static_cast<std::uint64_t>(index + 1);
  clientCfg.userIndex = index;
  clientCfg.muted = cfg.muted;
  clientCfg.wander = cfg.wander;
  clientCfg.firstInstall = cfg.firstInstall;
  clientCfg.region = cfg.region;
  user->client =
      std::make_unique<PlatformClient>(*user->headset, *deployment_, clientCfg);

  user->capture =
      std::make_unique<CaptureAgent>(*user->apCampusDev, *deployment_);

  users_.push_back(std::move(user));
  return *users_.back();
}

}  // namespace msim
