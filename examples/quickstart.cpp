// Quickstart: simulate two users meeting in a social VR platform and
// measure what the paper measured — throughput by channel, frame rate,
// device utilization, and end-to-end action latency.
//
//   ./quickstart [platform]     platform: altspacevr|hubs|recroom|vrchat|worlds

#include <cstdio>
#include <string>

#include "core/experiments.hpp"

using namespace msim;

namespace {
PlatformSpec pickPlatform(const std::string& name) {
  if (name == "altspacevr") return platforms::altspaceVR();
  if (name == "hubs") return platforms::hubs();
  if (name == "recroom") return platforms::recRoom();
  if (name == "vrchat") return platforms::vrchat();
  return platforms::worlds();
}
}  // namespace

int main(int argc, char** argv) {
  const PlatformSpec spec = pickPlatform(argc > 1 ? argv[1] : "worlds");
  std::printf("== quickstart: two users on %s ==\n\n", spec.name.c_str());

  // 1. Build the Fig. 1 testbed: two Quest 2 users behind their own WiFi
  //    APs on a U.S. east-coast campus, plus the platform's server fleet.
  Testbed bed{/*seed=*/42};
  bed.deploy(spec);
  TestUser& alice = bed.addUser();
  TestUser& bob = bed.addUser();

  // Face each other two meters apart, like the paper's chat workload.
  alice.client->motion().setPose(Pose{0, 0, 0});
  bob.client->motion().setPose(Pose{2, 0, 180});
  alice.client->setFaceTarget(2, 0);
  bob.client->setFaceTarget(0, 0);

  // 2. Script the session (AutoDriver, §9): launch the apps (welcome page
  //    + background downloads), then join a private event at 10 s and talk.
  DriverScript script =
      launchThenJoinScript(2, Duration::zero(), Duration::seconds(10));
  for (int u = 0; u < 2; ++u) {
    script.mute(Duration::seconds(10), u, false);  // quickstart users speak
  }
  AutoDriver driver{bed};
  driver.play(script);

  // 3. Probe end-to-end latency with the paper's finger-touch method.
  LatencyProbe probe{bed, alice, bob};
  probe.scheduleProbes(TimePoint::epoch() + Duration::seconds(30), 10);

  bed.sim().runFor(Duration::seconds(60));

  // 4. Report. Everything below is what `Wireshark on the AP` + the OVR
  //    Metrics Tool + the screen recordings would tell you.
  const auto& cap = *alice.capture;
  std::printf("Alice's AP capture, seconds 30-59 of the event:\n");
  std::printf("  data-channel uplink:    %7.1f Kbps\n",
              cap.meanRate(Channel::DataUp, 30, 59).toKbps());
  std::printf("  data-channel downlink:  %7.1f Kbps\n",
              cap.meanRate(Channel::DataDown, 30, 59).toKbps());
  std::printf("  control-channel up/down:%7.1f / %.1f Kbps\n",
              cap.meanRate(Channel::ControlUp, 30, 59).toKbps(),
              cap.meanRate(Channel::ControlDown, 30, 59).toKbps());

  const MetricsSample dev = alice.headset->metrics().averageOver(
      TimePoint::epoch() + Duration::seconds(30), bed.sim().now());
  std::printf("Alice's Quest 2 (OVR metrics):\n");
  std::printf("  FPS %.1f | CPU %.0f%% | GPU %.0f%% | memory %.2f GB | "
              "battery %.1f%%\n",
              dev.fps, dev.cpuUtilPct, dev.gpuUtilPct, dev.memoryGB,
              alice.headset->metrics().batteryPct());

  const LatencyStats lat = probe.collect();
  std::printf("End-to-end latency (Alice's action -> Bob's display):\n");
  std::printf("  E2E %.1f ms (sender %.1f + network %.1f + server %.1f + "
              "receiver %.1f)\n",
              lat.e2e.mean(), lat.sender.mean(), lat.network.mean(),
              lat.server.mean(), lat.receiver.mean());
  std::printf("\nTry: %s hubs   (web stack + west-coast servers => ~2x the "
              "latency)\n",
              argc > 0 ? argv[0] : "quickstart");
  return 0;
}
