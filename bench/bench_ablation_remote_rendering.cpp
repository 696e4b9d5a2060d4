// §6.3 ablation: remote rendering vs the shipping relay architecture.
// With the relay, per-user downlink and device load grow with the event
// size; with remote rendering they are pinned to the stream quality — at
// the price of a much higher base bitrate and per-user server GPU work.

#include "common.hpp"
#include "platform/remote_render.hpp"

using namespace msim;

namespace {

struct RrPoint {
  int users{0};
  double downMbps{0};
  double fps{0};
  double cpuPct{0};
  double serverGpu{0};
};

RrPoint runRemoteRenderPoint(int users, std::uint64_t seed) {
  Simulator sim{seed};
  Network net{sim};
  InternetFabric fabric{net};
  Node& serverNode = fabric.attachHost("rr-server", regions::usEast(),
                                       Ipv4Address(100, 3, 1, 200));
  RemoteRenderSpec spec;
  spec.serverGpuMsPerSec = 1000.0 * 8;  // an 8-GPU render node
  RemoteRenderServer server{serverNode, 6000, spec};

  std::vector<std::unique_ptr<HeadsetDevice>> headsets;
  std::vector<std::unique_ptr<RemoteRenderClient>> clients;
  std::vector<NetDevice*> captureDevs;
  for (int i = 0; i < users; ++i) {
    Node& node = fabric.attachHost("viewer" + std::to_string(i),
                                   regions::usEast(),
                                   Ipv4Address(10, 50, 0, static_cast<std::uint8_t>(i + 1)));
    captureDevs.push_back(node.devices().back().get());
    headsets.push_back(std::make_unique<HeadsetDevice>(sim, node, devices::quest2()));
    clients.push_back(std::make_unique<RemoteRenderClient>(
        *headsets.back(), Endpoint{serverNode.primaryAddress(), 6000},
        static_cast<std::uint64_t>(i + 1), spec));
    clients.back()->start();
  }

  // Count the first viewer's downlink bytes at its access device.
  auto bytes = std::make_shared<std::int64_t>(0);
  captureDevs[0]->addTap([bytes](const Packet& p, TapDir dir) {
    if (dir == TapDir::Ingress) *bytes += p.wireSize().toBytes();
  });

  sim.runFor(Duration::seconds(5));  // warm-up
  *bytes = 0;
  const TimePoint from = sim.now();
  sim.runFor(Duration::seconds(20));

  RrPoint p;
  p.users = users;
  p.downMbps = rateOf(ByteSize::bytes(*bytes), sim.now() - from).toMbps();
  const MetricsSample avg = headsets[0]->metrics().averageOver(from, sim.now());
  p.fps = avg.fps;
  p.cpuPct = avg.cpuUtilPct;
  p.serverGpu = server.serverGpuUtilization();
  return p;
}

}  // namespace

int main() {
  const int seeds = bench::seedCount(3);
  bench::header("§6.3 ablation — remote rendering vs relay forwarding",
                "§6.3: downlink and device load become independent of the "
                "number of users");

  std::printf("--- shipping architecture (Worlds relay) ---\n");
  TablePrinter relayTable{{"users", "down Mbps", "FPS", "CPU %"}};
  std::vector<SweepCell> cells;
  for (const int n : {2, 5, 10, 15}) {
    cells.push_back({platforms::worlds(), n, seeds, Duration::seconds(20)});
  }
  for (const SweepPoint& p : runUsersSweepCells(cells)) {
    relayTable.addRow({std::to_string(p.users), fmt(p.downMbps, 2), fmt(p.fps, 1),
                       fmt(p.cpuPct, 0)});
  }
  relayTable.print(std::cout);

  std::printf("\n--- remote rendering (28 Mbps stream, thin client) ---\n");
  TablePrinter rrTable{{"users", "down Mbps", "FPS", "CPU %", "server GPU x"}};
  for (const int n : {2, 5, 10, 15, 28}) {
    const RrPoint p = runRemoteRenderPoint(n, 51);
    rrTable.addRow({std::to_string(p.users), fmt(p.downMbps, 1), fmt(p.fps, 1),
                    fmt(p.cpuPct, 0), fmt(p.serverGpu, 2)});
  }
  rrTable.print(std::cout);

  std::printf(
      "\npaper checkpoints (§6.3): with remote rendering the per-user downlink\n"
      "and on-device load are flat in the number of users (the server renders\n"
      "only what is visible into one 2D stream) — but the base bitrate is\n"
      "cloud-gaming class (>25 Mbps vs <1 Mbps today), and the server must\n"
      "render one scene per user, so the cost moves to server GPUs.\n");
  return 0;
}
