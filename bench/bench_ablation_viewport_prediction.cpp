// §6.1 ablation: viewport prediction lead vs missing content.
//
// The paper: "A key requirement of viewport-adaptive optimization is that the
// server should predict the future viewport of users… When the prediction is
// not accurate, this optimization may lead to missing content." Here the
// receiver keeps snap-turning while a crowd surrounds it; we sweep the
// server's prediction lead and report bandwidth saved vs visible-but-stale
// content.

#include "common.hpp"

using namespace msim;

namespace {

struct PredPoint {
  double leadMs{0};
  double savedPct{0};
  double staleRatio{0};
  double downKbps{0};
};

PredPoint runPoint(double leadMs, std::uint64_t seed) {
  PlatformSpec spec = platforms::altspaceVR();
  spec.data.viewportPredictionLeadMs = leadMs;

  Testbed bed{seed};
  bed.deploy(spec);
  constexpr int kUsers = 8;
  for (int i = 0; i < kUsers; ++i) {
    TestUserConfig cfg;
    cfg.wander = false;
    bed.addUser(cfg);
  }
  // The watcher stands in the middle of a ring of avatars and keeps turning;
  // whichever wedge the server guesses wrong produces stale visible content.
  auto& watcher = bed.user(0);
  watcher.client->motion().setPose(Pose{0, 0, 0});
  for (int i = 1; i < kUsers; ++i) {
    const double angle = 2.0 * M_PI * (i - 1) / (kUsers - 1);
    bed.user(i).client->motion().setPose(
        Pose{3.0 * std::cos(angle), 3.0 * std::sin(angle), 180.0});
    bed.user(i).client->setFaceTarget(0, 0);
  }
  DriverScript script;
  for (int i = 0; i < kUsers; ++i) {
    script.launch(Duration::zero(), i).join(Duration::zero(), i);
  }
  AutoDriver driver{bed};
  driver.play(script);
  // Fast smooth rotation (180°/s): the pose pipeline lags by ~150-200 ms,
  // so with no prediction the filter's wedge trails the user's real gaze by
  // more than the 26.5° safety margin — newly visible avatars arrive stale.
  PeriodicTask turner{bed.sim(), Duration::millis(100), [&] {
    Pose pose = watcher.client->motion().pose();
    pose.yawDeg = normalizeAngleDeg(pose.yawDeg + 18.0);
    watcher.client->motion().setPose(pose);
  }};
  bed.sim().runFor(Duration::seconds(120));

  PredPoint p;
  p.leadMs = leadMs;
  p.downKbps = watcher.capture->meanRate(Channel::DataDown, 20, 119).toKbps();
  const auto& room = *bed.deployment().room();
  const double total = static_cast<double>(
      (room.forwardedBytes() + room.viewportFilteredBytes()).toBytes());
  p.savedPct =
      100.0 * static_cast<double>(room.viewportFilteredBytes().toBytes()) / total;
  p.staleRatio = watcher.client->visibleStaleRatio();
  return p;
}

}  // namespace

int main() {
  bench::header("§6.1 ablation — viewport prediction lead vs missing content",
                "§6.1: the filter must predict the receiver's future viewport; "
                "wrong predictions = missing content");

  std::printf("(AltspaceVR-style filter, 8 users in a ring, receiver "
              "rotating smoothly at 180°/s)\n\n");
  TablePrinter table{{"prediction lead ms", "downlink Kbps", "bytes saved %",
                      "visible-stale ratio"}};
  for (const double lead : {0.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
    const PredPoint p = runPoint(lead, 71);
    table.addRow({fmt(p.leadMs, 0), fmt(p.downKbps, 1), fmt(p.savedPct, 1),
                  fmt(p.staleRatio, 3)});
  }
  table.print(std::cout);
  std::printf(
      "\ntakeaway: a modest lead compensates for the delivery delay and cuts\n"
      "the stale-content a turning user sees; over-predicting re-admits data\n"
      "(lower savings) and eventually guesses wrong again — the §6.1\n"
      "trade-off between bandwidth saved and missing content.\n");
  return 0;
}
