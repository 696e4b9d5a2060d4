#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>

#include "core/seedsweep.hpp"

namespace msim {

namespace {

TestUserConfig chatUser() {
  TestUserConfig cfg;
  cfg.muted = true;
  cfg.wander = false;
  return cfg;
}

void placeChatPair(TestUser& u1, TestUser& u2) {
  u1.client->motion().setPose(Pose{0.0, 0.0, 0.0});
  u2.client->motion().setPose(Pose{2.0, 0.0, 180.0});
  u1.client->setFaceTarget(2.0, 0.0);
  u2.client->setFaceTarget(0.0, 0.0);
}

}  // namespace

DriverScript launchThenJoinScript(int users, Duration launchAt,
                                  Duration firstJoin, Duration joinEvery) {
  DriverScript s;
  for (int i = 0; i < users; ++i) s.launch(launchAt, i);
  for (int i = 0; i < users; ++i) s.join(firstJoin + joinEvery * i, i);
  return s;
}

void arrangeUsersForSweep(Testbed& bed) {
  auto& users = bed.users();
  if (users.empty()) return;
  // U1 stands west of the crowd looking east; everyone else is inside both
  // U1's optical FoV (97°) and the server-side wedge (150°).
  users[0]->client->motion().setPose(Pose{-3.5, 0.0, 0.0});
  const std::size_t n = users.size() - 1;
  for (std::size_t i = 1; i < users.size(); ++i) {
    const double frac = n > 1 ? static_cast<double>(i - 1) / static_cast<double>(n - 1)
                              : 0.5;
    const double angle = (-35.0 + 70.0 * frac) * M_PI / 180.0;
    const double radius = 2.5 + 1.5 * ((i - 1) % 3);
    const double x = -3.5 + radius * std::cos(angle);
    const double y = radius * std::sin(angle);
    users[i]->client->motion().setPose(Pose{x, y, 180.0});
    users[i]->client->setFaceTarget(-3.5, 0.0);
  }
}

// ---------------------------------------------------------------- Table 3

TwoUserThroughputRow runTwoUserThroughput(const PlatformSpec& spec, int seeds) {
  struct RunResult {
    double upKbps{0.0};
    double downKbps{0.0};
    double avatarKbps{0.0};
  };
  // Independent runs execute on the seed-sweep pool; the reduction below is
  // serial and in seed order, so results match a single-threaded sweep.
  const auto runs = runSeedSweep(defaultSeeds(seeds), [&spec](std::uint64_t seed) {
    Testbed bed{seed};
    bed.deploy(spec);
    TestUser& u1 = bed.addUser(chatUser());
    TestUser& u2 = bed.addUser(chatUser());
    placeChatPair(u1, u2);
    AutoDriver driver{bed};
    driver.play(twoUserThroughputScript());
    bed.sim().runFor(Duration::seconds(120));

    const auto& cap = *u1.capture;
    const double tAlone = cap.meanRate(Channel::DataDown, 15, 40).toKbps();
    const double tBoth = cap.meanRate(Channel::DataDown, 55, 115).toKbps();
    RunResult r;
    r.upKbps = cap.meanRate(Channel::DataUp, 55, 115).toKbps();
    r.downKbps = tBoth;
    r.avatarKbps = tBoth - tAlone;
    return r;
  });
  RunningStats up;
  RunningStats down;
  RunningStats avatar;
  for (const RunResult& r : runs) {
    up.add(r.upKbps);
    down.add(r.downKbps);
    avatar.add(r.avatarKbps);
  }
  TwoUserThroughputRow row;
  row.platform = spec.name;
  row.upKbps = up.mean();
  row.upStd = up.stddev();
  row.downKbps = down.mean();
  row.downStd = down.stddev();
  row.resWidth = spec.perf.renderWidth;
  row.resHeight = spec.perf.renderHeight;
  row.avatarKbps = avatar.mean();
  row.avatarStd = avatar.stddev();
  return row;
}

DriverScript twoUserThroughputScript() {
  // 5-45 s is U1 alone: the downlink baseline T (server misc only), §5.2.
  return launchThenJoinScript(2, Duration::zero(), Duration::seconds(5),
                              Duration::seconds(40));
}

// ------------------------------------------------------------------ Fig. 2

ChannelTimeline runChannelTimeline(const PlatformSpec& spec, std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser(chatUser());
  TestUser& u2 = bed.addUser(chatUser());
  placeChatPair(u1, u2);
  AutoDriver driver{bed};
  driver.play(channelTimelineScript());
  bed.sim().runFor(Duration::seconds(180));

  ChannelTimeline out;
  out.controlUpKbps = u1.capture->series(Channel::ControlUp).ratesKbps(180);
  out.controlDownKbps = u1.capture->series(Channel::ControlDown).ratesKbps(180);
  out.dataUpKbps = u1.capture->series(Channel::DataUp).ratesKbps(180);
  out.dataDownKbps = u1.capture->series(Channel::DataDown).ratesKbps(180);
  return out;
}

DriverScript channelTimelineScript() {
  return launchThenJoinScript(2, Duration::seconds(2), Duration::seconds(90));
}

// ------------------------------------------------------------------ Fig. 3

ForwardingCorrelation runForwardingCorrelation(const PlatformSpec& spec,
                                               std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser(chatUser());
  TestUser& u2 = bed.addUser(chatUser());
  placeChatPair(u1, u2);
  AutoDriver driver{bed};
  driver.play(forwardingCorrelationScript());
  bed.sim().runFor(Duration::seconds(130));

  const auto u1Up = u1.capture->series(Channel::DataUp).ratesKbps(130);
  const auto u2Down = u2.capture->series(Channel::DataDown).ratesKbps(130);
  ForwardingCorrelation out;
  RunningStats upStats;
  RunningStats downStats;
  for (std::size_t sec = 20; sec < 120; ++sec) {
    out.u1UpKbps.push_back(u1Up[sec]);
    out.u2DownKbps.push_back(u2Down[sec]);
    upStats.add(u1Up[sec]);
    downStats.add(u2Down[sec]);
  }
  out.correlation = pearsonCorrelation(out.u1UpKbps, out.u2DownKbps);
  out.meanUpKbps = upStats.mean();
  out.meanDownKbps = downStats.mean();
  return out;
}

DriverScript forwardingCorrelationScript() {
  return launchThenJoinScript(2, Duration::zero(), Duration::seconds(5));
}

// ------------------------------------------------------------------ Fig. 6

JoinTimeline runJoinTimeline(const PlatformSpec& spec, Fig6Variant variant,
                             std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  std::vector<TestUser*> users;
  for (int i = 0; i < 5; ++i) users.push_back(&bed.addUser(chatUser()));

  // U1 at the centre; the others gather east of it.
  users[0]->client->motion().setPose(
      Pose{0.0, 0.0, variant == Fig6Variant::FacingJoiners ? 0.0 : 180.0});
  for (int i = 1; i < 5; ++i) {
    const double y = -1.5 + (i - 1);
    users[i]->client->motion().setPose(Pose{3.0 + 0.4 * i, y, 180.0});
    users[i]->client->setFaceTarget(0.0, 0.0);
  }

  AutoDriver driver{bed};
  driver.play(joinTimelineScript());
  bed.sim().runFor(Duration::seconds(300));

  JoinTimeline out;
  out.upKbps = users[0]->capture->series(Channel::DataUp).ratesKbps(300);
  out.downKbps = users[0]->capture->series(Channel::DataDown).ratesKbps(300);
  return out;
}

DriverScript joinTimelineScript() {
  DriverScript s;
  for (int i = 0; i < 5; ++i) s.launch(Duration::zero(), i);
  s.join(Duration::seconds(1), 0);
  for (int i = 1; i < 5; ++i) s.join(Duration::seconds(50 * i), i);
  // At 250 s U1 turns 180°: away from the crowd (Exp 1) or toward it (Exp 2).
  s.snapTurn(Duration::seconds(250), 0, 8);
  return s;
}

// ----------------------------------------------------------------- Figs. 7-9

std::vector<SweepPoint> runUsersSweepCells(const std::vector<SweepCell>& cells) {
  // One flat job list of every (cell, seed) run. Slots are cell-major in
  // seed order; the pool takes the jobs longest-first, which shapes wall
  // time only. A run simulates ~10 s of joins plus its window, and every
  // client receives every other user's stream, so a simulated second costs
  // about users squared.
  struct Job { const SweepCell* cell; std::uint64_t seed; std::size_t slot; };
  std::vector<Job> jobs;
  for (const SweepCell& cell : cells) {
    for (const std::uint64_t seed : defaultSeeds(cell.seeds)) {
      jobs.push_back(Job{&cell, seed, jobs.size()});
    }
  }
  const auto cost = [](const Job& j) {
    return (10.0 + j.cell->measureFor.toSeconds()) * j.cell->users * j.cell->users;
  };
  std::stable_sort(jobs.begin(), jobs.end(),
                   [&](const Job& a, const Job& b) { return cost(a) > cost(b); });

  struct RunResult {
    double downMbps{0.0};
    double upMbps{0.0};
    MetricsSample avg;
    double batteryDropPct{0.0};
  };
  std::vector<RunResult> runs(jobs.size());
  runIndexedTasks(jobs.size(), [&](std::size_t job) {
    const int users = jobs[job].cell->users;
    const Duration measureFor = jobs[job].cell->measureFor;
    Testbed bed{jobs[job].seed};
    bed.deploy(jobs[job].cell->spec);
    for (int i = 0; i < users; ++i) bed.addUser(chatUser());
    arrangeUsersForSweep(bed);
    AutoDriver driver{bed};
    driver.play(usersSweepScript(users));
    const double settleSec = 2.0 + 0.5 * users + 8.0;
    const TimePoint from = TimePoint::epoch() + Duration::seconds(settleSec);
    const TimePoint to = from + measureFor;
    bed.sim().runFor(Duration::seconds(settleSec) + measureFor);

    auto& u1 = bed.user(0);
    const auto firstBin = static_cast<std::size_t>(settleSec);
    const auto lastBin =
        static_cast<std::size_t>(settleSec + measureFor.toSeconds()) - 1;
    RunResult& r = runs[jobs[job].slot];
    r.downMbps =
        u1.capture->meanRate(Channel::DataDown, firstBin, lastBin).toMbps();
    r.upMbps =
        u1.capture->meanRate(Channel::DataUp, firstBin, lastBin).toMbps();
    r.avg = u1.headset->metrics().averageOver(from, to);
    r.batteryDropPct = 100.0 - u1.headset->metrics().batteryPct();
  });

  std::vector<SweepPoint> points;
  points.reserve(cells.size());
  auto run = runs.begin();
  for (const SweepCell& cell : cells) {
    RunningStats down;
    RunningStats upStats;
    RunningStats fps;
    RunningStats cpu;
    RunningStats gpu;
    RunningStats mem;
    RunningStats battery;
    for (int s = 0; s < cell.seeds; ++s, ++run) {
      down.add(run->downMbps);
      upStats.add(run->upMbps);
      fps.add(run->avg.fps);
      cpu.add(run->avg.cpuUtilPct);
      gpu.add(run->avg.gpuUtilPct);
      mem.add(run->avg.memoryGB);
      battery.add(run->batteryDropPct);
    }
    SweepPoint& p = points.emplace_back();
    p.users = cell.users;
    p.downMbps = down.mean();
    p.downMbpsCi = down.ci95HalfWidth();
    p.upMbps = upStats.mean();
    p.fps = fps.mean();
    p.fpsCi = fps.ci95HalfWidth();
    p.cpuPct = cpu.mean();
    p.cpuCi = cpu.ci95HalfWidth();
    p.gpuPct = gpu.mean();
    p.gpuCi = gpu.ci95HalfWidth();
    p.memGB = mem.mean();
    p.batteryDropPct = battery.mean();
  }
  return points;
}

SweepPoint runUsersSweepPoint(const PlatformSpec& spec, int users, int seeds,
                              Duration measureFor) {
  return runUsersSweepCells({SweepCell{spec, users, seeds, measureFor}}).front();
}

DriverScript usersSweepScript(int users) {
  return launchThenJoinScript(users, Duration::zero(), Duration::seconds(2),
                              Duration::millis(500));
}

// ------------------------------------------------------- Table 4 / Fig. 11

LatencyRow runLatencyExperiment(const PlatformSpec& spec, int users, int probes,
                                int seeds) {
  const auto runs = runSeedSweep(
      defaultSeeds(seeds), [&spec, users, probes](std::uint64_t seed) {
    Testbed bed{seed};
    bed.deploy(spec);
    for (int i = 0; i < users; ++i) bed.addUser(chatUser());
    // U1 and U2 face each other up close (their fingers touch); extras
    // stand nearby, visible to both.
    auto& u1 = bed.user(0);
    auto& u2 = bed.user(1);
    u1.client->motion().setPose(Pose{0.0, 0.0, 0.0});
    u2.client->motion().setPose(Pose{1.0, 0.0, 180.0});
    u1.client->setFaceTarget(1.0, 0.0);
    u2.client->setFaceTarget(0.0, 0.0);
    for (int i = 2; i < users; ++i) {
      const double y = (i % 2 == 0 ? 1.0 : -1.0) * (1.0 + i * 0.3);
      bed.user(i).client->motion().setPose(Pose{0.5, y, 90.0});
      bed.user(i).client->setFaceTarget(0.5, 0.0);
    }

    AutoDriver driver{bed};
    driver.play(latencyExperimentScript(users));

    LatencyProbe probe{bed, u1, u2};
    const auto firstProbe = TimePoint::epoch() + Duration::seconds(users + 12);
    probe.scheduleProbes(firstProbe, probes, Duration::seconds(2));
    bed.sim().runFor((firstProbe - TimePoint::epoch()) +
                     Duration::seconds(2.0 * probes + 5));

    return probe.collect();
  });
  LatencyStats merged;
  for (const LatencyStats& stats : runs) {
    merged.e2e.merge(stats.e2e);
    merged.sender.merge(stats.sender);
    merged.server.merge(stats.server);
    merged.network.merge(stats.network);
    merged.receiver.merge(stats.receiver);
  }
  LatencyRow row;
  row.platform = spec.name;
  row.users = users;
  row.e2eMs = merged.e2e.mean();
  row.e2eStd = merged.e2e.stddev();
  row.senderMs = merged.sender.mean();
  row.senderStd = merged.sender.stddev();
  row.receiverMs = merged.receiver.mean();
  row.receiverStd = merged.receiver.stddev();
  row.serverMs = merged.server.mean();
  row.serverStd = merged.server.stddev();
  return row;
}

DriverScript latencyExperimentScript(int users) {
  return launchThenJoinScript(users, Duration::zero(), Duration::seconds(2),
                              Duration::seconds(1));
}

// --------------------------------------------------------------- §6.1 width

namespace {
constexpr double kViewportStepSeconds = 20.0;
}  // namespace

ViewportDetection runViewportDetection(const PlatformSpec& spec,
                                       std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser(chatUser());
  TestUser& u2 = bed.addUser(chatUser());
  // U2 stands east of U1; U1 starts with its back to U2.
  u1.client->motion().setPose(Pose{0.0, 0.0, 180.0});
  u2.client->motion().setPose(Pose{3.0, 0.0, 180.0});
  u2.client->setFaceTarget(0.0, 0.0);
  AutoDriver driver{bed};
  driver.play(viewportDetectionScript());
  bed.sim().runFor(Duration::seconds(20.0 + kViewportStepSeconds * 16));

  ViewportDetection out;
  const auto& down = u1.capture->series(Channel::DataDown);
  double maxRate = 0.0;
  for (int step = 0; step < 16; ++step) {
    const auto from =
        static_cast<std::size_t>(20.0 + kViewportStepSeconds * step + 4);
    const auto to =
        static_cast<std::size_t>(20.0 + kViewportStepSeconds * (step + 1) - 2);
    const double kbps = down.meanRate(from, to).toKbps();
    out.downKbpsPerStep.push_back(kbps);
    maxRate = std::max(maxRate, kbps);
  }
  // Forwarding-on steps sit above the midpoint between the quiet floor
  // (misc-only downlink) and the full rate (misc + U2's avatar data).
  double minRate = maxRate;
  for (const double kbps : out.downKbpsPerStep) minRate = std::min(minRate, kbps);
  const double threshold = (maxRate + minRate) / 2.0;
  int onSteps = 0;
  for (const double kbps : out.downKbpsPerStep) {
    if (kbps > threshold) ++onSteps;
  }
  // With no filter every step forwards; report the full circle.
  out.inferredWidthDeg = (maxRate - minRate) < 0.2 * maxRate
                             ? 360.0
                             : onSteps * MotionModel::kTurnStepDeg;
  return out;
}

DriverScript viewportDetectionScript() {
  DriverScript s = launchThenJoinScript(2, Duration::zero(), Duration::zero());
  for (int step = 0; step < 16; ++step) {
    s.snapTurn(Duration::seconds(20.0 + kViewportStepSeconds * step), 0, 1);
  }
  return s;
}

// ------------------------------------------------------------- Fig. 12 / 13

DisruptionTimeline runWorldsDisruption(DisruptionKind kind, std::uint64_t seed) {
  const PlatformSpec spec = platforms::worlds();
  Testbed bed{seed};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser(chatUser());
  TestUser& u2 = bed.addUser(chatUser());
  placeChatPair(u1, u2);
  AutoDriver driver{bed};
  driver.play(worldsDisruptionScript());

  DisruptionTimeline out;
  const TimePoint t0 = TimePoint::epoch();
  double totalSec = 300.0;
  switch (kind) {
    case DisruptionKind::DownlinkBandwidth:
      Disruptor{bed, u1, Disruptor::Direction::Downlink}.play(
          t0 + Duration::seconds(40), Disruptor::downlinkBandwidthStages());
      totalSec = 340.0;
      break;
    case DisruptionKind::UplinkBandwidth:
      Disruptor{bed, u1, Disruptor::Direction::Uplink}.play(
          t0 + Duration::seconds(40), Disruptor::uplinkBandwidthStages());
      totalSec = 340.0;
      break;
    case DisruptionKind::TcpUplinkOnly:
      Disruptor{bed, u1, Disruptor::Direction::Uplink}.play(
          t0 + Duration::seconds(60), Disruptor::tcpOnlyStages());
      totalSec = 360.0;
      break;
  }

  // Poll the frozen flag second by second.
  auto frozeAt = std::make_shared<double>(-1.0);
  PeriodicTask freezeWatch{bed.sim(), Duration::seconds(1), [&, frozeAt] {
                             if (*frozeAt < 0 && u1.client->screenFrozen()) {
                               *frozeAt = bed.sim().now().toSeconds();
                             }
                           }};
  bed.sim().runFor(Duration::seconds(totalSec));

  const auto bins = static_cast<std::size_t>(totalSec);
  out.udpUpKbps = u1.capture->protoSeries(IpProto::Udp, true).ratesKbps(bins);
  out.udpDownKbps = u1.capture->protoSeries(IpProto::Udp, false).ratesKbps(bins);
  out.tcpUpKbps = u1.capture->protoSeries(IpProto::Tcp, true).ratesKbps(bins);
  for (const MetricsSample& s : u1.headset->metrics().samples()) {
    out.cpuPct.push_back(s.cpuUtilPct);
    out.gpuPct.push_back(s.gpuUtilPct);
    out.fps.push_back(s.fps);
    out.staleFps.push_back(s.staleFramesPerSec);
  }
  out.screenFrozeAtEnd = u1.client->screenFrozen();
  out.frozeAtSec = *frozeAt;
  return out;
}

DriverScript worldsDisruptionScript() {
  DriverScript s = launchThenJoinScript(2, Duration::zero(), Duration::zero());
  s.enterGame(Duration::seconds(5), 0).enterGame(Duration::seconds(5), 1);
  return s;
}

// -------------------------------------------------------------------- §8.2

PerceptionRow runLatencyLossPerception(const PlatformSpec& spec,
                                       double addedLatencyMs, double lossPct,
                                       std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser(chatUser());
  TestUser& u2 = bed.addUser(chatUser());
  placeChatPair(u1, u2);
  const bool game = spec.game.available && !spec.game.gameUplink.isZero();
  AutoDriver driver{bed};
  driver.play(latencyLossPerceptionScript(game));
  // One stage from 8 s on, both ways; its reset falls after the run ends.
  DisruptionStage impaired;
  impaired.config.delay = Duration::millis(addedLatencyMs);
  impaired.config.lossRate = lossPct / 100.0;
  for (const auto dir :
       {Disruptor::Direction::Uplink, Disruptor::Direction::Downlink}) {
    Disruptor{bed, u1, dir}.play(TimePoint::epoch() + Duration::seconds(8),
                                 {impaired});
  }

  LatencyProbe probe{bed, u1, u2};
  probe.scheduleProbes(TimePoint::epoch() + Duration::seconds(12), 10,
                       Duration::seconds(2));
  bed.sim().runFor(Duration::seconds(40));

  const LatencyStats stats = probe.collect();
  PerceptionRow row;
  row.platform = spec.name;
  row.addedLatencyMs = addedLatencyMs;
  row.lossPct = lossPct;
  row.e2eMs = stats.e2e.mean();
  // §8.2 thresholds: 300 ms for walking/chatting; ~50 ms added for gaming.
  row.walkChatImpaired = row.e2eMs > 300.0;
  row.gamingImpaired = game && addedLatencyMs >= 50.0;
  const double expected =
      spec.avatar.updateRateHz * 24.0;  // updates over the measured window
  row.staleAvatarRatio =
      std::min(1.0, static_cast<double>(u2.client->missedUpdates()) / expected);
  return row;
}

DriverScript latencyLossPerceptionScript(bool game) {
  DriverScript s = launchThenJoinScript(2, Duration::zero(), Duration::zero());
  if (game) s.enterGame(Duration::seconds(4), 0).enterGame(Duration::seconds(4), 1);
  return s;
}

// -------------------------------------------------------------------- §5.2

DownloadTrace runDownloadTrace(const PlatformSpec& spec, std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser(chatUser());
  TestUser& u2 = bed.addUser(chatUser());
  placeChatPair(u1, u2);
  AutoDriver driver{bed};
  driver.play(downloadTraceScript());
  bed.sim().runFor(Duration::seconds(60));

  const auto& down = u1.capture->series(Channel::ControlDown);
  double launchBytes = 0.0;
  double joinBytes = 0.0;
  for (std::size_t sec = 0; sec < 30; ++sec) launchBytes += down.binSum(sec);
  for (std::size_t sec = 30; sec < 60; ++sec) joinBytes += down.binSum(sec);
  DownloadTrace trace;
  trace.platform = spec.name;
  trace.launchDownloadMB = launchBytes / 1e6;
  trace.joinDownloadMB = joinBytes / 1e6;
  trace.appStoreSizeMB = spec.content.appStoreSize.toMegabytes();
  trace.cachesBackground = spec.content.cachesBackground;
  return trace;
}

DriverScript downloadTraceScript() {
  return launchThenJoinScript(2, Duration::zero(), Duration::seconds(30));
}

}  // namespace msim
