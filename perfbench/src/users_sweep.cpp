// users_sweep: the Fig. 7/8 scenario — N muted, non-wandering chat users in
// one event, metrics read off U1 — on all five platforms at 3, 6 and 9
// users, one worker. Each point is built here through Testbed/deploy/
// addUser exactly as runUsersSweepPoint builds one seed of it, and run with
// Simulator::run in fixed simulated slices so host time per slice is
// observable. One operation is one sweep point.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiments.hpp"
#include "core/seedsweep.hpp"
#include "net/packetpool.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace msim;

// A pass costs about 3 s of host time. Host load comes in bursts of a few
// seconds, so a short pass lets every point be timed many times per run and
// its fastest time fall in a quiet moment.
constexpr int kUserCounts[] = {3, 6, 9};
// The self-tests run at 15 users, where the relay fan-out is heaviest.
constexpr int kSelfTestUsers = 15;
const Duration kMeasure = Duration::seconds(10);
const Duration kSlice = Duration::seconds(1);
constexpr double kMinR2 = 0.99;

TestUserConfig chatUser() {
  TestUserConfig cfg;
  cfg.muted = true;
  cfg.wander = false;
  return cfg;
}

/// Benchmark-side taps on one user's three devices: every tap notification
/// counts, and packets at the headset (each headset packet once) are
/// classified by transport protocol.
struct TapCounts {
  std::uint64_t all{0};
  std::uint64_t tcp{0};
  std::uint64_t udp{0};
};

struct Point {
  // Simulated outputs, read off U1 as runUsersSweepPoint reads them.
  double downMbps{0.0};
  double upMbps{0.0};
  MetricsSample avg;
  double batteryDropPct{0.0};
  std::uint64_t digest{0};
  // Host costs.
  double testbedS{0.0};
  double deployS{0.0};
  double usersS{0.0};
  double runS{0.0};
  // Layer counts.
  std::uint64_t events{0};
  std::uint64_t cascades{0};
  std::uint64_t allocs{0};
  std::uint64_t arenaHits{0};
  std::uint64_t arenaFills{0};
  std::uint64_t capturePackets{0};
  double recordBytes{0.0};
  std::uint64_t forwards{0};
  std::uint64_t uplinkDataPackets{0};
  std::uint64_t queueDrops{0};
  TapCounts taps;

  [[nodiscard]] double setupS() const { return testbedS + deployS + usersS; }
};

/// One sweep point. `slice` cuts the run into Simulator::run calls of that
/// simulated length (the whole run when it exceeds it); `sliceMs`, when
/// given, receives the host milliseconds of each whole slice of the measured
/// window. With `layers` the
/// benchmark's taps are installed and the capture records are scanned.
Point runPoint(const PlatformSpec& spec, int users, std::uint64_t seed,
               Duration slice, bool layers, int parent,
               std::vector<double>* sliceMs) {
  Point pt;
  const int span = tracer().open("point", parent, WallClock::now());
  std::vector<TapCounts> taps(static_cast<std::size_t>(users));

  Timed tb{"setup.testbed", span};
  Testbed bed{seed};
  bed.sim().enableAudit();
  pt.testbedS = tb.stop();

  Timed dep{"setup.deploy", span};
  bed.deploy(spec);
  pt.deployS = dep.stop();

  Timed add{"setup.users", span};
  for (int i = 0; i < users; ++i) {
    TestUser& u = bed.addUser(chatUser());
    if (!layers) continue;
    TapCounts* c = &taps[static_cast<std::size_t>(i)];
    auto count = [c](const Packet&, TapDir) { ++c->all; };
    u.headsetUplinkDev->addTap([c](const Packet& p, TapDir) {
      ++c->all;
      if (p.proto == IpProto::Tcp) ++c->tcp;
      if (p.proto == IpProto::Udp) ++c->udp;
    });
    u.apWifiDev->addTap(count);
    u.apCampusDev->addTap(count);
  }
  arrangeUsersForSweep(bed);
  bed.sim().schedule(TimePoint::epoch(), [&bed] {
    for (auto& u : bed.users()) u->client->launch();
  });
  for (int i = 0; i < users; ++i) {
    bed.sim().schedule(
        TimePoint::epoch() + Duration::seconds(2) + Duration::millis(500.0 * i),
        [&bed, i] { bed.user(static_cast<std::size_t>(i)).client->joinEvent(); });
  }
  pt.usersS = add.stop();

  const double settleSec = 2.0 + 0.5 * users + 8.0;
  const TimePoint from = TimePoint::epoch() + Duration::seconds(settleSec);
  const TimePoint to = from + kMeasure;
  const TimePoint end = TimePoint::epoch() + (Duration::seconds(settleSec) + kMeasure);

  const std::uint64_t alloc0 = allocCount();
  const PacketArena::Stats arena0 = PacketArena::local().stats();
  while (bed.sim().now() < end) {
    const TimePoint start = bed.sim().now();
    const TimePoint limit = std::min(start + slice, end);
    Timed s{"run.slice", span};
    bed.sim().run(limit);
    const double sec = s.stop();
    pt.runS += sec;
    // Only whole slices of the measured window are sampled: launch and join
    // slices cost up to 100x more, and mixing them in puts p90 on the edge
    // between the two populations.
    if (sliceMs != nullptr && start >= from && limit - start == slice) {
      sliceMs->push_back(sec * 1e3);
    }
  }
  const PacketArena::Stats& arena1 = PacketArena::local().stats();
  pt.allocs = allocCount() - alloc0;
  pt.arenaHits = arena1.poolHits - arena0.poolHits;
  pt.arenaFills = arena1.heapFills - arena0.heapFills;

  Timed ext{"extract", span};
  TestUser& u1 = bed.user(0);
  const auto firstBin = static_cast<std::size_t>(settleSec);
  const auto lastBin =
      static_cast<std::size_t>(settleSec + kMeasure.toSeconds()) - 1;
  pt.downMbps = u1.capture->meanRate(Channel::DataDown, firstBin, lastBin).toMbps();
  pt.upMbps = u1.capture->meanRate(Channel::DataUp, firstBin, lastBin).toMbps();
  pt.avg = u1.headset->metrics().averageOver(from, to);
  pt.batteryDropPct = 100.0 - u1.headset->metrics().batteryPct();
  pt.digest = bed.sim().auditDigest();
  pt.events = bed.sim().executedEvents();
  pt.cascades = bed.sim().cascades();
  pt.forwards = bed.deployment().room()->forwardedMessages();
  for (std::size_t i = 0; i < bed.users().size(); ++i) {
    TestUser& u = bed.user(i);
    pt.capturePackets += u.capture->packetCount();
    pt.recordBytes += static_cast<double>(u.capture->records().capacity() *
                                          sizeof(PacketRecord));
    pt.queueDrops += u.headsetUplinkDev->queueDrops() +
                     u.apWifiDev->queueDrops() + u.apCampusDev->queueDrops();
    if (!layers) continue;
    for (const PacketRecord& rec : u.capture->records()) {
      if (rec.uplink && bed.deployment().isDataAddress(rec.dst)) {
        ++pt.uplinkDataPackets;
      }
    }
    pt.taps.all += taps[i].all;
    pt.taps.tcp += taps[i].tcp;
    pt.taps.udp += taps[i].udp;
  }
  ext.stop();
  tracer().close(span, WallClock::now());
  return pt;
}

using Sweep = std::vector<Point>;  // platform-major, kUserCounts order

/// One pass over every point; its host times go to a new pass of `times`.
Sweep runSweep(const std::vector<PlatformSpec>& specs, std::uint64_t seed,
               bool layers, PassTimes& times) {
  Sweep sw;
  times.addPass();
  const int span = tracer().open("sweep", -1, WallClock::now());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    for (const int users : kUserCounts) {
      const std::uint64_t pointSeed = fold(seed, p * 1000 + users);
      times.sliceMs.back().emplace_back();
      sw.push_back(runPoint(specs[p], users, pointSeed, kSlice, layers, span,
                            &times.sliceMs.back().back()));
      times.runS.back().push_back(sw.back().runS);
      times.setupS.back().push_back(sw.back().setupS());
    }
  }
  tracer().close(span, WallClock::now());
  return sw;
}

/// Output checks of one sweep: per platform, downlink linear in users and
/// FPS non-increasing; every point's digest equal to the reference sweep's.
void checkSweep(const std::vector<PlatformSpec>& specs, const Sweep& sw,
                const Sweep& ref, Result& r) {
  constexpr std::size_t kPer = std::size(kUserCounts);
  for (std::size_t p = 0; p < specs.size(); ++p) {
    std::vector<double> xs;
    std::vector<double> down;
    bool fpsOk = true;
    for (std::size_t k = 0; k < kPer; ++k) {
      const Point& pt = sw[p * kPer + k];
      xs.push_back(kUserCounts[k]);
      down.push_back(pt.downMbps);
      if (k > 0 && pt.avg.fps > sw[p * kPer + k - 1].avg.fps) {
        fpsOk = false;
      }
    }
    const double r2 = rSquared(xs, down);
    for (std::size_t k = 0; k < kPer; ++k) {
      const bool stable = sw[p * kPer + k].digest == ref[p * kPer + k].digest;
      char why[200];
      std::snprintf(why, sizeof(why),
                    "%s@%d: downlink R2 %.4f (>= %.2f), fps %s, digest %s",
                    specs[p].name.c_str(), kUserCounts[k], r2, kMinR2,
                    fpsOk ? "non-increasing" : "INCREASES",
                    stable ? "stable" : "CHANGED");
      r.check(r2 >= kMinR2 && fpsOk && stable, why);
    }
  }
}

std::uint64_t sweepFingerprint(const Sweep& sw) {
  std::uint64_t fp = 0;
  for (const Point& pt : sw) fp = fold(fp, pt.digest);
  return fp;
}

/// Self-tests of the traced run: the benchmark's point reproduces
/// runUsersSweepPoint for the same seed, and slicing leaves digests alone.
void selfTests(Result& r) {
  const std::uint64_t seed = defaultSeeds(1)[0];
  const int users = kSelfTestUsers;
  const Duration whole = Duration::seconds(3600);
  for (const PlatformSpec& spec : {platforms::worlds(), platforms::hubs()}) {
    const Point sliced = runPoint(spec, users, seed, kSlice, false, -1, nullptr);
    const Point fine =
        runPoint(spec, users, seed, Duration::millis(250), false, -1, nullptr);
    const Point unsliced = runPoint(spec, users, seed, whole, false, -1, nullptr);
    r.check(sliced.digest == unsliced.digest && fine.digest == unsliced.digest,
            spec.name + "@" + std::to_string(users) +
                ": digest changes with the run slice (1 s / 0.25 s / whole)");

    const SweepPoint ref = runUsersSweepPoint(spec, users, 1, kMeasure);
    auto same = [](double a, double b) {
      return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
    };
    r.check(same(sliced.downMbps, ref.downMbps) &&
                same(sliced.upMbps, ref.upMbps) &&
                same(sliced.avg.fps, ref.fps) &&
                same(sliced.avg.cpuUtilPct, ref.cpuPct) &&
                same(sliced.avg.gpuUtilPct, ref.gpuPct) &&
                same(sliced.avg.memoryGB, ref.memGB) &&
                same(sliced.batteryDropPct, ref.batteryDropPct),
            spec.name + "@" + std::to_string(users) +
                ": benchmark point differs from runUsersSweepPoint");
  }
}

}  // namespace

Result runUsersSweep(const Options& opt) {
  Result r;
  const std::vector<PlatformSpec> specs = platforms::allFive();
  const WallClock::time_point t0 = WallClock::now();

  // The traced run's self-tests spend part of the budget rather than extend
  // the run past it.
  if (opt.trace) selfTests(r);

  PassTimes timedT;
  PassTimes tracedT;
  std::vector<Sweep> timed;
  std::vector<Sweep> traced;
  // The timed run repeats whole sweeps until the budget is spent; the traced
  // run alternates untraced and traced sweeps so their difference is the
  // tracing overhead.
  repeatWithin(opt.seconds, t0, [&] {
    timed.push_back(runSweep(specs, opt.seed, false, timedT));
    checkSweep(specs, timed.back(), timed.front(), r);
    if (opt.trace) {
      setTracing(true);
      traced.push_back(runSweep(specs, opt.seed, true, tracedT));
      setTracing(false);
      checkSweep(specs, traced.back(), timed.front(), r);
    }
  });
  r.fingerprint = sweepFingerprint(timed.front());
  if (!opt.trace) {
    setEndToEnd(timedT, r);
    return r;
  }

  // Per-layer counts from the first traced sweep (counts repeat exactly).
  double events = 0, cascades = 0, allocs = 0, hits = 0, fills = 0, cap = 0,
         rec = 0, fwd = 0, upData = 0, drops = 0, taps = 0, tcp = 0, udp = 0;
  for (const Point& pt : traced.front()) {
    events += pt.events;
    cascades += pt.cascades;
    allocs += pt.allocs;
    hits += pt.arenaHits;
    fills += pt.arenaFills;
    cap += pt.capturePackets;
    rec += pt.recordBytes;
    fwd += pt.forwards;
    upData += pt.uplinkDataPackets;
    drops += pt.queueDrops;
    taps += pt.taps.all;
    tcp += pt.taps.tcp;
    udp += pt.taps.udp;
  }
  const double untraced = timedT.run();
  const double n = static_cast<double>(traced.size());

  r.set("sim.events", events);
  r.set("sim.ns_per_event", ratio(untraced * 1e9, events));
  r.set("sim.cascades_per_event", ratio(cascades, events));
  r.set("sim.allocs_per_event", ratio(allocs, events));
  r.set("net.tap_packets", taps);
  r.set("net.events_per_captured_packet", ratio(events, cap));
  r.set("net.allocs_per_captured_packet", ratio(allocs, cap));
  r.set("net.arena_hit_ratio", ratio(hits, hits + fills));
  r.set("net.queue_drops", drops);
  r.set("transport.tcp_packets", tcp);
  r.set("transport.udp_packets", udp);
  r.set("capture.packets", cap);
  r.set("capture.records_mb", rec / 1e6);
  r.set("relay.forwards", fwd);
  r.set("relay.forwards_per_broadcast", ratio(fwd, upData));
  r.set("setup.testbed_s", tracer().total("setup.testbed") / n);
  r.set("setup.deploy_s", tracer().total("setup.deploy") / n);
  r.set("setup.users_s", tracer().total("setup.users") / n);
  r.set("slice.samples", static_cast<double>(timedT.slices()));
  r.set("trace.run_s", tracedT.run());
  r.set("trace.overhead_s", tracedT.run() - untraced);
  return r;
}

}  // namespace perfbench
