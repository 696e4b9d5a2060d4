// cluster_tier: the simulator's cluster side, with no packet path. One pass
// runs two parts:
//
//  - planet: the --million configuration of bench_cluster_planet_scale —
//    1,000,000 users on 64 shard partitions, AOI lattice population,
//    interest-scoped ghost forwarding and a mid-run drain — built through
//    PartitionedCluster at a pinned worker count. It loads the pdes, interest
//    and cluster layers and has a real serial setup.
//  - churn: cluster::runChurnWorkload on the crash-storm, expiry-wave and herd
//    scenarios, 10^4 sessions per scenario split over two seeds of 5,000. It
//    loads the sim and relay layers as writes beside reads (room
//    join/leave/re-place) with far-future cancellable timers (ping, token,
//    backoff). The runner is one call, so its own setup is inside run_s;
//    setup_s replays that setup through the public SessionCluster API.
//
// Neither part touches net, transport or capture, so a packet-path change
// must leave this workload flat. Operation 0 of a pass is the planet run
// (construction plus run); operations 1.. are the churn runs, seed-major.
// The two parts share one workload so that each run can be long: host load
// from other tenants comes in phases of up to a minute.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "avatar/codec.hpp"
#include "avatar/spec.hpp"
#include "bench.hpp"
#include "cluster/partitioned.hpp"
#include "cluster/sessions.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace msim;
using namespace msim::cluster;

// ---- planet ---------------------------------------------------------------

constexpr int kUsers = 1000000;
constexpr int kShards = 64;
// Half of a 4-core host. At 4 workers the slowest core sets the pace of every
// barrier, and on a shared 4-core host the fastest run time of 35 s windows
// spread by about 0.2 of its median; at 2 workers by about 0.05.
constexpr unsigned kWorkers = 2;
const Duration kMeasure = Duration::seconds(1);
const Duration kSlack = Duration::seconds(5);

PartitionedClusterConfig planetConfig(std::uint64_t seed, unsigned threads) {
  PartitionedClusterConfig cfg;
  cfg.seed = seed;
  cfg.users = kUsers;
  cfg.shards = kShards;
  cfg.threads = threads;
  AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  cfg.updateRateHz = 2.0;
  cfg.dataSpec.interestGrid = true;
  cfg.dataSpec.interestCellM = 8.0;
  cfg.dataSpec.interestRadiusM = 8.0;
  cfg.dataSpec.interestFullRadiusM = 8.0;
  cfg.latticeSpacingM = 4.0;
  cfg.directShardLinks = true;
  cfg.adaptiveWindows = true;
  cfg.interestForwarding = true;
  cfg.ghostRadiusM = 25.0;
  return cfg;
}

struct PlanetRun {
  double setupS{0.0};
  double runS{0.0};
  std::uint64_t digest{0};
  std::uint64_t cascades{0};
  std::uint64_t allocs{0};
  PartitionedClusterStats stats;
};

PlanetRun runPlanet(std::uint64_t seed, unsigned threads) {
  PlanetRun out;
  const int span = tracer().open("planet", -1, WallClock::now());
  Timed setup{"setup.cluster", span};
  PartitionedCluster planet{planetConfig(seed, threads)};
  planet.scheduleDrain(static_cast<std::uint32_t>(kShards - 1),
                       TimePoint::epoch() + kMeasure * 0.5);
  out.setupS = setup.stop();

  const std::uint64_t alloc0 = allocCount();
  Timed run{"run", span};
  out.stats = planet.run(kMeasure, kSlack);
  out.runS = run.stop();
  out.allocs = allocCount() - alloc0;

  Timed ext{"extract", span};
  out.digest = planet.digest();
  for (std::uint32_t i = 0; i < planet.engine().partitionCount(); ++i) {
    out.cascades += planet.engine().partition(i).sim().cascades();
  }
  ext.stop();
  tracer().close(span, WallClock::now());
  return out;
}

/// Zero lost deliveries, a balanced ghost ledger, two hops per migration,
/// and the same digest as the reference run.
void checkPlanet(const PlanetRun& p, std::uint64_t refDigest, Result& r) {
  const auto& s = p.stats;
  char why[240];
  std::snprintf(why, sizeof(why),
                "planet: lost %llu, ghosts %llu/%llu, %llu hops for %llu "
                "migrations, digest %s",
                static_cast<unsigned long long>(s.expectedDeliveries - s.delivered),
                static_cast<unsigned long long>(s.ghostsSent),
                static_cast<unsigned long long>(s.ghostsReceived),
                static_cast<unsigned long long>(s.migrationHops),
                static_cast<unsigned long long>(s.migrations),
                p.digest == refDigest ? "stable" : "CHANGED");
  r.check(s.delivered == s.expectedDeliveries && s.ghostsSent > 0 &&
              s.ghostsSent == s.ghostsReceived && s.migrations > 0 &&
              s.migrationHops == 2 * s.migrations && p.digest == refDigest,
          why);
}

// ---- churn ----------------------------------------------------------------

// Two runs of 5,000 sessions instead of one of 10,000: a run takes about
// 0.15 s, and the shorter an operation, the likelier its fastest time falls
// between two bursts of host load.
constexpr int kSessions = 5000;
constexpr std::uint64_t kSeeds = 2;

ChurnWorkloadConfig baseConfig() {
  ChurnWorkloadConfig cfg;
  cfg.sessions = kSessions;
  cfg.shards = 8;
  cfg.channels = 16;
  cfg.connectWindow = Duration::seconds(2);
  cfg.publishStart = Duration::seconds(5);
  cfg.publishEvery = Duration::millis(250);
  cfg.publishUntil = Duration::seconds(45);
  cfg.runFor = Duration::seconds(60);
  cfg.session.pingInterval = Duration::seconds(5);
  cfg.session.maxPingDelay = Duration::seconds(2);
  cfg.session.minReconnectDelay = Duration::millis(200);
  cfg.session.maxReconnectDelay = Duration::seconds(5);
  return cfg;
}

struct Scenario {
  const char* name;
  ChurnWorkloadConfig cfg;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  ChurnWorkloadConfig crash = baseConfig();
  crash.crashAt = Duration::seconds(20);
  out.push_back({"crash-storm", crash});
  ChurnWorkloadConfig expiry = baseConfig();
  expiry.tokenTtl = Duration::seconds(15);
  expiry.session.tokenRefreshLead = Duration::zero();
  out.push_back({"expiry-wave", expiry});
  ChurnWorkloadConfig herd = baseConfig();
  herd.herdAt = Duration::seconds(20);
  herd.connectCost = Duration::millis(2);
  herd.session.backoffFactor = 8.0;
  out.push_back({"herd", herd});
  return out;
}

/// The runner's world construction, before its first event.
double replaySetup(std::uint64_t seed, const ChurnWorkloadConfig& cfg) {
  Timed t{"setup.cluster"};
  Simulator sim{seed};
  sim.enableAudit(/*recordTrail=*/true);
  SessionClusterConfig scc;
  scc.cluster.initialInstances = cfg.shards;
  scc.cluster.policy = PlacementPolicy::LeastLoaded;
  scc.cluster.capacity.softUserCap = cfg.softUserCap;
  scc.session = cfg.session;
  scc.hub.connectCost = cfg.connectCost;
  scc.hub.historyWindow = cfg.historyWindow;
  scc.tokenTtl = cfg.tokenTtl;
  SessionCluster sc{sim, DataSpec{}, scc};
  sc.reserveSessions(static_cast<std::size_t>(cfg.sessions));
  for (int i = 0; i < cfg.sessions; ++i) {
    session::Session& s =
        sc.addSession(1000 + static_cast<std::uint64_t>(i), regions::usEast());
    s.subscribe(1 + static_cast<std::uint64_t>(i % cfg.channels));
    s.setOnMessage([&sim](session::Session& self, std::uint64_t channel,
                          std::uint64_t seq, std::uint64_t payload,
                          bool replayed) {
      sim.auditNote(self.userId() ^ (channel << 20) ^ (seq << 28) ^ payload ^
                    (replayed ? 0x8000000000000000ULL : 0));
    });
    const Duration at =
        Duration::seconds(sim.rng().uniform(0.0, cfg.connectWindow.toSeconds()));
    session::Session* sp = &s;
    sim.scheduleAfter(at, [sp] { sp->connect(); });
  }
  return t.stop();
}

// ---- the workload ---------------------------------------------------------

struct Seeds {
  std::uint64_t planet;
  std::uint64_t churn;
};

struct Pass {
  PlanetRun planet;
  std::vector<ChurnWorkloadResult> churn;
  std::uint64_t churnAllocs{0};
};

/// One pass: the planet, then every churn seed and scenario; its host times
/// go to a new pass of `times`.
Pass runPass(const std::vector<Scenario>& list, const Seeds& seeds,
             PassTimes& times) {
  Pass p;
  times.addPass();
  p.planet = runPlanet(seeds.planet, kWorkers);
  times.runS.back().push_back(p.planet.runS);
  times.setupS.back().push_back(p.planet.setupS);
  times.sliceMs.back().push_back({p.planet.runS * 1e3});

  for (std::uint64_t k = 0; k < kSeeds; ++k) {
    times.setupS.back().push_back(
        replaySetup(fold(seeds.churn, k), list.front().cfg));
  }
  const std::uint64_t alloc0 = allocCount();
  for (std::uint64_t k = 0; k < kSeeds; ++k) {
    for (const Scenario& sc : list) {
      Timed t{"run.scenario"};
      p.churn.push_back(runChurnWorkload(fold(seeds.churn, k), sc.cfg));
      const double s = t.stop();
      // The runner records a per-event trail; drop it so memory stays flat
      // across passes.
      p.churn.back().fingerprint.trail = audit::Trail{};
      times.runS.back().push_back(s);
      times.sliceMs.back().push_back({s * 1e3});
    }
  }
  p.churnAllocs = allocCount() - alloc0;
  return p;
}

/// The planet's checks, then the exactly-once ledger of every churn run; every
/// digest must equal the reference pass's.
void checkPass(const std::vector<Scenario>& list, const Pass& p,
               const Pass& ref, Result& r) {
  checkPlanet(p.planet, ref.planet.digest, r);
  for (std::size_t i = 0; i < p.churn.size(); ++i) {
    const ChurnWorkloadResult& c = p.churn[i];
    const bool stable = c.fingerprint.digest == ref.churn[i].fingerprint.digest;
    char why[200];
    std::snprintf(why, sizeof(why),
                  "%s/%zu: lost %llu, duplicates %llu, gaps %llu, digest %s",
                  list[i % list.size()].name, i / list.size(),
                  static_cast<unsigned long long>(c.lost),
                  static_cast<unsigned long long>(c.duplicates),
                  static_cast<unsigned long long>(c.gaps),
                  stable ? "stable" : "CHANGED");
    r.check(c.lost == 0 && c.duplicates == 0 && c.gaps == 0 && c.received > 0 &&
                stable,
            why);
  }
}

}  // namespace

Result runClusterTier(const Options& opt) {
  Result r;
  const std::vector<Scenario> list = scenarios();
  const Seeds seeds{fold(opt.seed, 0x706c616e6574ULL),
                    fold(opt.seed, 0x636875726eULL)};
  const double rssBeforeKb = currentRssKb();
  const WallClock::time_point t0 = WallClock::now();

  // The traced run starts with one traced single-worker planet run: the
  // speedup base, whose digest must equal the timed multi-worker digest. It
  // comes first so that it spends part of the budget rather than extend the
  // run.
  PlanetRun serial;
  if (opt.trace) {
    setTracing(true);
    serial = runPlanet(seeds.planet, 1);
    setTracing(false);
  }
  PassTimes timedT;
  PassTimes tracedT;
  std::vector<Pass> timed;
  std::vector<Pass> traced;
  repeatWithin(opt.seconds, t0, [&] {
    timed.push_back(runPass(list, seeds, timedT));
    checkPass(list, timed.back(), timed.front(), r);
    if (opt.trace) {
      setTracing(true);
      traced.push_back(runPass(list, seeds, tracedT));
      setTracing(false);
      checkPass(list, traced.back(), timed.front(), r);
    }
  });
  r.fingerprint = timed.front().planet.digest;
  for (const ChurnWorkloadResult& c : timed.front().churn) {
    r.fingerprint = fold(r.fingerprint, c.fingerprint.digest);
  }
  if (!opt.trace) {
    setEndToEnd(timedT, r);
    return r;
  }
  checkPlanet(serial, timed.front().planet.digest, r);

  // Counts from the first traced pass (they repeat exactly); times from the
  // fastest passes of the same process.
  const Pass& tr = traced.front();
  const auto& s = tr.planet.stats;
  const auto& e = s.engine;
  const double planetEvents = static_cast<double>(e.eventsExecuted);
  double churnEvents = 0, received = 0, recovered = 0, reconnects = 0,
         pings = 0, rejoins = 0, peak = 0;
  for (const ChurnWorkloadResult& c : tr.churn) {
    churnEvents += c.fingerprint.events;
    received += c.received;
    recovered += c.recovered;
    reconnects += c.reconnects;
    pings += c.pingTimeouts;
    rejoins += c.fullRejoins;
    peak = std::max(peak, static_cast<double>(c.peakPendingConnects));
  }
  const double events = planetEvents + churnEvents;
  const std::vector<double> untracedOps = fastestPass(timedT.runS);
  const double untraced = timedT.run();
  const double untracedChurn = untraced - untracedOps.front();
  const double tracedRun = tracedT.run();
  const double tracedPlanet = fastestPass(tracedT.runS).front();
  double idleSum = 0.0;
  double idleMax = 0.0;
  for (const double f : e.idleFraction) {
    idleSum += f;
    idleMax = std::max(idleMax, f);
  }
  double forwards = 0.0;
  for (const std::uint64_t f : s.forwardsPerShard) forwards += f;
  double tracedSetup = 0.0;
  for (const auto& pass : tracedT.setupS) {
    for (const double x : pass) tracedSetup += x;
  }
  const double speedup = ratio(serial.runS, tracedPlanet);

  r.set("sim.events", events);
  r.set("sim.ns_per_event", ratio(untraced * 1e9, events));
  r.set("sim.cascades_per_event", ratio(tr.planet.cascades, planetEvents));
  r.set("sim.allocs_per_event",
        ratio(tr.planet.allocs + tr.churnAllocs, events));
  r.set("relay.forwards", forwards);
  r.set("relay.forwards_per_broadcast", ratio(forwards, s.broadcasts));
  r.set("setup.cluster_s",
        tracedSetup / static_cast<double>(tracedT.setupS.size()));
  r.set("pdes.rounds", e.rounds);
  r.set("pdes.events_per_round", ratio(planetEvents, e.rounds));
  r.set("pdes.messages", e.messagesDelivered);
  r.set("pdes.coalesced_windows", e.coalescedWindows);
  r.set("pdes.idle_fraction.mean",
        ratio(idleSum, static_cast<double>(e.idleFraction.size())));
  r.set("pdes.idle_fraction.max", idleMax);
  r.set("pdes.speedup", speedup);
  r.set("pdes.efficiency", speedup / kWorkers);
  r.set("cluster.migrated_users", s.migratedUsers);
  r.set("cluster.migration_hops", s.migrationHops);
  r.set("cluster.ghosts", s.ghostsSent);
  r.set("cluster.max_utilization", s.maxUtilization);
  r.set("mem.rss_kb_per_user", (peakRssMb() * 1024.0 - rssBeforeKb) / kUsers);
  r.set("session.received", received);
  r.set("session.recovered", recovered);
  r.set("session.reconnects", reconnects);
  r.set("session.ping_timeouts", pings);
  r.set("session.full_rejoins", rejoins);
  r.set("session.peak_pending_connects", peak);
  r.set("session.ns_per_delivery", ratio(untracedChurn * 1e9, received));
  r.set("slice.samples", static_cast<double>(untracedOps.size()));
  r.set("trace.run_s", tracedRun);
  r.set("trace.overhead_s", tracedRun - untraced);
  return r;
}

}  // namespace perfbench
