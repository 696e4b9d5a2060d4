// Planet-scale extrapolation: 10,000 users sharded across a relay cluster.
//
// The paper stops at 28 users on one relay machine and asks whether the
// metaverse vision — "thousands of users in one world" — survives the
// measured per-server scaling walls (§6, §7, §9). This bench answers with
// the architecture real platforms use (§4.2): many relay instances behind a
// capacity-aware control plane. Each instance stays inside the regime the
// paper measured (hundreds of users, linear fan-out), a mid-run drain
// exercises live room migration at scale, and the run asserts zero delivery
// loss. Every mode runs the cluster on cluster::PartitionedCluster (one PDES
// partition per shard plus a control partition, cluster/partitioned.hpp).
//
// Default mode: a seed sweep of the workload, each seed one partitioned run
// whose engine leases workers from the process ThreadBudget. The report
// (and the digest it prints, which folds every run's audit digest) is
// byte-identical for any MSIM_THREADS, and stdout carries no host timings.
// It exits nonzero if any delivery was lost or the mean per-user downlink
// strays more than 1% from a single relay at one shard's occupancy.
// Knobs:
//   MSIM_CLUSTER_USERS      total users          (default 10000)
//   MSIM_CLUSTER_INSTANCES  shard count          (default 32)
//
// Worker sweeps: `--threads-sweep` and `--million` run one seed at several
// pinned engine worker counts through one driver. Each repetition starts
// the worker-count order one step further along (1,2,4,8 / 2,4,8,1 / ...)
// so no count always runs cold. The driver prints every run's setup and
// wall time and peak RSS (VmHWM, reset through /proc/self/clear_refs before
// the run; "n/a" where the kernel refuses the reset), reports per count the
// median and min-max wall time, median-based speedup and events/s-per-core,
// and emits a benchmark JSON (stdout, plus MSIM_PDES_JSON=<path> to write a
// file) whose context records the host core count and CPU model so
// committed baselines are comparable across machines. It exits nonzero
// unless every run's audit digest is byte-identical, no delivery was lost,
// the ghost ledger balances, and every migration took exactly 2 hops.
//   --threads-sweep  the default workload at 1/2/4/8 workers, 3 repetitions.
//   --million        the headline run: 1,000,000 users on 64 shards
//                    (MSIM_CLUSTER_USERS / MSIM_CLUSTER_INSTANCES still
//                    override, which is how CI smokes a scaled copy) at
//                    1/2/8 workers, once each, with adaptive barrier
//                    windows, an interest-grid lattice population (all-to-
//                    all fan-out is physically impossible at 15k+ users per
//                    shard — AOI scoping is what makes the room sizes
//                    meaningful, see DESIGN.md §11) and interest-scoped
//                    ghost forwarding between ring neighbours. The
//                    population is bulk pre-reserved and each shard
//                    partition fills its own room on the engine's worker
//                    pool.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <thread>
#include <vector>

#include "avatar/codec.hpp"
#include "avatar/spec.hpp"
#include "cluster/partitioned.hpp"
#include "common.hpp"
#include "core/seedsweep.hpp"

using namespace msim;
using namespace msim::cluster;

namespace {

/// The planet workload every mode runs: `users` over `shards` partitions,
/// each resident sending one avatar pose update per tick.
PartitionedClusterConfig planetConfig(std::uint64_t seed, int users,
                                      int shards) {
  PartitionedClusterConfig cfg;
  cfg.seed = seed;
  cfg.users = users;
  cfg.shards = shards;
  const AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  cfg.updateRateHz = avatar.updateRateHz;
  return cfg;
}

/// Schedules the mid-run drain of the last shard, runs the measurement
/// window plus 5 s of slack, and returns the run's stats.
PartitionedClusterStats runPlanet(PartitionedCluster& run, int shards,
                                  Duration measure) {
  run.scheduleDrain(static_cast<std::uint32_t>(shards - 1),
                    TimePoint::epoch() + measure * 0.5);
  return run.run(measure, Duration::seconds(5));
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// ---- default mode: seed sweep ---------------------------------------------

struct SeedResult {
  PartitionedClusterStats stats;
  std::uint64_t digest{0};
  double perUserDownMbps{0.0};  // mean over shards untouched by the drain
};

SeedResult runSeed(std::uint64_t seed, int users, int instances,
                   Duration measure) {
  const PartitionedClusterConfig cfg = planetConfig(seed, users, instances);
  PartitionedCluster run{cfg};
  SeedResult r;
  r.stats = runPlanet(run, instances, measure);
  r.digest = run.digest();
  // Per-user downlink from shards the drain did not touch: the drained
  // source ends empty and the target runs at double occupancy, so only the
  // untouched shards are comparable to a steady single-relay room. Every
  // forward is delivered (the zero-loss check), so forwards x update size
  // is the shard's delivered downlink.
  const std::size_t perShard =
      (static_cast<std::size_t>(users) + instances - 1) /
      static_cast<std::size_t>(instances);
  const auto updateBits = static_cast<double>(cfg.updateProto.size.toBits());
  double downBpsSum = 0.0;
  std::size_t counted = 0;
  for (std::size_t s = 0; s < r.stats.usersPerShard.size(); ++s) {
    const std::size_t shardUsers = r.stats.usersPerShard[s];
    if (shardUsers != perShard) continue;
    downBpsSum += static_cast<double>(r.stats.forwardsPerShard[s]) *
                  updateBits / measure.toSeconds() /
                  static_cast<double>(shardUsers);
    counted += 1;
  }
  r.perUserDownMbps = counted > 0 ? downBpsSum / counted / 1e6 : 0.0;
  return r;
}

// A single relay room at one shard's occupancy, driven identically — the
// paper's measurement setting, scaled to the cluster's per-instance regime.
// It is paced like a PartitionedCluster shard: the stop is scheduled before
// the first tick, so it wins the tie at the window edge and the room sends
// at period, 2 x period, ... strictly below `measure`.
double runSingleRelayPerUserMbps(std::uint64_t seed, int users,
                                 Duration measure) {
  Simulator sim{seed};
  RelayRoom room{sim, DataSpec{}};
  room.reserveUsers(static_cast<std::size_t>(users));
  std::uint64_t deliveredBytes = 0;
  room.hooks().onLocalDeliver = [&deliveredBytes](std::uint64_t,
                                                  const Message& m) {
    deliveredBytes += static_cast<std::uint64_t>(m.size.toBytes());
  };
  for (int i = 0; i < users; ++i) {
    room.joinDetached(static_cast<std::uint64_t>(i + 1));
  }
  AvatarSpec avatar;
  Message pose;
  pose.kind = avatarmsg::kPoseUpdate;
  pose.size = avatar.bytesPerUpdate;
  std::uint64_t seq = 0;
  PeriodicTask pacer{sim, Duration::seconds(1.0 / avatar.updateRateHz), [&] {
                       for (int i = 0; i < users; ++i) {
                         pose.senderId = static_cast<std::uint64_t>(i + 1);
                         pose.sequence = ++seq;
                         room.broadcast(pose.senderId, pose);
                       }
                     }};
  sim.schedule(TimePoint::epoch() + measure, [&pacer] { pacer.stop(); });
  sim.run();
  return static_cast<double>(deliveredBytes) * 8.0 / measure.toSeconds() /
         static_cast<double>(users) / 1e6;
}

int runSeedSweepMode(int users, int instances) {
  const int seeds = bench::seedCount(3);
  const Duration measure = bench::measureWindow(10.0);
  bench::header(
      "Planet scale — " + std::to_string(users) + " users on " +
          std::to_string(instances) + " relay instances",
      "§9 extrapolation beyond Fig. 7/9's single-relay wall; " +
          std::to_string(seeds) + " seeds, " +
          std::to_string(static_cast<int>(measure.toSeconds())) + " s window");

  const auto runs = runSeedSweep(
      defaultSeeds(seeds), [users, instances, measure](std::uint64_t seed) {
        return runSeed(seed, users, instances, measure);
      });

  std::string report;
  TablePrinter table{{"seed#", "broadcasts", "delivered", "lost", "migrated",
                      "max util", "per-user down Mbps"}};
  std::uint64_t lostTotal = 0;
  double downMean = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PartitionedClusterStats& st = runs[i].stats;
    const std::uint64_t lost = st.expectedDeliveries - st.delivered;
    lostTotal += lost;
    downMean += runs[i].perUserDownMbps;
    table.addRow({std::to_string(i), std::to_string(st.broadcasts),
                  std::to_string(st.delivered), std::to_string(lost),
                  std::to_string(st.migratedUsers), fmt(st.maxUtilization, 3),
                  fmt(runs[i].perUserDownMbps, 3)});
    report += std::to_string(st.broadcasts) + "," +
              std::to_string(st.delivered) + "," + std::to_string(lost) + "," +
              std::to_string(st.migratedUsers) + "," +
              fmt(st.maxUtilization, 6) + "," +
              std::to_string(runs[i].digest) + ";";
    for (const std::size_t u : st.usersPerShard) report += std::to_string(u) + " ";
    for (const std::uint64_t f : st.forwardsPerShard) {
      report += std::to_string(f) + " ";
    }
    report += "\n";
  }
  downMean /= static_cast<double>(runs.size());
  table.print(std::cout);

  // Per-instance regime vs the single-relay baseline the paper measured.
  const int perShard = (users + instances - 1) / instances;
  const double single =
      runSingleRelayPerUserMbps(defaultSeeds(1)[0], perShard, measure);
  const double deltaPct =
      single > 0.0 ? 100.0 * (downMean - single) / single : 0.0;
  std::printf(
      "\nper-instance check: cluster %.3f Mbps/user vs single relay at "
      "%d users %.3f Mbps/user (%+.2f%%)\n",
      downMean, perShard, single, deltaPct);
  std::printf("zero-loss check: %" PRIu64
              " deliveries lost across all seeds (must be 0 across drains)\n",
              lostTotal);
  std::printf("report digest: %016" PRIx64
              "  (byte-identical for any MSIM_THREADS)\n",
              fnv1a(report));
  std::printf(
      "\npaper checkpoints: each instance stays on Fig. 7's linear per-user\n"
      "downlink at its own occupancy — the cluster breaks the aggregate\n"
      "scaling wall (§6) without changing what any single user experiences;\n"
      "a drained shard hands its room over live, losing nothing (§4.2's\n"
      "elastic serving tier, made explicit).\n");
  // Each shard's user must see what a single relay's user sees.
  const bool perInstanceHolds = std::abs(deltaPct) <= 1.0;
  if (!perInstanceHolds) {
    std::fprintf(stderr, "per-instance check failed: |%+.2f%%| > 1%%\n",
                 deltaPct);
  }
  return lostTotal == 0 && perInstanceHolds ? 0 : 1;
}

// ---- worker sweeps (--threads-sweep, --million) ---------------------------

// detlint:allow(wall-clock) measures the bench harness's own wall time on the host — speedup is the quantity under test and never feeds simulated behaviour
using WallClock = std::chrono::steady_clock;

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Resets the process's peak resident set (VmHWM) to its current resident
/// set, so the next peakRssMb() covers only what runs after the reset.
/// Free heap pages the earlier rows left in the allocator's arenas are
/// handed back first, so they don't count toward the next row's peak.
/// False when the kernel refuses the write.
bool resetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Process peak resident set (VmHWM) in MB since the last resetPeakRss().
double peakRssMb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// One configuration swept over pinned engine worker counts.
struct WorkerSweep {
  std::string title;
  std::string claim;
  std::string jsonName;  // benchmark-row name prefix
  PartitionedClusterConfig cfg;
  std::vector<unsigned> counts;
  std::size_t repetitions{1};
  Duration measure;
};

struct SweepRow {
  unsigned threads{1};
  double setupSeconds{0.0};
  double wallSeconds{0.0};
  double peakRssMb{-1.0};  // negative: the peak could not be reset (n/a)
  std::uint64_t digest{0};
  PartitionedClusterStats stats;
};

SweepRow runSweepRow(const WorkerSweep& sweep, unsigned threads) {
  PartitionedClusterConfig cfg = sweep.cfg;
  cfg.threads = threads;
  const bool peakReset = resetPeakRss();
  const WallClock::time_point s0 = WallClock::now();
  PartitionedCluster run{std::move(cfg)};
  const WallClock::time_point t0 = WallClock::now();
  SweepRow row;
  row.stats = runPlanet(run, sweep.cfg.shards, sweep.measure);
  row.wallSeconds =
      std::chrono::duration<double>(WallClock::now() - t0).count();
  row.setupSeconds = std::chrono::duration<double>(t0 - s0).count();
  row.threads = threads;
  row.digest = run.digest();
  if (peakReset) row.peakRssMb = peakRssMb();
  return row;
}

/// A per-row peak for printing: "n/a" when the row's reset failed.
std::string fmtPeak(double mb) { return mb < 0.0 ? "n/a" : fmt(mb, 0); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One worker count's repetitions, summarised.
struct SweepSummary {
  unsigned threads{1};
  double wallMedian{0.0};
  double wallMin{0.0};
  double wallMax{0.0};
  double setupMedian{0.0};
  double peakRssMb{-1.0};  // largest of the count's runs
  std::uint64_t events{0};
  std::uint64_t rounds{0};
  std::uint64_t coalescedWindows{0};
  std::uint64_t digest{0};
};

int runWorkerSweep(const WorkerSweep& sweep) {
  const int users = sweep.cfg.users;
  const int shards = sweep.cfg.shards;
  bench::header(sweep.title + " — " + std::to_string(users) + " users on " +
                    std::to_string(shards) + " shard partitions",
                sweep.claim);

  const unsigned hostCores = std::thread::hardware_concurrency();
  const std::vector<unsigned>& counts = sweep.counts;
  std::vector<SweepRow> runs;
  runs.reserve(counts.size() * sweep.repetitions);
  for (std::size_t rep = 0; rep < sweep.repetitions; ++rep) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      runs.push_back(runSweepRow(sweep, counts[(rep + k) % counts.size()]));
      const SweepRow& r = runs.back();
      std::printf("  [rep %zu, %u worker%s] wall %.3fs (+%.3fs setup), %" PRIu64
                  " events, %" PRIu64 " rounds, peak RSS %s MB\n",
                  rep + 1, r.threads, r.threads == 1 ? "" : "s",
                  r.wallSeconds, r.setupSeconds, r.stats.engine.eventsExecuted,
                  r.stats.engine.rounds, fmtPeak(r.peakRssMb).c_str());
    }
  }

  std::vector<SweepSummary> rows;
  for (const unsigned n : counts) {
    SweepSummary sum;
    sum.threads = n;
    std::vector<double> walls;
    std::vector<double> setups;
    for (const SweepRow& r : runs) {
      if (r.threads != n) continue;
      walls.push_back(r.wallSeconds);
      setups.push_back(r.setupSeconds);
      sum.peakRssMb = std::max(sum.peakRssMb, r.peakRssMb);
      sum.events = r.stats.engine.eventsExecuted;
      sum.rounds = r.stats.engine.rounds;
      sum.coalescedWindows = r.stats.engine.coalescedWindows;
      sum.digest = r.digest;
    }
    sum.wallMedian = median(walls);
    sum.wallMin = *std::min_element(walls.begin(), walls.end());
    sum.wallMax = *std::max_element(walls.begin(), walls.end());
    sum.setupMedian = median(setups);
    rows.push_back(sum);
  }

  const double base = rows.front().wallMedian;
  auto speedup = [base](const SweepSummary& r) {
    return r.wallMedian > 0.0 ? base / r.wallMedian : 0.0;
  };
  auto eventsPerSec = [](const SweepSummary& r) {
    return r.wallMedian > 0.0 ? static_cast<double>(r.events) / r.wallMedian
                              : 0.0;
  };
  auto digestHex = [](std::uint64_t d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, d);
    return std::string{buf};
  };
  TablePrinter table{{"threads", "wall s (median)", "min-max", "setup s",
                      "speedup", "events/s", "events/s/core", "rounds",
                      "coalesced", "peak RSS MB", "digest"}};
  for (const SweepSummary& r : rows) {
    const double perSec = eventsPerSec(r);
    table.addRow({std::to_string(r.threads), fmt(r.wallMedian, 3),
                  fmt(r.wallMin, 3) + "-" + fmt(r.wallMax, 3),
                  fmt(r.setupMedian, 3), fmt(speedup(r), 2),
                  fmt(perSec / 1e6, 3) + "M",
                  fmt(perSec / 1e6 / r.threads, 3) + "M",
                  std::to_string(r.rounds), std::to_string(r.coalescedWindows),
                  fmtPeak(r.peakRssMb), digestHex(r.digest)});
  }
  table.print(std::cout);

  bool digestsMatch = true;
  bool ledgerBalanced = true;
  bool twoHops = true;
  std::uint64_t lostTotal = 0;
  for (const SweepRow& r : runs) {
    const PartitionedClusterStats& st = r.stats;
    digestsMatch = digestsMatch && r.digest == runs.front().digest;
    ledgerBalanced = ledgerBalanced && st.ghostsSent == st.ghostsReceived;
    twoHops = twoHops && st.migrationHops == 2 * st.migrations;
    lostTotal += st.expectedDeliveries - st.delivered;
  }
  std::string countList;
  for (const unsigned n : counts) {
    if (!countList.empty()) countList += ",";
    countList += std::to_string(n);
  }
  const PartitionedClusterStats& first = runs.front().stats;
  std::printf("\ndigest check: %s across {%s} workers x %zu repetition%s\n",
              digestsMatch ? "byte-identical" : "DIVERGED", countList.c_str(),
              sweep.repetitions, sweep.repetitions == 1 ? "" : "s");
  std::printf("zero-loss check: %" PRIu64 " deliveries lost (must be 0)\n",
              lostTotal);
  std::printf("ghost ledger: %" PRIu64 " sent / %" PRIu64 " received (%s)\n",
              first.ghostsSent, first.ghostsReceived,
              ledgerBalanced ? "balanced" : "IMBALANCED");
  std::printf("drain: %" PRIu64 " users migrated in %" PRIu64
              " cross-partition hops (%s: 2 per migration)\n",
              first.migratedUsers, first.migrationHops,
              twoHops ? "ok" : "MISMATCH");
  std::printf("speedup at %u workers: %.2fx (median of %zu) on a %u-core "
              "host\n",
              rows.back().threads, speedup(rows.back()), sweep.repetitions,
              hostCores);
  double peak = -1.0;
  for (const SweepSummary& r : rows) peak = std::max(peak, r.peakRssMb);
  if (peak >= 0.0) {
    std::printf("peak RSS: %.0f MB for %d users (%.1f KB/user, largest "
                "row)\n",
                peak, users, peak * 1024.0 / static_cast<double>(users));
  } else {
    std::printf("peak RSS: n/a (cannot reset VmHWM per row)\n");
  }

  // Benchmark JSON: host context + one row per worker count.
  std::string json = "{\n  \"context\": {\n";
  json += "    \"host_cores\": " + std::to_string(hostCores) + ",\n";
  json += "    \"cpu_model\": \"" + cpuModel() + "\",\n";
  json += "    \"users\": " + std::to_string(users) + ",\n";
  json += "    \"shards\": " + std::to_string(shards) + ",\n";
  json += "    \"repetitions\": " + std::to_string(sweep.repetitions) + ",\n";
  json += "    \"measure_s\": " + fmt(sweep.measure.toSeconds(), 1) +
          "\n  },\n";
  json += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepSummary& r = rows[i];
    const double perSec = eventsPerSec(r);
    json += "    {\"name\": \"" + sweep.jsonName + "/threads:" +
            std::to_string(r.threads) + "\", \"real_time\": " +
            fmt(r.wallMedian, 6) + ", \"time_unit\": \"s\", " +
            "\"real_time_min\": " + fmt(r.wallMin, 6) + ", " +
            "\"real_time_max\": " + fmt(r.wallMax, 6) + ", " +
            "\"setup_s\": " + fmt(r.setupMedian, 6) + ", " +
            "\"items_per_second\": " + fmt(perSec, 1) + ", " +
            "\"events_per_second_per_core\": " + fmt(perSec / r.threads, 1) +
            ", \"speedup\": " + fmt(speedup(r), 3) +
            ", \"rounds\": " + std::to_string(r.rounds) +
            ", \"coalesced_windows\": " + std::to_string(r.coalescedWindows) +
            ", \"peak_rss_mb\": " +
            (r.peakRssMb < 0.0 ? std::string{"null"} : fmt(r.peakRssMb, 1)) +
            ", \"digest\": \"" + digestHex(r.digest) + "\"}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::printf("\n%s", json.c_str());
  if (const char* path = std::getenv("MSIM_PDES_JSON")) {
    std::ofstream out{path};
    out << json;
    std::printf("wrote %s\n", path);
  }
  return digestsMatch && lostTotal == 0 && ledgerBalanced && twoHops ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  bool million = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--threads-sweep") sweep = true;
    if (std::string{argv[i]} == "--million") million = true;
  }
  const std::uint64_t seed = defaultSeeds(1)[0];
  if (million) {
    // 1M users over 64 shards unless overridden (CI smokes a scaled copy);
    // the window is short because the event rate, not the horizon, is the
    // quantity under test.
    WorkerSweep m;
    m.title = "Million-user partitioned run";
    m.claim =
        "direct links + adaptive windows + AOI lattice; digest must be "
        "byte-identical across {1,2,8} workers with zero lost deliveries";
    m.jsonName = "BM_ClusterPdesMillion";
    m.cfg = planetConfig(seed, bench::envKnob("MSIM_CLUSTER_USERS", 1000000),
                         bench::envKnob("MSIM_CLUSTER_INSTANCES", 64));
    // ~2 Hz: the decimated cadence interest management leaves for the bulk
    // of a huge room (full-rate neighbours are the AOI's job, not the
    // pacer's).
    m.cfg.updateRateHz = 2.0;
    m.cfg.dataSpec.interestGrid = true;
    m.cfg.dataSpec.interestCellM = 8.0;
    m.cfg.dataSpec.interestRadiusM = 8.0;      // lattice ring: ~12 neighbours
    m.cfg.dataSpec.interestFullRadiusM = 8.0;  // all of them at full rate
    m.cfg.latticeSpacingM = 4.0;  // 4 users per 8 m AOI cell, pre-reservable
    m.cfg.interestForwarding = true;
    m.cfg.ghostRadiusM = 25.0;
    m.counts = {1, 2, 8};
    m.repetitions = 1;
    m.measure = bench::measureWindow(1.0);
    return runWorkerSweep(m);
  }
  const int users = bench::envKnob("MSIM_CLUSTER_USERS", 10000);
  const int instances = bench::envKnob("MSIM_CLUSTER_INSTANCES", 32);
  if (sweep) {
    WorkerSweep t;
    t.title = "Planet scale, PDES threads sweep";
    t.claim =
        "one run split across per-shard logical processes; digest must be "
        "byte-identical at every worker count";
    t.jsonName = "BM_ClusterPdes";
    t.cfg = planetConfig(seed, users, instances);
    t.counts = {1, 2, 4, 8};
    t.repetitions = 3;
    t.measure = bench::measureWindow(10.0);
    return runWorkerSweep(t);
  }
  return runSeedSweepMode(users, instances);
}
