// Planet-scale extrapolation: 10,000 users sharded across a relay cluster.
//
// The paper stops at 28 users on one relay machine and asks whether the
// metaverse vision — "thousands of users in one world" — survives the
// measured per-server scaling walls (§6, §7, §9). This bench answers with
// the architecture real platforms use (§4.2): many relay instances behind a
// capacity-aware gateway. Each instance stays inside the regime the paper
// measured (hundreds of users, linear fan-out), a mid-run drain exercises
// live room migration at scale, and the run asserts zero delivery loss.
//
// Determinism: the whole sweep is seed-keyed and merged in seed order, so
// the report (and the digest it prints) is byte-identical for any
// MSIM_THREADS. Extra knobs:
//   MSIM_CLUSTER_USERS      total users          (default 10000)
//   MSIM_CLUSTER_INSTANCES  shard count          (default 32)
//
// Threads-sweep mode (`--threads-sweep` or MSIM_PDES_SWEEP=1): runs ONE
// seed of the same workload on the PDES-partitioned cluster
// (cluster/partitioned.hpp) at 1/2/4/8 engine workers, three times, each
// repetition starting the worker-count order one step further along
// (1,2,4,8 / 2,4,8,1 / 4,8,1,2) so no count always runs cold. It prints
// every run's setup and wall time, reports per count the median and
// min-max wall time, the median-based speedup and events/s-per-core,
// asserts the audit digest is byte-identical across every run, and emits
// a benchmark JSON (stdout, plus MSIM_PDES_JSON=<path> to write a file)
// whose context records the host core count and CPU model so committed
// baselines are comparable across machines.
//
// Million mode (`--million` or MSIM_PDES_MILLION=1): the headline run —
// 1,000,000 users on >= 64 shard partitions (MSIM_CLUSTER_USERS /
// MSIM_CLUSTER_INSTANCES still override, which is how CI smokes a scaled
// copy), on the direct-link mesh with adaptive barrier windows, an
// interest-grid lattice population (all-to-all fan-out is physically
// impossible at 15k+ users per shard — AOI scoping is what makes the room
// sizes meaningful, see DESIGN.md §11), interest-scoped ghost forwarding
// between ring neighbours, and a mid-run drain of the last shard. The
// population is bulk pre-reserved (rooms, grid cells, gateway book) before
// any user joins, so setup does one allocation pass instead of a million
// rehashes, and each shard partition fills its own room on the engine's
// worker pool (setup is timed per row). Reports events/s-per-core,
// wall-clock speedup, and each row's own peak RSS (VmHWM, reset through
// /proc/self/clear_refs before the row; "n/a" where the kernel refuses the
// reset), and exits nonzero unless the audit digest is byte-identical
// across {1,2,8} workers, zero deliveries were lost, and the ghost ledger
// balances exactly.

#include <algorithm>
#include <chrono>
#include <cinttypes>
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
#include "cluster/manager.hpp"
#include "cluster/partitioned.hpp"
#include "common.hpp"
#include "core/seedsweep.hpp"

using namespace msim;
using namespace msim::cluster;

namespace {

int envInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

struct RunResult {
  std::uint64_t broadcasts{0};
  std::uint64_t expectedDeliveries{0};
  std::uint64_t delivered{0};
  std::uint64_t migrations{0};
  std::uint64_t migratedUsers{0};
  double maxUtilization{0.0};
  double perUserDownMbps{0.0};  // mean over shards untouched by the drain
  std::vector<std::size_t> usersPerShard;
  std::vector<std::uint64_t> forwardsPerShard;
};

RunResult runCluster(std::uint64_t seed, int users, int instances,
                     Duration measure) {
  Simulator sim{seed};
  ClusterConfig cfg;
  cfg.initialInstances = instances;
  cfg.policy = PlacementPolicy::LeastLoaded;
  cfg.regions = {regions::usEast(), regions::usWest(), regions::europe()};
  InstanceManager mgr{sim, DataSpec{}, cfg};

  mgr.reserveUsers(static_cast<std::size_t>(users));

  RunResult r;
  mgr.setDeliverySink(
      [&r](std::uint32_t, std::uint64_t, const Message&) { ++r.delivered; });

  const auto& allRegions = cfg.regions;
  for (int i = 0; i < users; ++i) {
    mgr.joinUser(static_cast<std::uint64_t>(i + 1),
                 allRegions[static_cast<std::size_t>(i) % allRegions.size()]);
  }

  // One pacer drives every resident at the avatar update rate (10 Hz): a
  // per-user PeriodicTask at this scale would be 10k timers for no fidelity.
  AvatarSpec avatar;
  Message pose;
  pose.kind = avatarmsg::kPoseUpdate;
  pose.size = avatar.bytesPerUpdate;
  std::uint64_t seq = 0;
  std::vector<std::uint64_t> idsScratch;
  PeriodicTask pacer{
      sim, Duration::seconds(1.0 / avatar.updateRateHz), [&] {
        for (const auto& inst : mgr.instances()) {
          if (inst->userCount() < 2) continue;
          idsScratch = inst->room().userIds();
          const std::uint64_t fanout = idsScratch.size() - 1;
          for (const std::uint64_t id : idsScratch) {
            pose.senderId = id;
            pose.sequence = ++seq;
            inst->room().broadcast(id, pose);
            ++r.broadcasts;
            r.expectedDeliveries += fanout;
          }
        }
      }};

  // Scripted drain halfway through: the last shard live-migrates.
  sim.schedule(TimePoint::epoch() + measure * 0.5, [&mgr, instances] {
    mgr.drain(static_cast<std::uint32_t>(instances - 1));
  });

  sim.runFor(measure);
  pacer.stop();
  // Flush the in-flight tail (the cluster's load samplers tick forever, so
  // run in bounded slices until every scheduled forward has landed).
  for (int guard = 0; guard < 1000 && r.delivered < r.expectedDeliveries;
       ++guard) {
    sim.runFor(Duration::seconds(10));
  }

  const ClusterStats stats = mgr.stats();
  r.migrations = stats.migrations;
  r.migratedUsers = stats.migratedUsers;
  // Per-user downlink from shards the drain did not touch: the drained
  // source ends empty and the target runs at double occupancy, so only the
  // untouched shards are comparable to a steady single-relay room.
  const std::size_t perShard =
      (static_cast<std::size_t>(users) + instances - 1) /
      static_cast<std::size_t>(instances);
  double downBpsSum = 0.0;
  std::size_t counted = 0;
  for (const auto& row : stats.shards) {
    r.usersPerShard.push_back(row.users);
    r.forwardsPerShard.push_back(row.forwards);
    if (row.utilization > r.maxUtilization) r.maxUtilization = row.utilization;
    if (row.users == perShard) {
      downBpsSum += static_cast<double>(row.deliveredBytes.toBits()) /
                    measure.toSeconds() / static_cast<double>(row.users);
      counted += 1;
    }
  }
  r.perUserDownMbps = counted > 0 ? downBpsSum / counted / 1e6 : 0.0;
  return r;
}

// A single relay room at one shard's occupancy, driven identically — the
// paper's measurement setting, scaled to the cluster's per-instance regime.
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
  sim.runFor(measure);
  pacer.stop();
  sim.run();
  return static_cast<double>(deliveredBytes) * 8.0 / measure.toSeconds() /
         static_cast<double>(users) / 1e6;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string fmtD(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// ---- threads-sweep mode (PDES-partitioned run) ----------------------------

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

struct SweepRow {
  unsigned threads{1};
  double setupSeconds{0.0};
  double wallSeconds{0.0};
  std::uint64_t events{0};
  std::uint64_t rounds{0};
  std::uint64_t digest{0};
  std::uint64_t lost{0};
  std::uint64_t migratedUsers{0};
};

SweepRow runPartitioned(unsigned threads, int users, int instances,
                        Duration measure) {
  cluster::PartitionedClusterConfig cfg;
  cfg.seed = defaultSeeds(1)[0];
  cfg.users = users;
  cfg.shards = instances;
  cfg.threads = threads;
  AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  cfg.updateRateHz = avatar.updateRateHz;
  const WallClock::time_point s0 = WallClock::now();
  cluster::PartitionedCluster run{std::move(cfg)};
  const double setup =
      std::chrono::duration<double>(WallClock::now() - s0).count();
  run.scheduleDrain(static_cast<std::uint32_t>(instances - 1),
                    TimePoint::epoch() + measure * 0.5);

  const WallClock::time_point t0 = WallClock::now();
  const cluster::PartitionedClusterStats stats =
      run.run(measure, Duration::seconds(5));
  const double wall =
      std::chrono::duration<double>(WallClock::now() - t0).count();

  SweepRow row;
  row.threads = threads;
  row.setupSeconds = setup;
  row.wallSeconds = wall;
  row.events = stats.engine.eventsExecuted;
  row.rounds = stats.engine.rounds;
  row.digest = run.digest();
  row.lost = stats.expectedDeliveries - stats.delivered;
  row.migratedUsers = stats.migratedUsers;
  return row;
}

/// One worker count's repetitions, summarised.
struct SweepSummary {
  unsigned threads{1};
  double wallMedian{0.0};
  double wallMin{0.0};
  double wallMax{0.0};
  double setupMedian{0.0};
  std::uint64_t events{0};
  std::uint64_t rounds{0};
  std::uint64_t digest{0};
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int runThreadsSweep(int users, int instances, Duration measure) {
  bench::header(
      "Planet scale, PDES threads sweep — " + std::to_string(users) +
          " users on " + std::to_string(instances) + " shard partitions",
      "one run split across per-shard logical processes; digest must be "
      "byte-identical at every worker count");

  const unsigned hostCores = std::thread::hardware_concurrency();
  const std::string model = cpuModel();
  const std::vector<unsigned> counts = {1, 2, 4, 8};
  constexpr std::size_t kRepetitions = 3;
  // Repetition r starts r steps into the worker-count list, so the cold
  // first run of the process lands on a different count each time.
  std::vector<SweepRow> runs;
  runs.reserve(counts.size() * kRepetitions);
  for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const unsigned n = counts[(rep + k) % counts.size()];
      runs.push_back(runPartitioned(n, users, instances, measure));
      const SweepRow& r = runs.back();
      std::printf("  [rep %zu, %u worker%s] wall %.3fs (+%.3fs setup), %" PRIu64
                  " events, %" PRIu64 " rounds\n",
                  rep + 1, r.threads, r.threads == 1 ? "" : "s",
                  r.wallSeconds, r.setupSeconds, r.events, r.rounds);
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
      sum.events = r.events;
      sum.rounds = r.rounds;
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
  TablePrinter table{{"threads", "wall s (median)", "min-max", "setup s",
                      "speedup", "events/s", "events/s/core", "rounds",
                      "digest"}};
  for (const SweepSummary& r : rows) {
    const double perSec = eventsPerSec(r);
    char digestHex[32];
    std::snprintf(digestHex, sizeof(digestHex), "%016" PRIx64, r.digest);
    table.addRow({std::to_string(r.threads), fmtD(r.wallMedian, 3),
                  fmtD(r.wallMin, 3) + "-" + fmtD(r.wallMax, 3),
                  fmtD(r.setupMedian, 3), fmtD(speedup(r), 2),
                  fmtD(perSec / 1e6, 3) + "M",
                  fmtD(perSec / 1e6 / r.threads, 3) + "M",
                  std::to_string(r.rounds), digestHex});
  }
  table.print(std::cout);

  bool digestsMatch = true;
  std::uint64_t lostTotal = 0;
  for (const SweepRow& r : runs) {
    digestsMatch = digestsMatch && r.digest == runs.front().digest;
    lostTotal += r.lost;
  }
  std::printf("\ndigest check: %s across {1,2,4,8} workers x %zu "
              "repetitions\n",
              digestsMatch ? "byte-identical" : "DIVERGED", kRepetitions);
  std::printf("zero-loss check: %" PRIu64 " deliveries lost (must be 0)\n",
              lostTotal);
  std::printf("speedup at 8 workers: %.2fx (median of %zu) on a %u-core "
              "host\n",
              speedup(rows.back()), kRepetitions, hostCores);

  // Benchmark JSON: host context + one row per worker count.
  std::string json = "{\n  \"context\": {\n";
  json += "    \"host_cores\": " + std::to_string(hostCores) + ",\n";
  json += "    \"cpu_model\": \"" + model + "\",\n";
  json += "    \"users\": " + std::to_string(users) + ",\n";
  json += "    \"shards\": " + std::to_string(instances) + ",\n";
  json += "    \"repetitions\": " + std::to_string(kRepetitions) + ",\n";
  json += "    \"measure_s\": " + fmtD(measure.toSeconds(), 1) + "\n  },\n";
  json += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepSummary& r = rows[i];
    const double perSec = eventsPerSec(r);
    char digestHex[32];
    std::snprintf(digestHex, sizeof(digestHex), "%016" PRIx64, r.digest);
    json += "    {\"name\": \"BM_ClusterPdes/threads:" +
            std::to_string(r.threads) + "\", \"real_time\": " +
            fmtD(r.wallMedian, 6) + ", \"time_unit\": \"s\", " +
            "\"real_time_min\": " + fmtD(r.wallMin, 6) + ", " +
            "\"real_time_max\": " + fmtD(r.wallMax, 6) + ", " +
            "\"setup_s\": " + fmtD(r.setupMedian, 6) + ", " +
            "\"items_per_second\": " + fmtD(perSec, 1) + ", " +
            "\"events_per_second_per_core\": " + fmtD(perSec / r.threads, 1) +
            ", \"speedup\": " + fmtD(speedup(r), 3) +
            ", \"rounds\": " + std::to_string(r.rounds) + ", \"digest\": \"" +
            digestHex + "\"}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::printf("\n%s", json.c_str());
  if (const char* path = std::getenv("MSIM_PDES_JSON")) {
    std::ofstream out{path};
    out << json;
    std::printf("wrote %s\n", path);
  }
  return digestsMatch && lostTotal == 0 ? 0 : 1;
}

// ---- million mode (1M users, 64+ shards, interest-scoped) -----------------

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

struct MillionRow {
  unsigned threads{1};
  double wallSeconds{0.0};
  double setupSeconds{0.0};
  std::uint64_t events{0};
  std::uint64_t rounds{0};
  std::uint64_t coalescedWindows{0};
  std::uint64_t digest{0};
  std::uint64_t lost{0};
  std::uint64_t migratedUsers{0};
  std::uint64_t migrationHops{0};
  std::uint64_t ghostsSent{0};
  std::uint64_t ghostsReceived{0};
  double peakRssMb{-1.0};  // negative: the peak could not be reset (n/a)
};

/// A per-row peak for printing: "n/a" when the row's reset failed.
std::string fmtPeak(double mb) { return mb < 0.0 ? "n/a" : fmtD(mb, 0); }

MillionRow runMillion(unsigned threads, int users, int shards,
                      Duration measure) {
  cluster::PartitionedClusterConfig cfg;
  cfg.seed = defaultSeeds(1)[0];
  cfg.users = users;
  cfg.shards = shards;
  cfg.threads = threads;
  AvatarSpec avatar;
  cfg.updateProto.kind = avatarmsg::kPoseUpdate;
  cfg.updateProto.size = avatar.bytesPerUpdate;
  // ~2 Hz: the decimated cadence interest management leaves for the bulk of
  // a huge room (full-rate neighbours are the AOI's job, not the pacer's).
  cfg.updateRateHz = 2.0;
  cfg.dataSpec.interestGrid = true;
  cfg.dataSpec.interestCellM = 8.0;
  cfg.dataSpec.interestRadiusM = 8.0;      // lattice ring: ~12 neighbours
  cfg.dataSpec.interestFullRadiusM = 8.0;  // all of them at full rate
  cfg.latticeSpacingM = 4.0;  // 4 users per 8 m AOI cell, pre-reservable
  cfg.directShardLinks = true;
  cfg.adaptiveWindows = true;
  cfg.interestForwarding = true;
  cfg.ghostRadiusM = 25.0;

  const bool peakReset = resetPeakRss();
  const WallClock::time_point s0 = WallClock::now();
  cluster::PartitionedCluster run{std::move(cfg)};
  const double setup =
      std::chrono::duration<double>(WallClock::now() - s0).count();
  run.scheduleDrain(static_cast<std::uint32_t>(shards - 1),
                    TimePoint::epoch() + measure * 0.5);

  const WallClock::time_point t0 = WallClock::now();
  const cluster::PartitionedClusterStats stats =
      run.run(measure, Duration::seconds(5));
  const double wall =
      std::chrono::duration<double>(WallClock::now() - t0).count();

  MillionRow row;
  row.threads = threads;
  row.wallSeconds = wall;
  row.setupSeconds = setup;
  row.events = stats.engine.eventsExecuted;
  row.rounds = stats.engine.rounds;
  row.coalescedWindows = stats.engine.coalescedWindows;
  row.digest = run.digest();
  row.lost = stats.expectedDeliveries - stats.delivered;
  row.migratedUsers = stats.migratedUsers;
  row.migrationHops = stats.migrationHops;
  row.ghostsSent = stats.ghostsSent;
  row.ghostsReceived = stats.ghostsReceived;
  if (peakReset) row.peakRssMb = peakRssMb();
  return row;
}

int runMillionMode(int users, int shards, Duration measure) {
  bench::header(
      "Million-user partitioned run — " + std::to_string(users) +
          " users on " + std::to_string(shards) + " shard partitions",
      "direct links + adaptive windows + AOI lattice; digest must be "
      "byte-identical across {1,2,8} workers with zero lost deliveries");

  const unsigned hostCores = std::thread::hardware_concurrency();
  const std::vector<unsigned> counts = {1, 2, 8};
  std::vector<MillionRow> rows;
  rows.reserve(counts.size());
  for (const unsigned n : counts) {
    rows.push_back(runMillion(n, users, shards, measure));
    const MillionRow& r = rows.back();
    std::printf("  [%u worker%s] wall %.3fs (+%.3fs setup), %" PRIu64
                " events, %" PRIu64 " rounds, peak RSS %s MB\n",
                r.threads, r.threads == 1 ? "" : "s", r.wallSeconds,
                r.setupSeconds, r.events, r.rounds,
                fmtPeak(r.peakRssMb).c_str());
  }

  const double base = rows.front().wallSeconds;
  TablePrinter table{{"threads", "wall s", "speedup", "events/s",
                      "events/s/core", "rounds", "coalesced", "peak RSS MB",
                      "digest"}};
  for (const MillionRow& r : rows) {
    const double perSec =
        r.wallSeconds > 0.0 ? static_cast<double>(r.events) / r.wallSeconds
                            : 0.0;
    char digestHex[32];
    std::snprintf(digestHex, sizeof(digestHex), "%016" PRIx64, r.digest);
    table.addRow({std::to_string(r.threads), fmtD(r.wallSeconds, 3),
                  fmtD(r.wallSeconds > 0.0 ? base / r.wallSeconds : 0.0, 2),
                  fmtD(perSec / 1e6, 3) + "M",
                  fmtD(perSec / 1e6 / r.threads, 3) + "M",
                  std::to_string(r.rounds), std::to_string(r.coalescedWindows),
                  fmtPeak(r.peakRssMb), digestHex});
  }
  table.print(std::cout);

  bool digestsMatch = true;
  bool ledgerBalanced = true;
  std::uint64_t lostTotal = 0;
  for (const MillionRow& r : rows) {
    digestsMatch = digestsMatch && r.digest == rows.front().digest;
    ledgerBalanced = ledgerBalanced && r.ghostsSent == r.ghostsReceived;
    lostTotal += r.lost;
  }
  const MillionRow& first = rows.front();
  std::printf("\ndigest check: %s across {1,2,8} workers\n",
              digestsMatch ? "byte-identical" : "DIVERGED");
  std::printf("zero-loss check: %" PRIu64 " deliveries lost (must be 0)\n",
              lostTotal);
  std::printf("ghost ledger: %" PRIu64 " sent / %" PRIu64 " received (%s)\n",
              first.ghostsSent, first.ghostsReceived,
              ledgerBalanced ? "balanced" : "IMBALANCED");
  std::printf("drain: %" PRIu64 " users migrated in %" PRIu64
              " cross-partition hops (2 per direct-link migration)\n",
              first.migratedUsers, first.migrationHops);
  double peak = -1.0;
  for (const MillionRow& r : rows) peak = std::max(peak, r.peakRssMb);
  if (peak >= 0.0) {
    std::printf("peak RSS: %.0f MB for %d users (%.1f KB/user, largest "
                "row) on a %u-core host\n",
                peak, users, peak * 1024.0 / static_cast<double>(users),
                hostCores);
  } else {
    std::printf("peak RSS: n/a (cannot reset VmHWM per row) on a %u-core "
                "host\n",
                hostCores);
  }

  std::string json = "{\n  \"context\": {\n";
  json += "    \"host_cores\": " + std::to_string(hostCores) + ",\n";
  json += "    \"cpu_model\": \"" + cpuModel() + "\",\n";
  json += "    \"users\": " + std::to_string(users) + ",\n";
  json += "    \"shards\": " + std::to_string(shards) + ",\n";
  json += "    \"measure_s\": " + fmtD(measure.toSeconds(), 1) + "\n  },\n";
  json += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MillionRow& r = rows[i];
    const double perSec =
        r.wallSeconds > 0.0 ? static_cast<double>(r.events) / r.wallSeconds
                            : 0.0;
    char digestHex[32];
    std::snprintf(digestHex, sizeof(digestHex), "%016" PRIx64, r.digest);
    json += "    {\"name\": \"BM_ClusterPdesMillion/threads:" +
            std::to_string(r.threads) + "\", \"real_time\": " +
            fmtD(r.wallSeconds, 6) + ", \"time_unit\": \"s\", " +
            "\"items_per_second\": " + fmtD(perSec, 1) + ", " +
            "\"events_per_second_per_core\": " + fmtD(perSec / r.threads, 1) +
            ", \"speedup\": " +
            fmtD(r.wallSeconds > 0.0 ? base / r.wallSeconds : 0.0, 3) +
            ", \"rounds\": " + std::to_string(r.rounds) +
            ", \"coalesced_windows\": " + std::to_string(r.coalescedWindows) +
            ", \"peak_rss_mb\": " +
            (r.peakRssMb < 0.0 ? std::string{"null"} : fmtD(r.peakRssMb, 1)) +
            ", \"digest\": \"" +
            digestHex + "\"}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::printf("\n%s", json.c_str());
  if (const char* path = std::getenv("MSIM_PDES_JSON")) {
    std::ofstream out{path};
    out << json;
    std::printf("wrote %s\n", path);
  }
  return digestsMatch && ledgerBalanced && lostTotal == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = envInt("MSIM_PDES_SWEEP", 0) > 0;
  bool million = envInt("MSIM_PDES_MILLION", 0) > 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--threads-sweep") sweep = true;
    if (std::string{argv[i]} == "--million") million = true;
  }
  if (million) {
    // 1M users over 64 shards unless overridden (CI smokes a scaled copy);
    // the window is short because the event rate, not the horizon, is the
    // quantity under test.
    return runMillionMode(envInt("MSIM_CLUSTER_USERS", 1000000),
                          envInt("MSIM_CLUSTER_INSTANCES", 64),
                          bench::measureWindow(1.0));
  }
  const int users = envInt("MSIM_CLUSTER_USERS", 10000);
  const int instances = envInt("MSIM_CLUSTER_INSTANCES", 32);
  if (sweep) {
    return runThreadsSweep(users, instances, bench::measureWindow(10.0));
  }
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
        return runCluster(seed, users, instances, measure);
      });

  std::string report;
  TablePrinter table{{"seed#", "broadcasts", "delivered", "lost", "migrated",
                      "max util", "per-user down Mbps"}};
  std::uint64_t lostTotal = 0;
  double downMean = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const std::uint64_t lost = r.expectedDeliveries - r.delivered;
    lostTotal += lost;
    downMean += r.perUserDownMbps;
    table.addRow({std::to_string(i), std::to_string(r.broadcasts),
                  std::to_string(r.delivered), std::to_string(lost),
                  std::to_string(r.migratedUsers), fmtD(r.maxUtilization, 3),
                  fmtD(r.perUserDownMbps, 3)});
    report += std::to_string(r.broadcasts) + "," +
              std::to_string(r.delivered) + "," + std::to_string(lost) + "," +
              std::to_string(r.migratedUsers) + "," +
              fmtD(r.maxUtilization, 6) + ";";
    for (const std::size_t u : r.usersPerShard) report += std::to_string(u) + " ";
    for (const std::uint64_t f : r.forwardsPerShard) {
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
  return lostTotal == 0 ? 0 : 1;
}
