#pragma once

// Shared plumbing of the repository benchmark: options, the result record
// every workload fills, the metric catalogue, and small statistics helpers.
// Each workload runs in its own process (see main.cpp), so the process-wide
// peak RSS it reports belongs to that workload alone.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string traceOut;  // span file written at exit when tracing
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run.
inline constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},          {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"slice_ms.p50", "ms"},  {"slice_ms.p90", "ms"},
};

/// Reported by every traced run; a layer a workload does not load reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.cascades_per_event", "ratio"},
    {"sim.allocs_per_event", "ratio"},
    {"net.tap_packets", "count"},
    {"net.events_per_captured_packet", "ratio"},
    {"net.allocs_per_captured_packet", "ratio"},
    {"net.arena_hit_ratio", "ratio"},
    {"net.queue_drops", "count"},
    {"transport.tcp_packets", "count"},
    {"transport.udp_packets", "count"},
    {"capture.packets", "count"},
    {"capture.records_mb", "MB"},
    {"relay.forwards", "count"},
    {"relay.forwards_per_broadcast", "ratio"},
    {"setup.testbed_s", "s"},
    {"setup.deploy_s", "s"},
    {"setup.users_s", "s"},
    {"setup.cluster_s", "s"},
    {"pdes.rounds", "count"},
    {"pdes.events_per_round", "ratio"},
    {"pdes.messages", "count"},
    {"pdes.coalesced_windows", "count"},
    {"pdes.idle_fraction.mean", "ratio"},
    {"pdes.idle_fraction.max", "ratio"},
    {"pdes.speedup", "ratio"},
    {"pdes.efficiency", "ratio"},
    {"cluster.migrated_users", "count"},
    {"cluster.migration_hops", "count"},
    {"cluster.ghosts", "count"},
    {"cluster.max_utilization", "ratio"},
    {"mem.rss_kb_per_user", "KB"},
    {"session.received", "count"},
    {"session.recovered", "count"},
    {"session.reconnects", "count"},
    {"session.ping_timeouts", "count"},
    {"session.full_rejoins", "count"},
    {"session.peak_pending_connects", "count"},
    {"session.ns_per_delivery", "ns"},
    {"slice.samples", "count"},
    {"trace.run_s", "s"},
    {"trace.overhead_s", "s"},
};

/// What one workload run produced. `attempted`/`failed` count operations
/// (one sweep point, one planet run, one churn run, one self-test).
struct Result {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  // one line per failed check
  std::uint64_t fingerprint{0};       // folded audit digests of one pass
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  /// Counts one checked operation; records `why` when it failed.
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(why);
    }
  }
};

/// Host times of the passes of one run. Every pass repeats the same
/// operations in the same order, so sample i of each pass measures the same
/// work. The run reports its fastest pass, the sample-wise minimum across
/// passes: load from other processes on the host only ever adds time, and on
/// a shared host it comes in bursts, so the fastest repeat of each operation
/// is the steadiest estimate of what the program itself costs.
struct PassTimes {
  std::vector<std::vector<double>> runS;    // [pass][operation]
  std::vector<std::vector<double>> setupS;  // [pass][operation]
  // [pass][operation][simulated slice]
  std::vector<std::vector<std::vector<double>>> sliceMs;

  void addPass() {
    runS.emplace_back();
    setupS.emplace_back();
    sliceMs.emplace_back();
  }
  /// Sum of the fastest pass's operation run times.
  [[nodiscard]] double run() const;
  /// Slices of one operation in one pass.
  [[nodiscard]] std::size_t slices() const;
};

/// Sets run_s, setup_s, peak_rss_mb and slice_ms.p50/.p90 from `t`. The
/// slice percentiles are taken within each operation and averaged over the
/// operations: pooled across a sweep's points, whose slice costs differ by up
/// to 50x, a percentile sits on the edge between two points and jumps when
/// they trade places.
void setEndToEnd(const PassTimes& t, Result& r);

Result runUsersSweep(const Options& opt);
Result runClusterTier(const Options& opt);

// ---- host time and memory -------------------------------------------------

using WallClock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// Runs `pass` at least once, and again while a pass as long as the last one
/// would still end within `seconds` of `t0`, so that a run lasts about its
/// budget instead of overshooting it by up to a whole pass.
template <typename Pass>
void repeatWithin(double seconds, WallClock::time_point t0, Pass&& pass) {
  double last = 0.0;
  do {
    const WallClock::time_point start = WallClock::now();
    pass();
    last = secondsSince(start);
  } while (secondsSince(t0) + last <= seconds);
}

/// Process peak resident set (VmHWM), MB.
[[nodiscard]] double peakRssMb();
/// Current resident set (VmRSS), KB.
[[nodiscard]] double currentRssKb();

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Element i is the smallest passes[p][i] over all passes p.
[[nodiscard]] std::vector<double> fastestPass(
    const std::vector<std::vector<double>>& passes);
/// Coefficient of determination of the least-squares line y ~ x.
[[nodiscard]] double rSquared(const std::vector<double>& x,
                              const std::vector<double>& y);
/// a / b, or 0 when b is 0.
[[nodiscard]] inline double ratio(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

/// Order-sensitive fold of 64-bit values (splitmix finaliser); folds audit
/// digests into a fingerprint and derives operation seeds from the run seed.
[[nodiscard]] std::uint64_t fold(std::uint64_t acc, std::uint64_t v);

}  // namespace perfbench
