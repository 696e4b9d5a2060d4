// Session-tier churn: connect storms, steady churn, reconnect storms, and
// the thundering-herd comparison.
//
// The paper's clients were born connected and never left (§4.1 measures two
// quiet headsets); a platform's worst control-plane day is the opposite — a
// relay dies and every session it held storms the gateway at once. This
// bench drives the src/session lifecycle machine through four canonical
// days-in-the-life and reports the connect-queue pressure each one puts on
// the control tier:
//
//   flash-crowd    every session connects at t=0 (the launch-day ramp)
//   steady         staggered connects, token refreshes, no disruption
//   crash-storm    a shard dies silently mid-run; ping deadlines detect it,
//                  backoff spreads the reconnects, history replay recovers
//                  every missed channel message (zero loss, exactly-once)
//   expiry-wave    refresh disabled; every token expires and forces re-auth
//
// The herd comparison then force-disconnects every session at one instant
// and runs the same recovery twice — synchronized backoff vs full jitter
// from the sim RNG — and gates the jittered run's peak connect queue
// against the analytic bound for uniformly spread retries (herdPeakLimit).
//
// Exit gates (non-zero exit on failure):
//   * zero loss / zero duplicates / zero gaps in every scenario seed
//   * jittered peak queue <= max(0, N - W/connectCost) + 3*sqrt(N) <
//     synchronized peak queue
//   * audit digests byte-identical across MSIM_THREADS {1,2,8}
//
// Knobs: MSIM_CHURN_SESSIONS (default 1000; the herd gate holds for 10 to
//        54,444 sessions, other counts exit 2), MSIM_CHURN_SHARDS (8),
//        MSIM_CHURN_CHANNELS (16), plus the common MSIM_SEEDS.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/sweep.hpp"
#include "cluster/sessions.hpp"
#include "common.hpp"
#include "core/seedsweep.hpp"

using namespace msim;
using namespace msim::cluster;

namespace {

ChurnWorkloadConfig baseConfig() {
  ChurnWorkloadConfig cfg;
  cfg.sessions = bench::envKnob("MSIM_CHURN_SESSIONS", 1000);
  cfg.shards = bench::envKnob("MSIM_CHURN_SHARDS", 8);
  cfg.channels = bench::envKnob("MSIM_CHURN_CHANNELS", 16);
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

/// The thundering herd: every session force-disconnected at 20 s.
ChurnWorkloadConfig herdConfig(const ChurnWorkloadConfig& base) {
  ChurnWorkloadConfig herd = base;
  herd.herdAt = Duration::seconds(20);
  herd.connectCost = Duration::millis(2);
  herd.session.backoffFactor = 8.0;
  return herd;
}

/// The highest connect queue a run with jittered retries may reach. The
/// initial connects and the herd's first retries each land uniformly over a
/// window W (the connect window; the first backoff draw's span), and the hub
/// drains one connect per connectCost, so a phase queues at most
/// max(0, N - W/connectCost). N uniform draws stray from an even spread by
/// more than 3*sqrt(N) with probability below 2e^-18 (Kolmogorov-Smirnov).
/// Synchronized retries land at once and queue all N.
double herdPeakLimit(const ChurnWorkloadConfig& herd) {
  const session::SessionConfig& s = herd.session;
  const Duration firstRetrySpan =
      std::min(s.maxReconnectDelay, s.minReconnectDelay * s.backoffFactor) -
      s.minReconnectDelay;
  const double window =
      std::min(firstRetrySpan, herd.connectWindow).toSeconds();
  const double n = herd.sessions;
  return std::max(0.0, n - window / herd.connectCost.toSeconds()) +
         3.0 * std::sqrt(n);
}

struct ScenarioAgg {
  std::string name;
  std::uint64_t connects{0};
  std::uint64_t reconnects{0};
  std::uint64_t received{0};
  std::uint64_t recovered{0};
  std::uint64_t lost{0};
  std::uint64_t duplicates{0};
  std::uint64_t gaps{0};
  std::uint64_t fullRejoins{0};
  std::size_t peakQueue{0};
  double peakInflation{0.0};
  std::uint64_t digest{0};
};

ScenarioAgg runScenario(const std::string& name,
                        const ChurnWorkloadConfig& cfg,
                        const std::vector<std::uint64_t>& seeds) {
  const auto runs = runSeedSweep(seeds, [&cfg](std::uint64_t seed) {
    return runChurnWorkload(seed, cfg);
  });
  ScenarioAgg agg;
  agg.name = name;
  for (const ChurnWorkloadResult& r : runs) {
    agg.connects += r.connects;
    agg.reconnects += r.reconnects;
    agg.received += r.received;
    agg.recovered += r.recovered;
    agg.lost += r.lost;
    agg.duplicates += r.duplicates;
    agg.gaps += r.gaps;
    agg.fullRejoins += r.fullRejoins;
    if (r.peakPendingConnects > agg.peakQueue) {
      agg.peakQueue = r.peakPendingConnects;
    }
    if (r.peakQueueInflation > agg.peakInflation) {
      agg.peakInflation = r.peakQueueInflation;
    }
    agg.digest ^= r.fingerprint.digest;
  }
  return agg;
}

}  // namespace

int main() {
  const int seedCount = bench::seedCount(3);
  const auto seeds = defaultSeeds(seedCount);
  const ChurnWorkloadConfig base = baseConfig();
  const ChurnWorkloadConfig herd = herdConfig(base);
  const double herdLimit = herdPeakLimit(herd);
  if (herdLimit >= base.sessions) {
    std::fprintf(stderr,
                 "bench_session_churn: MSIM_CHURN_SESSIONS=%d is outside the "
                 "herd gate's valid range (10 to 54,444 sessions): a "
                 "synchronized herd of that size would not exceed the "
                 "jittered bound of %.0f\n",
                 base.sessions, herdLimit);
    return 2;
  }
  bench::header(
      "Session churn — " + std::to_string(base.sessions) + " sessions, " +
          std::to_string(base.shards) + " shards, " +
          std::to_string(base.channels) + " channels",
      "connection lifecycle beyond §4.1's steady capture; " +
          std::to_string(seedCount) + " seeds");

  std::vector<ScenarioAgg> rows;
  {
    ChurnWorkloadConfig cfg = base;
    cfg.connectWindow = Duration::zero();  // everyone at t=0
    rows.push_back(runScenario("flash-crowd", cfg, seeds));
  }
  {
    ChurnWorkloadConfig cfg = base;
    cfg.tokenTtl = Duration::seconds(30);
    cfg.session.tokenRefreshLead = Duration::seconds(10);
    rows.push_back(runScenario("steady", cfg, seeds));
  }
  {
    ChurnWorkloadConfig cfg = base;
    cfg.crashAt = Duration::seconds(20);
    rows.push_back(runScenario("crash-storm", cfg, seeds));
  }
  {
    ChurnWorkloadConfig cfg = base;
    cfg.tokenTtl = Duration::seconds(15);
    cfg.session.tokenRefreshLead = Duration::zero();
    rows.push_back(runScenario("expiry-wave", cfg, seeds));
  }

  TablePrinter table{{"scenario", "connects", "reconnects", "received",
                      "recovered", "lost", "dup", "gap", "rejoin", "peak q",
                      "peak inflation"}};
  std::uint64_t lostTotal = 0;
  std::uint64_t reportDigest = 0;
  for (const ScenarioAgg& r : rows) {
    lostTotal += r.lost + r.duplicates + r.gaps;
    reportDigest ^= r.digest;
    table.addRow({r.name, std::to_string(r.connects),
                  std::to_string(r.reconnects), std::to_string(r.received),
                  std::to_string(r.recovered), std::to_string(r.lost),
                  std::to_string(r.duplicates), std::to_string(r.gaps),
                  std::to_string(r.fullRejoins), std::to_string(r.peakQueue),
                  fmt(r.peakInflation, 1)});
  }
  table.print(std::cout);

  // Thundering herd: same seed, same forced disconnect, backoff style
  // flipped. Synchronized retries arrive in lockstep and pile the connect
  // queue; full jitter spreads the same load across the backoff window.
  ChurnWorkloadConfig herdSync = herd;
  herdSync.session.jitteredBackoff = false;
  const ChurnWorkloadResult sync = runChurnWorkload(seeds[0], herdSync);
  const ChurnWorkloadResult jit = runChurnWorkload(seeds[0], herd);
  lostTotal += sync.lost + sync.duplicates + sync.gaps;
  lostTotal += jit.lost + jit.duplicates + jit.gaps;
  const bool herdOk =
      static_cast<double>(jit.peakPendingConnects) <= herdLimit &&
      static_cast<double>(sync.peakPendingConnects) > herdLimit;
  std::printf(
      "\nthundering herd (forced disconnect of %zu sessions, factor %.0f):\n"
      "  synchronized backoff: peak queue %zu, peak inflation %.1f slots\n"
      "  jittered backoff:     peak queue %zu, peak inflation %.1f slots\n"
      "  gate: jittered peak <= %.0f (uniform-spread bound) < synchronized "
      "peak  [%s]\n",
      sync.sessions, herd.session.backoffFactor, sync.peakPendingConnects,
      sync.peakQueueInflation, jit.peakPendingConnects,
      jit.peakQueueInflation, herdLimit, herdOk ? "ok" : "FAIL");

  // Cross-thread-count determinism: the crash-storm scenario, swept at 1 vs
  // 2 and 1 vs 8 workers, must fingerprint identically per seed.
  ChurnWorkloadConfig inv = base;
  inv.crashAt = Duration::seconds(20);
  auto fingerprint = [&inv](std::uint64_t seed) {
    return runChurnWorkload(seed, inv).fingerprint;
  };
  bool digestsOk = true;
  for (const unsigned threads : {2u, 8u}) {
    const auto report =
        audit::verifyThreadInvariance(seeds, fingerprint, 1, threads);
    digestsOk = digestsOk && report.identical;
    std::printf("digest check @%u threads: %s\n", threads,
                report.describe().c_str());
  }

  std::printf("zero-loss check: %" PRIu64
              " lost+duplicate+gap deliveries (must be 0)\n",
              lostTotal);
  std::printf("report digest: %016" PRIx64
              "  (byte-identical for any MSIM_THREADS)\n",
              reportDigest);
  std::printf(
      "\npaper checkpoints: §4.2 saw sessions pinned to a single relay\n"
      "address — this is what happens when that address dies at scale. The\n"
      "storm drains through the gateway's sticky-unless-dead placement,\n"
      "channel recovery replays the missed interval instead of a full-state\n"
      "rejoin, and jittered backoff is the difference between a flat\n"
      "reconnect ramp and a control-plane spike.\n");
  return lostTotal == 0 && herdOk && digestsOk ? 0 : 1;
}
