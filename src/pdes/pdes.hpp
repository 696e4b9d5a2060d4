#pragma once

// msim::pdes — conservative, bit-deterministic parallel discrete-event
// simulation across partitions of ONE run.
//
// core/seedsweep parallelizes *across* runs; this engine parallelizes
// *inside* a run. A run is split into partitions — logical processes — each
// owning a private Simulator (its own timer-wheel event queue, clock, RNG
// stream, and audit chain). Partitions interact only through declared
// directed links, each carrying a strictly positive `lookahead`: a promise
// that anything sent on the link arrives at least that much simulated time
// after the send instant. For the cluster workload the lookahead is real
// physics — the geo fabric's trunk RTT between shard regions (tens of ms in
// the source paper's measurements) versus microsecond-scale intra-shard
// event spacing — which is exactly why conservative synchronization pays.
//
// Synchronization is barrier-window conservative (Chandy–Misra–Bryant made
// synchronous): the engine repeatedly
//   1. delivers the previous window's cross-partition messages in one
//      canonical order (recv time, source partition, per-source sequence),
//   2. computes each partition's earliest output time (EOT) by fixed point
//        E_j = min(localNextEvent_j, min over links s->j of (E_s + L_sj))
//      — the synchronous equivalent of CMB null messages: E_j is exactly
//      the null-message timestamp partition j would broadcast, and the
//      relaxation propagates them transitively in one pass,
//   3. bounds each partition by its incoming links,
//        bound_i = min over links s->i of (E_s + L_si),
//      and lets every partition execute all events strictly below its
//      bound, in parallel, with sends accumulating in partition-local
//      outboxes.
// Positive lookahead on every link makes some partition's bound exceed the
// global minimum EOT each round, so the window always advances: no
// deadlock, for any topology, including cycles (see the low-lookahead
// stress test in tests/pdes_test.cpp).
//
// Adaptive window sizing (EngineConfig::adaptiveWindows) generalizes the
// per-link lookahead with per-link *send promises*: a partition may declare
// promiseNoSendBefore(dst, t) — it will not call send() toward dst before
// absolute simulated time t. The EOT relaxation then uses the per-channel
// output bound max(E_s, P_sd) + L_sd instead of E_s + L_sd, so a link whose
// sender is provably quiet stops throttling its receiver and a partition
// with slack coalesces what would have been many lookahead-sized windows
// into one barrier crossing. Promises only ever *raise* bounds relative to
// the plain fixed point, so deadlock-freedom and the determinism argument
// below are unchanged; send() enforces every promise the way it enforces
// lookahead — by throwing. RunReport::coalescedWindows counts how often a
// promise floor set a partition's window bound (a lower bound of how often
// promises extended it past the promise-free horizon; see RunReport).
//
// Determinism argument (the property PR-3's audit layer pins):
//   * the partition structure and link table are fixed by the caller and
//     never depend on the worker count;
//   * each partition's event order is its Simulator's (time, schedule-seq)
//     order — single-threaded, untouched by the engine;
//   * window bounds are pure functions of queue states and the link table,
//     so every round cuts the timeline identically for any worker count;
//   * cross-partition messages are injected between rounds, by one thread,
//     in the canonical (recvTime, src, srcSeq) order, so destination
//     sequence stamps — and therefore same-time tie-breaks — are identical
//     no matter which worker ran the sender;
//   * per-partition RNG streams are seeded from (engine seed, partition id)
//     and never shared.
// Worker threads only ever decide *which core* runs a partition's window,
// never *what* the window contains. auditFingerprint() folds per-partition
// digests in partition-id order, so audit::verifyThreadInvariance can pin
// parallel runs byte-identical to sequential ones.
//
// Worker sourcing: EngineConfig::threads > 0 pins the pool size (bench
// sweeps use this); threads == 0 leases workers from the process-wide
// ThreadBudget, so a PDES engine nested inside a seed sweep consumes only
// what the sweep left over and MSIM_THREADS is honored end to end. The seed
// sweep's pool (util/workerpool.hpp) serves run()'s rounds and
// forEachPartition(), the construction-time fan-out that lets a workload
// build each partition's state in parallel.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "audit/auditor.hpp"
#include "sim/simulator.hpp"
#include "util/function.hpp"
#include "util/time.hpp"

namespace msim::pdes {

class Engine;

/// A timestamped cross-partition event in flight: `fn` executes on the
/// destination partition's Simulator at `recvTimeNs`. (src, srcSeq) is the
/// canonical tie-break identity for same-instant arrivals.
struct ChannelMessage {
  std::uint32_t dst{0};
  std::int64_t recvTimeNs{0};
  std::uint32_t src{0};
  std::uint64_t srcSeq{0};
  UniqueFunction fn;
};

/// One logical process: a private Simulator plus outboxes toward linked
/// partitions. Created and owned by an Engine; user code populates it by
/// scheduling events on sim() before run() and by send()ing from within
/// executing events.
class Partition {
 public:
  [[nodiscard]] Simulator& sim() { return *sim_; }
  [[nodiscard]] const Simulator& sim() const { return *sim_; }
  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// Sends `fn` to execute on partition `dst` at absolute time `recvTime`.
  /// Must be called from the owning partition's executing events (or before
  /// run()), and must respect the link contract:
  ///   recvTime >= sim().now() + engine lookahead(id() -> dst).
  /// Violations throw std::logic_error — a lookahead breach would silently
  /// corrupt the conservative schedule, so it fails loudly instead.
  void send(std::uint32_t dst, TimePoint recvTime, UniqueFunction fn);

  /// Declares that this partition will not call send() toward `dst` before
  /// absolute simulated time `earliest`. Promises are monotone — a later
  /// promise may only move the floor forward (retrograde promises throw) —
  /// and are enforced by send() exactly like the link lookahead. Callable
  /// before run() (topology-derived schedules) or from this partition's own
  /// executing events (e.g. "quiet until my next pacing tick"); an update
  /// made inside a window takes effect at the next barrier. Under
  /// EngineConfig::adaptiveWindows the bound computation uses
  /// max(EOT, promise) + lookahead per channel, letting receivers of quiet
  /// links coalesce windows.
  void promiseNoSendBefore(std::uint32_t dst, TimePoint earliest);

 private:
  friend class Engine;
  Partition(Engine& engine, std::uint32_t id, std::uint64_t seed);

  Engine& engine_;
  std::uint32_t id_;
  std::unique_ptr<Simulator> sim_;
  std::uint64_t sendSeq_{0};
  std::vector<ChannelMessage> outbox_;
  std::size_t executed_{0};  // events dispatched in the current round
};

struct EngineConfig {
  /// Worker threads for run() and forEachPartition(). 0 = lease from
  /// ThreadBudget::process() (honors MSIM_THREADS and composes with seed
  /// sweeps); > 0 pins the count. Results are bit-identical either way.
  unsigned threads{0};
  /// Enable per-partition audit digests (audit/auditor.hpp).
  bool audit{false};
  /// Honor per-link send promises when computing window bounds (window
  /// coalescing). Promises are *enforced* either way; turning this off only
  /// makes the bound computation ignore them — the uncoalesced comparator
  /// the adaptive-window tests pin digests against.
  bool adaptiveWindows{true};
};

/// What one run() did.
struct RunReport {
  std::uint64_t rounds{0};             // synchronization windows executed
  std::uint64_t eventsExecuted{0};     // across all partitions
  std::uint64_t messagesDelivered{0};  // cross-partition
  /// (round, partition) pairs whose bound a promise floor set: the bound
  /// exceeds min over incoming links s->i of (E_s + L_si), taken with the
  /// round's own EOTs E and no promise floors. Those EOTs already carry
  /// upstream promises, so this is a lower bound of the count against a
  /// second, fully promise-free fixed point — which the engine does not
  /// compute.
  std::uint64_t coalescedWindows{0};
  unsigned workers{1};                 // pool size actually used
  /// Per partition: fraction of this run's rounds in which the partition
  /// executed zero events — the idle share the coalescing is meant to
  /// shrink. Empty when rounds == 0.
  std::vector<double> idleFraction;
};

/// The conservative synchronization engine. Construction fixes the
/// partition count; link() declares the topology; run() executes.
class Engine {
 public:
  Engine(std::uint32_t partitions, std::uint64_t seed, EngineConfig cfg = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] std::uint32_t partitionCount() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }
  [[nodiscard]] Partition& partition(std::uint32_t i) {
    return *partitions_[i];
  }
  [[nodiscard]] const Partition& partition(std::uint32_t i) const {
    return *partitions_[i];
  }

  /// Declares a directed channel src -> dst whose messages arrive at least
  /// `lookahead` (> 0) after their send instant. Re-linking overwrites.
  void link(std::uint32_t src, std::uint32_t dst, Duration lookahead);

  /// The declared lookahead, or a negative Duration when not linked.
  [[nodiscard]] Duration lookahead(std::uint32_t src, std::uint32_t dst) const;

  /// Whether a src -> dst channel has been declared.
  [[nodiscard]] bool linked(std::uint32_t src, std::uint32_t dst) const {
    return lookaheadNs(src, dst) >= 0;
  }

  /// The current send floor promised on src -> dst (epoch when none).
  [[nodiscard]] TimePoint sendPromise(std::uint32_t src,
                                      std::uint32_t dst) const {
    return TimePoint::fromNanos(
        promiseNs_[static_cast<std::size_t>(src) * partitions_.size() + dst]);
  }

  /// Runs every partition to `limit` under conservative synchronization;
  /// on return all partition clocks sit exactly at `limit` and no event at
  /// or before `limit` is pending. Callable repeatedly with increasing
  /// limits.
  RunReport run(TimePoint limit);

  /// Calls fn(partition) once for every partition, fanned out over the
  /// worker pool run() uses (same worker choice). For setup work that
  /// touches only state owned by the partition it is handed, never another
  /// partition's. Exceptions are collected per partition;
  /// once every worker has joined, the one thrown for the lowest partition
  /// index is rethrown.
  void forEachPartition(const std::function<void(Partition&)>& fn);

  /// Per-partition audit digests folded in partition-id order. The trail
  /// holds one entry per partition (its digest), so a divergence report
  /// names the first divergent *partition* rather than a raw event index.
  [[nodiscard]] audit::RunFingerprint auditFingerprint() const;
  [[nodiscard]] std::uint64_t auditDigest() const;

 private:
  friend class Partition;

  [[nodiscard]] std::int64_t lookaheadNs(std::uint32_t src,
                                         std::uint32_t dst) const {
    return lookaheadNs_[static_cast<std::size_t>(src) * partitions_.size() +
                        dst];
  }

  std::size_t deliverPending();  // canonical cross-partition injection
  void notePromise(std::uint32_t src, std::uint32_t dst, TimePoint earliest);
  /// Computes eot_/boundNs_ in one pass; returns how many partitions' bounds
  /// a promise floor set this round (see RunReport::coalescedWindows).
  std::uint64_t computeBounds(std::int64_t limitNs);

  struct Link {
    std::uint32_t src;
    std::uint32_t dst;
    std::int64_t lookaheadNs;
  };

  EngineConfig cfg_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<Link> links_;  // run() sorts it by (dst, src)
  std::vector<std::int64_t> lookaheadNs_;  // dense src*P+dst, -1 = none
  std::vector<std::int64_t> promiseNs_;  // dense src*P+dst send floors
  std::vector<char> promisedAny_;        // per src; avoids a shared-bool race
  std::vector<ChannelMessage> inboxScratch_;
  std::vector<std::int64_t> eot_;      // EOT fixed point, per partition
  std::vector<std::int64_t> boundNs_;  // exclusive execution bound
  std::vector<std::uint64_t> idleRounds_;  // per partition, current run()
  // Cross-partition injections fold into a per-destination digest chain in
  // canonical delivery order. Keeping the chain on the engine side (rather
  // than auditNote-ing into the destination sim's interleaved event chain)
  // makes the fingerprint independent of *window structure*: a coalesced
  // and an uncoalesced run inject the same messages in the same canonical
  // order even though the barrier cuts differ, so their digests match
  // byte-for-byte.
  std::vector<std::uint64_t> injectionDigest_;
};

}  // namespace msim::pdes
