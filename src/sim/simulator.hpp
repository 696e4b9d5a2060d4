#pragma once

// The discrete-event engine every other module runs on.
//
// Design notes:
//  * Deterministic: events at equal timestamps fire in scheduling order.
//    Every scheduled event carries a monotone sequence stamp, and dispatch
//    order is exactly (time, sequence) — FIFO-within-time by construction,
//    regardless of which queue tier an event waited in.
//  * O(1) scheduling at paper scale: the front-end is a hierarchical timer
//    wheel (power-of-two lanes, ~1us granularity at level 0 scaling 8x per
//    level, ~134ms horizon) so the dominant all-distinct-timestamp regime
//    (link transmissions, per-connection timeouts, jittered avatar ticks)
//    pays one lane append per schedule — no hash probe, no big-heap sift.
//    Far-future events park in an overflow tier (a binary min-heap by
//    (time, seq)) and cascade down the wheel levels as the clock advances;
//    see DESIGN.md §10 for the cascade rules.
//  * Allocation-free hot path: callbacks live in a generation-counted slot
//    pool (recycled via a free list) and are stored as small-buffer
//    UniqueFunctions; wheel lanes, the dispatch drain run, and the overflow
//    heap all recycle their storage, so steady-state schedule/fire cycles
//    never touch the allocator.
//  * Cancellable: schedule() returns an EventId = {slot, generation};
//    cancel() frees the slot in O(1) and bumps its generation, so the id
//    (and any stale wheel/overflow entry) is dead immediately — valid() is
//    exact, not lazy. Tombstones are dropped at the first cascade that
//    touches them instead of surviving until their due time.
//  * Single-threaded by design (CP.1 notwithstanding): one Simulator is one
//    logical process and is never shared across threads. Parallelism lives
//    a layer up — across seeds (core/seedsweep.hpp) or across partitions of
//    one run (pdes/pdes.hpp), where each partition owns a private Simulator
//    and the engine alone decides how far each may safely run. For that
//    engine, nextEventTimeLowerBound() exposes a conservative bound on the
//    next dispatch time without popping anything.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "audit/auditor.hpp"
#include "util/function.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace msim {

class Simulator;

/// Opaque handle for a scheduled event, used only for cancellation and
/// liveness queries. Must not outlive its Simulator.
class EventId {
 public:
  EventId() = default;
  /// True while the event is scheduled and uncancelled; false immediately
  /// after cancel() and immediately after the callback fires.
  [[nodiscard]] inline bool valid() const;

 private:
  friend class Simulator;
  EventId(const Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_{sim}, slot_{slot}, gen_{gen} {}
  const Simulator* sim_{nullptr};
  std::uint32_t slot_{0};
  std::uint32_t gen_{0};
};

/// The simulation kernel: a clock plus an ordered event queue.
class Simulator {
 public:
  using Callback = UniqueFunction;

  explicit Simulator(std::uint64_t seed = 1)
      : wheelLanes_(static_cast<std::size_t>(kWheelLevels) * kWheelSlots),
        rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotone during run().
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (clamped to now if in the past).
  EventId schedule(TimePoint t, Callback cb);

  /// Schedules `cb` after `delay` from now (negative treated as zero).
  EventId scheduleAfter(Duration delay, Callback cb);

  /// Schedules an event injected from OUTSIDE this simulation (the PDES
  /// engine's cross-partition deliveries) with a caller-provided audit
  /// stamp. Identical to schedule() for ordering purposes, but the event's
  /// audit identity is `stamp` (canonically derived by the caller, e.g.
  /// from (src partition, send sequence)) and the local stamp counter is
  /// NOT consumed — so local events keep the same audit identities no
  /// matter when injections arrive, which is what makes audit digests
  /// independent of the engine's barrier structure.
  EventId scheduleExternal(TimePoint t, std::uint64_t stamp, Callback cb);

  /// Cancels a live event in O(1); a fired or already-cancelled id is a
  /// no-op. The callback is destroyed eagerly (captured resources release
  /// at cancel time, not at pop time).
  void cancel(const EventId& id);

  /// Runs until the queue drains or `limit` is reached (clock then advances
  /// to `limit` if given). Returns the number of events executed.
  std::size_t run(TimePoint limit = TimePoint::max());

  /// Runs for `d` simulated time from the current clock.
  std::size_t runFor(Duration d) { return run(now_ + d); }

  /// A conservative lower bound on the time of the next event run() would
  /// dispatch: never later than the true next dispatch time, and exact
  /// whenever the earliest pending tier holds a live entry (the bound is
  /// only coarse — a lane-window start — when the nearest occupied lane
  /// contains nothing but tombstones of cancelled events, which a
  /// subsequent run() past that window cleans up). TimePoint::max() when
  /// idle. This is the earliest-output-time probe the PDES engine uses to
  /// compute safe execution bounds; it pops nothing and is O(lane scan).
  [[nodiscard]] TimePoint nextEventTimeLowerBound() const;

  /// True if no pending (non-cancelled) events remain. O(1).
  [[nodiscard]] bool idle() const { return liveEvents_ == 0; }

  /// Number of pending queue entries, including tombstones of cancelled
  /// events not yet drained (diagnostic only).
  [[nodiscard]] std::size_t queuedEvents() const { return pendingEntries_; }

  /// Live (scheduled, uncancelled) events.
  [[nodiscard]] std::size_t liveEvents() const { return liveEvents_; }

  /// Total events executed since construction (determinism probes compare
  /// this across runs).
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }

  // ---- queue introspection (bench/test probes; diagnostic only) ----------

  /// Entries currently resident in the timer-wheel tiers — wheel lanes plus
  /// the dispatch drain run — including not-yet-reclaimed tombstones of
  /// cancelled events.
  [[nodiscard]] std::size_t wheelEvents() const { return wheelEvents_; }

  /// Entries currently parked in the far-future overflow heap, including
  /// tombstones.
  [[nodiscard]] std::size_t overflowEvents() const { return overflow_.size(); }

  /// Cumulative count of live entries re-homed as the clock advanced:
  /// overflow → wheel promotions plus wheel-level cascades. Tombstones
  /// dropped mid-cascade do not count.
  [[nodiscard]] std::uint64_t cascades() const { return cascades_; }

  /// Per-simulation unique id source (packet uids, connection serials):
  /// keeping identity allocation inside the simulation makes runs hermetic
  /// and repeatable even when many simulations execute concurrently.
  [[nodiscard]] std::uint64_t nextId() { return ++lastId_; }

  /// The simulation-wide random source.
  [[nodiscard]] Rng& rng() { return rng_; }

  // ---- determinism auditing (opt-in; see audit/auditor.hpp) --------------

  /// Starts chaining an FNV-1a digest over every subsequently dispatched
  /// event (time, audit stamp). With `recordTrail` the per-event chain
  /// values are kept so divergence reports can name the first mismatching
  /// event index. Idempotent while enabled.
  audit::EventAuditor& enableAudit(bool recordTrail = false) {
    if (!auditor_ || auditor_->recordsTrail() != recordTrail) {
      auditor_ = std::make_unique<audit::EventAuditor>(recordTrail);
    }
    return *auditor_;
  }
  void disableAudit() { auditor_.reset(); }
  [[nodiscard]] bool auditEnabled() const { return auditor_ != nullptr; }

  /// The run's determinism fingerprint: the event chain combined with the
  /// RNG draw counter, so a run that consumed a different number of random
  /// samples diverges even if it dispatched the same events. Zero while
  /// auditing is disabled.
  [[nodiscard]] std::uint64_t auditDigest() const {
    return auditor_ ? audit::combine(auditor_->digest(), rng_.draws()) : 0;
  }

  /// Digest, event count, and trail in one comparable value (see
  /// audit::RunFingerprint); used by the cross-thread-count verifier.
  [[nodiscard]] audit::RunFingerprint auditFingerprint() const {
    audit::RunFingerprint fp;
    if (auditor_) {
      fp.digest = auditDigest();
      fp.events = auditor_->eventCount();
      fp.trail = auditor_->trail();
    }
    return fp;
  }

  /// Folds an application tag (message kind text, payload identity) into
  /// the audit chain; no-op while auditing is disabled.
  void auditNote(std::uint64_t tag) {
    if (auditor_) auditor_->note(tag);
  }
  void auditNote(std::string_view tag) {
    if (auditor_) auditor_->note(tag);
  }

 private:
  friend class EventId;

  struct Slot {
    std::uint32_t generation{0};
    bool live{false};
    std::uint64_t seq{0};  // schedule-order stamp; total order is (time, seq)
    // Audit identity: local schedule count for ordinary events, the
    // caller's canonical stamp for scheduleExternal injections. Folded by
    // the auditor instead of (slot, generation)/(seq), which shift with
    // injection timing.
    std::uint64_t auditStamp{0};
    Callback cb;
  };
  // Slots live in fixed-size chunks with stable addresses: growing the pool
  // never moves a Slot, so (a) growth is O(chunk) instead of O(pool) moves
  // of 80-byte callbacks, and (b) run() can invoke a callback in place —
  // no move-out per fire — even if the callback itself schedules events
  // that grow the pool mid-call.
  static constexpr std::uint32_t kSlotChunkShift = 10;
  static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

  // ---- hierarchical timer wheel (the near-future fast path) --------------
  //
  // kWheelLevels lanes-of-lanes: level L buckets time by
  // (t >> (kWheelBaseShift + L*kWheelLevelShiftStep)), i.e. ~1us lanes at
  // level 0 widening 8x per level, 256 lanes each, for a ~134ms horizon.
  // schedule() appends a WheelEntry to the lowest level whose lane width
  // can still express the event's distance from the cursor — O(1), no hash
  // probe, no sift. An occupancy bitmap (4 words per level) finds the next
  // populated lane with a handful of ctz scans.
  //
  // Dispatch runs through the "drain run": when the cursor enters a level-0
  // lane, the lane's entries are flushed into one vector, sorted once by
  // (time, seq), and consumed through a head index — distinct timestamps by
  // time, equal timestamps by schedule order, O(1) per event after the
  // sort. The sort itself is skipped when the flush arrives already
  // ordered, which is exactly the same-time burst case (lane FIFO order is
  // seq order), so fan-out bursts never pay a comparison-based structure at
  // all. Events scheduled *into the current lane* while it drains (a
  // callback scheduling at now, a pre-run schedule near the epoch) binary-
  // insert into the unconsumed suffix; their fresh sequence stamps place
  // them behind every pending same-time entry, which is the FIFO contract.
  // A higher-level lane reached by the cursor cascades: its entries re-home
  // into finer levels (or the drain run) with their exact times, so
  // nothing is ever dispatched at lane granularity. Events beyond the
  // horizon park in the overflow heap and are promoted entry by entry, in
  // (time, seq) order, as the cursor advances. Cancelled entries are
  // tombstones wherever they sit (the slot generation is the liveness
  // oracle); any cascade, flush or promotion that touches one drops it on
  // the spot.
  struct WheelEntry {
    std::int64_t timeNs;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // Lane storage: fixed-size entry blocks drawn from a shared pool and
  // chained per lane. Per-lane vectors would pin their high-water capacity
  // to one lane while the absolute-time -> lane mapping drifts from run to
  // run, so some lane somewhere would reallocate on nearly every pass;
  // pooled blocks make the steady-state footprint a function of the peak
  // number of concurrent entries only, which is what lets warm
  // schedule/fire cycles stay allocation-free.
  static constexpr std::uint32_t kLaneBlockCap = 16;
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
  struct LaneBlock {
    std::array<WheelEntry, kLaneBlockCap> items;
    std::uint32_t next{kNoBlock};
  };
  // Blocks live in fixed-size chunks with stable addresses (the slot-pool
  // idiom): growing the pool allocates one chunk and never copies resident
  // entries, which keeps cold-start scheduling cheap.
  static constexpr std::uint32_t kLaneBlockChunkShift = 6;
  static constexpr std::uint32_t kLaneBlockChunkSize = 1u
                                                       << kLaneBlockChunkShift;
  struct Lane {
    std::uint32_t head{kNoBlock};
    std::uint32_t tail{kNoBlock};
    std::uint32_t tailCount{0};
  };
  static constexpr int kWheelLevels = 4;
  static constexpr int kWheelSlotBits = 8;  // 256 lanes per level
  static constexpr std::uint32_t kWheelSlots = 1u << kWheelSlotBits;
  static constexpr std::uint32_t kWheelSlotMask = kWheelSlots - 1;
  static constexpr std::uint32_t kWheelWordsPerLevel = kWheelSlots / 64;
  static constexpr int kWheelBaseShift = 10;       // level-0 lane = 1024ns
  static constexpr int kWheelLevelShiftStep = 3;   // 8x wider per level
  [[nodiscard]] static constexpr int wheelShift(int level) {
    return kWheelBaseShift + kWheelLevelShiftStep * level;
  }
  static constexpr int kWheelTopShift =
      kWheelBaseShift + kWheelLevelShiftStep * (kWheelLevels - 1);

  // Overflow tier (far-future events, beyond the wheel horizon): a binary
  // min-heap of WheelEntry by (time, seq), kept with std::push_heap and
  // std::pop_heap under this "later than" comparator.
  [[nodiscard]] static bool laterThan(const WheelEntry& a,
                                      const WheelEntry& b) {
    return a.timeNs > b.timeNs || (a.timeNs == b.timeNs && a.seq > b.seq);
  }

  [[nodiscard]] Slot& slotAt(std::uint32_t i) const {
    return slotChunks_[i >> kSlotChunkShift][i & (kSlotChunkSize - 1)];
  }
  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t index);

  // Wheel internals (simulator.cpp): lane/bitmap addressing, the sorted
  // (time, seq) drain run, and the cascade machinery.
  [[nodiscard]] static constexpr std::size_t laneIndex(int level,
                                                       std::uint32_t lane) {
    return static_cast<std::size_t>(level) * kWheelSlots + lane;
  }
  void drainAppend(const WheelEntry& e);        // advance path: sort deferred
  void drainInsertSorted(const WheelEntry& e);  // schedule path: keeps order
  [[nodiscard]] LaneBlock& laneBlockAt(std::uint32_t i) const {
    return laneBlockChunks_[i >> kLaneBlockChunkShift]
                           [i & (kLaneBlockChunkSize - 1)];
  }
  std::uint32_t acquireLaneBlock();
  void wheelInsert(const WheelEntry& e, bool fromAdvance);
  [[nodiscard]] int nextOccupiedDistance(int level, std::uint32_t from) const;
  void flushLane(int level, std::uint32_t lane);
  EventId scheduleStamped(TimePoint t, std::uint64_t stamp, Callback cb);
  void directDrainLane(int level, std::uint32_t lane);
  void cascadeLane(int level, std::uint32_t lane);
  void promoteOverflow();
  bool advanceWheel(std::int64_t limitNs);

  TimePoint now_{TimePoint::epoch()};
  std::uint64_t executed_{0};
  std::uint64_t lastId_{0};
  std::uint64_t seqCounter_{0};
  std::uint64_t localStampCounter_{0};  // audit identities for local events
  std::size_t liveEvents_{0};
  std::size_t pendingEntries_{0};
  // Wheel state: per-lane FIFO block chains (level-major), occupancy bitmaps,
  // the dispatch drain run (sorted vector + consumption head), and the
  // lane-aligned cursor. The cursor is internal bookkeeping — it may run
  // ahead of now_ (which only moves at dispatch) but never past the next
  // undispatched event's lane.
  std::vector<Lane> wheelLanes_;
  std::vector<std::unique_ptr<LaneBlock[]>> laneBlockChunks_;
  std::uint32_t laneBlockCount_{0};
  std::vector<std::uint32_t> freeLaneBlocks_;
  std::array<std::uint64_t, kWheelLevels * kWheelWordsPerLevel> wheelBits_{};
  // Entries resident per level, so the advance scan skips empty levels
  // without touching their bitmaps (sparse workloads keep one event in one
  // level; scanning all four would dominate the per-event cost).
  std::array<std::size_t, kWheelLevels> wheelLevelCount_{};
  std::vector<WheelEntry> drainRun_;
  std::vector<WheelEntry> wheelScratch_;  // directDrainLane staging
  std::size_t drainHead_{0};
  bool drainSortPending_{false};
  std::int64_t wheelNowNs_{0};
  std::size_t wheelEvents_{0};
  std::uint64_t cascades_{0};
  std::vector<WheelEntry> overflow_;  // min-heap by (time, seq); laterThan
  std::vector<std::unique_ptr<Slot[]>> slotChunks_;
  std::uint32_t slotCount_{0};
  std::vector<std::uint32_t> freeSlots_;
  Rng rng_;
  std::unique_ptr<audit::EventAuditor> auditor_;
};

inline bool EventId::valid() const {
  return sim_ != nullptr && slot_ < sim_->slotCount_ &&
         sim_->slotAt(slot_).generation == gen_ && sim_->slotAt(slot_).live;
}

/// Repeats a callback at a fixed period until stopped or destroyed.
///
/// Used for avatar update loops, metric samplers, periodic report spikes,
/// vsync ticks. The first tick fires after `phase` (defaults to one period).
class PeriodicTask {
 public:
  using Callback = std::function<void()>;

  PeriodicTask(Simulator& sim, Duration period, Callback cb);
  PeriodicTask(Simulator& sim, Duration period, Duration phase, Callback cb);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }
  /// Changes the period; takes effect from the next rescheduling.
  void setPeriod(Duration period) { period_ = period; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void arm(Duration delay);

  Simulator& sim_;
  Duration period_;
  Callback cb_;
  bool running_{true};
  EventId pending_;
  // Guards the callback against firing after destruction.
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace msim
