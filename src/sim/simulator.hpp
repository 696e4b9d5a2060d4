#pragma once

// The discrete-event engine every other module runs on.
//
// Design notes:
//  * Deterministic: events at equal timestamps fire in scheduling order.
//    Dispatch order is exactly (time, schedule order), by construction of
//    the queue rather than by a stored sequence stamp.
//  * One queue: a monotone radix heap keyed by event time (64 buckets by
//    the highest bit where a time differs from the last refill's, plus a
//    front run of the entries due at that time). Scheduling is one bucket
//    append; each refill re-files one bucket's entries into strictly lower
//    buckets, so an entry moves at most 63 times over its life and far
//    fewer in practice. See DESIGN.md §10 for the invariants.
//  * Allocation-free hot path: callbacks live in a generation-counted slot
//    pool (recycled via a free list) and are stored as small-buffer
//    UniqueFunctions; bucket blocks and the front run recycle their
//    storage, so steady-state schedule/fire cycles never touch the
//    allocator.
//  * Cancellable: schedule() returns an EventId = {slot, generation};
//    cancel() frees the slot in O(1) and bumps its generation, so the id
//    (and its queue entry) is dead immediately — valid() is exact, not
//    lazy. The entry itself stays as a tombstone until a refill or the
//    dispatch loop touches it.
//  * Single-threaded by design (CP.1 notwithstanding): one Simulator is one
//    logical process and is never shared across threads. Parallelism lives
//    a layer up — across seeds (core/seedsweep.hpp) or across partitions of
//    one run (pdes/pdes.hpp), where each partition owns a private Simulator
//    and the engine alone decides how far each may safely run. For that
//    engine, nextEventTimeLowerBound() exposes a conservative bound on the
//    next dispatch time without popping anything.

#include <array>
#include <cstdint>
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

  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

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
  /// unless the earliest pending entry is the tombstone of a cancelled
  /// event (the bound then stays at that entry's time until a run() past
  /// it cleans it up). TimePoint::max() when idle. This is the
  /// earliest-output-time probe the PDES engine uses to compute safe
  /// execution bounds; it pops nothing.
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

  /// Cumulative count of live entries re-filed by queue refills (into a
  /// lower bucket or the front run) as the clock advanced; a bench/test
  /// probe. Tombstones dropped by a refill do not count.
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
    // Audit identity: local schedule count for ordinary events, the
    // caller's canonical stamp for scheduleExternal injections. Folded by
    // the auditor instead of (slot, generation), which shift with
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

  // ---- the radix heap ------------------------------------------------------
  //
  // last_ is the time of the last refill, and no pending entry is earlier.
  // The front run holds the entries due exactly at last_, in schedule
  // order; dispatch consumes it through frontHead_. Every later entry sits
  // in bucket bit_width(t ^ last_): the bucket of the highest bit at which
  // its time differs from last_ (1..63, as times are non-negative). Every
  // time in a lower bucket precedes every time in a higher one. When the
  // front run is spent, refill() takes the lowest non-empty bucket, moves
  // last_ to its earliest live time, and re-files its entries: those at the
  // new last_ into the front run, the rest into strictly lower buckets.
  // Higher buckets keep their index, since the new last_ agrees with the
  // old one on every bit above the refilled bucket's.
  //
  // Schedule order needs no stamp. A bucket gains entries only from
  // schedule() (newest last) or from a refill of a higher bucket while it is
  // empty itself (in that bucket's order), so every bucket chain, and the
  // front run, lists its entries in schedule order.
  struct Entry {
    std::int64_t timeNs;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // Bucket storage: fixed-size entry blocks drawn from one shared pool and
  // chained per bucket. Per-bucket vectors would each keep their
  // high-water capacity; pooled blocks make the footprint a function of
  // the peak number of pending entries only, and keep warm schedule/fire
  // cycles allocation-free.
  static constexpr std::uint32_t kBlockCap = 16;
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
  struct Block {
    std::array<Entry, kBlockCap> items;
    std::uint32_t next{kNoBlock};
  };
  // Blocks live in fixed-size chunks with stable addresses (the slot-pool
  // idiom): growing the pool allocates one chunk and never copies resident
  // entries.
  static constexpr std::uint32_t kBlockChunkShift = 6;
  static constexpr std::uint32_t kBlockChunkSize = 1u << kBlockChunkShift;
  struct Bucket {
    std::uint32_t head{kNoBlock};
    std::uint32_t tail{kNoBlock};
    std::uint32_t tailCount{0};
    // The earliest entry filed since the bucket was last emptied. If it was
    // cancelled since, its time is early, never late.
    Entry min{};
  };
  static constexpr int kBuckets = 64;

  [[nodiscard]] Slot& slotAt(std::uint32_t i) const {
    return slotChunks_[i >> kSlotChunkShift][i & (kSlotChunkSize - 1)];
  }
  [[nodiscard]] bool isLive(const Entry& e) const {
    const Slot& slot = slotAt(e.slot);
    return slot.generation == e.gen && slot.live;
  }
  std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t index);
  [[nodiscard]] Block& blockAt(std::uint32_t i) const {
    return blockChunks_[i >> kBlockChunkShift][i & (kBlockChunkSize - 1)];
  }
  std::uint32_t acquireBlock();
  EventId scheduleStamped(TimePoint t, std::uint64_t stamp, Callback cb);
  void file(const Entry& e);
  bool refill(std::int64_t limitNs);

  TimePoint now_{TimePoint::epoch()};
  std::uint64_t executed_{0};
  std::uint64_t lastId_{0};
  std::uint64_t localStampCounter_{0};  // audit identities for local events
  std::size_t liveEvents_{0};
  std::size_t pendingEntries_{0};
  std::int64_t last_{0};
  std::vector<Entry> front_;
  std::size_t frontHead_{0};
  std::array<Bucket, kBuckets> buckets_{};
  std::uint64_t occupied_{0};  // bit b set while bucket b holds entries
  std::vector<std::unique_ptr<Block[]>> blockChunks_;
  std::uint32_t blockCount_{0};
  std::vector<std::uint32_t> freeBlocks_;
  std::uint64_t cascades_{0};
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

/// A re-armable deadline with at most one pending event, which captures
/// `this` (contract in DESIGN.md §7). It fires exactly at the last deadline
/// armed. A later deadline schedules nothing: the event re-files itself when
/// it comes due early. disarm() leaves the event to fire as a no-op; cancel()
/// and the destructor cancel it. The callback runs disarmed and may re-arm
/// the timer or destroy its owner.
class Timer {
 public:
  using Callback = UniqueFunction;

  Timer(Simulator& sim, Callback cb) : sim_{sim}, cb_{std::move(cb)} {}
  ~Timer() { sim_.cancel(pending_); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arms the timer at `t` (clamped to now), replacing any earlier deadline.
  void armAt(TimePoint t);
  /// Arms the timer `delay` from now (negative treated as zero).
  void armAfter(Duration delay) { armAt(sim_.now() + delay); }
  void disarm() { armed_ = false; }
  void cancel() { armed_ = false; sim_.cancel(pending_); }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void fire();

  Simulator& sim_;
  Callback cb_;
  TimePoint deadline_;
  TimePoint pendingAt_;  // due time of pending_ while it is valid
  EventId pending_;
  bool armed_{false};
};

/// Repeats a callback at a fixed period until stopped or destroyed.
///
/// Used for avatar update loops, metric samplers, periodic report spikes,
/// vsync ticks. The first tick fires after `phase` (defaults to one period).
/// Each tick is armed after the previous callback returns, as a fresh event.
class PeriodicTask {
 public:
  using Callback = UniqueFunction;

  PeriodicTask(Simulator& sim, Duration period, Callback cb);
  PeriodicTask(Simulator& sim, Duration period, Duration phase, Callback cb);

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop() {
    running_ = false;
    timer_.cancel();
  }
  [[nodiscard]] bool running() const { return running_; }

 private:
  Duration period_;
  Callback cb_;
  bool running_{true};
  Timer timer_;
};

}  // namespace msim
