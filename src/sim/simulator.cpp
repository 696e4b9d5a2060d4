#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/hotpath.hpp"

namespace msim {

std::uint32_t Simulator::acquireSlot() {
  if (!freeSlots_.empty()) {
    const std::uint32_t index = freeSlots_.back();
    freeSlots_.pop_back();
    return index;
  }
  if (slotCount_ == slotChunks_.size() * kSlotChunkSize) {
    // detlint:allow(hotpath-alloc) slab growth only when the live-event
    // high-water mark rises; chunks are never freed, so steady state
    // recycles freeSlots_ and never reaches this branch.
    slotChunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
  }
  return slotCount_++;
}

void Simulator::releaseSlot(std::uint32_t index) {
  Slot& slot = slotAt(index);
  slot.live = false;
  ++slot.generation;  // kills outstanding EventIds and stale queue entries
  slot.cb.reset();
  freeSlots_.push_back(index);
}

// detlint:hotpath every event in the run passes through here; schedule must
// stay pool-recycled (slots, bucket blocks, the front run's capacity) so a
// 100k-avatar run's steady state never touches the allocator.
MSIM_HOT EventId Simulator::schedule(TimePoint t, Callback cb) {
  return scheduleStamped(t, ++localStampCounter_, std::move(cb));
}

EventId Simulator::scheduleExternal(TimePoint t, std::uint64_t stamp,
                                    Callback cb) {
  return scheduleStamped(t, stamp, std::move(cb));
}

MSIM_HOT EventId Simulator::scheduleStamped(TimePoint t, std::uint64_t stamp,
                                            Callback cb) {
  // Clamping to now keeps every pending time at or after last_, which is
  // never later than now (refill() stops at the run limit).
  if (t < now_) t = now_;
  const std::uint32_t index = acquireSlot();
  Slot& slot = slotAt(index);
  slot.live = true;
  slot.auditStamp = stamp;
  slot.cb = std::move(cb);
  file(Entry{t.toNanos(), index, slot.generation});
  ++liveEvents_;
  ++pendingEntries_;
  return EventId{this, index, slot.generation};
}

EventId Simulator::scheduleAfter(Duration delay, Callback cb) {
  if (delay.isNegative()) delay = Duration::zero();
  return schedule(now_ + delay, std::move(cb));
}

void Simulator::cancel(const EventId& id) {
  if (id.sim_ != this || !id.valid()) return;
  releaseSlot(id.slot_);
  --liveEvents_;
}

// ---- radix heap ------------------------------------------------------------

std::uint32_t Simulator::acquireBlock() {
  if (!freeBlocks_.empty()) {
    const std::uint32_t id = freeBlocks_.back();
    freeBlocks_.pop_back();
    blockAt(id).next = kNoBlock;
    return id;
  }
  if (blockCount_ == blockChunks_.size() * kBlockChunkSize) {
    // detlint:allow(hotpath-alloc) same slab idiom as acquireSlot: grows only
    // at a new pending-entry high-water mark, recycled via freeBlocks_.
    blockChunks_.push_back(  // detlint:allow(hotpath-alloc) slab growth
        std::make_unique<Block[]>(kBlockChunkSize));
  }
  return blockCount_++;
}

void Simulator::file(const Entry& e) {
  if (e.timeNs == last_) {
    // Due now: behind every pending same-time entry, which is schedule
    // order. A spent run restarts at the front of its storage.
    if (frontHead_ == front_.size()) {
      front_.clear();
      frontHead_ = 0;
    }
    front_.push_back(e);
    return;
  }
  const auto b = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(e.timeNs ^ last_)));
  Bucket& bk = buckets_[b];
  if (bk.tail == kNoBlock) {
    bk.head = bk.tail = acquireBlock();
    bk.tailCount = 0;
    bk.min = e;
    occupied_ |= std::uint64_t{1} << b;
  } else {
    if (bk.tailCount == kBlockCap) {
      const std::uint32_t next = acquireBlock();
      blockAt(bk.tail).next = next;
      bk.tail = next;
      bk.tailCount = 0;
    }
    if (e.timeNs < bk.min.timeNs) bk.min = e;
  }
  blockAt(bk.tail).items[bk.tailCount++] = e;
}

bool Simulator::refill(std::int64_t limitNs) {
  // Only entered once the front run is spent.
  front_.clear();
  frontHead_ = 0;
  while (occupied_ != 0) {
    const int b = std::countr_zero(occupied_);
    Bucket& bk = buckets_[static_cast<std::size_t>(b)];
    if (bk.min.timeNs > limitNs) return false;
    // The earliest live entry: the bucket's min unless that was cancelled.
    bool anyLive = isLive(bk.min);
    if (!anyLive) {
      for (std::uint32_t i = bk.head; i != kNoBlock; i = blockAt(i).next) {
        const Block& blk = blockAt(i);
        const std::uint32_t n = i == bk.tail ? bk.tailCount : kBlockCap;
        for (std::uint32_t k = 0; k < n; ++k) {
          const Entry& e = blk.items[k];
          if (isLive(e) && (!anyLive || e.timeNs < bk.min.timeNs)) {
            bk.min = e;
            anyLive = true;
          }
        }
      }
      if (anyLive && bk.min.timeNs > limitNs) {
        // Moving last_ past the limit would let a schedule() after this run
        // land below it; keep the tighter minimum and stop here.
        return false;
      }
    }
    const std::int64_t m = bk.min.timeNs;
    // Re-file against the new last_: entries at m go to the front run, the
    // rest to buckets below b (all empty, as b was the lowest occupied).
    const Bucket drained = bk;
    bk = Bucket{};
    occupied_ &= ~(std::uint64_t{1} << b);
    if (anyLive) last_ = m;
    for (std::uint32_t i = drained.head; i != kNoBlock;) {
      const Block& blk = blockAt(i);
      const std::uint32_t n = i == drained.tail ? drained.tailCount : kBlockCap;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (!isLive(blk.items[k])) {  // tombstone dies here
          --pendingEntries_;
          continue;
        }
        ++cascades_;
        file(blk.items[k]);
      }
      const std::uint32_t next = blk.next;
      freeBlocks_.push_back(i);
      i = next;
    }
    if (anyLive) return true;
  }
  return false;
}

// detlint:hotpath the dispatch loop — refills, front-run reuse, and callback
// invocation are all pool-backed; allocating here would show up in every
// per-event cost the benches gate.
MSIM_HOT std::size_t Simulator::run(TimePoint limit) {
  std::size_t executed = 0;
  const std::int64_t limitNs = limit.toNanos();
  for (;;) {
    if (frontHead_ == front_.size() && !refill(limitNs)) break;
    const Entry top = front_[frontHead_];
    Slot& slot = slotAt(top.slot);
    if (slot.generation != top.gen || !slot.live) {  // cancelled tombstone
      ++frontHead_;
      --pendingEntries_;
      continue;
    }
    if (top.timeNs > limitNs) break;
    ++frontHead_;
    --pendingEntries_;
    now_ = TimePoint::fromNanos(top.timeNs);
    if (auditor_) auditor_->onEvent(top.timeNs, slot.auditStamp);
    // Retire the slot before invoking — valid() reads false and cancel()
    // is a no-op while the callback runs — but keep it off the free list
    // until afterwards, so the callback executes in place (slot addresses
    // are stable) without being recycled under its own feet. Callbacks may
    // schedule at the current instant: the new entry joins the front run
    // behind every pending same-time entry, exactly the FIFO contract.
    slot.live = false;
    ++slot.generation;
    --liveEvents_;
    slot.cb();
    slot.cb.reset();
    freeSlots_.push_back(top.slot);
    ++executed;
    ++executed_;
  }
  if (limit != TimePoint::max() && now_ < limit) now_ = limit;
  return executed;
}

TimePoint Simulator::nextEventTimeLowerBound() const {
  if (liveEvents_ == 0) return TimePoint::max();
  // A live front entry is due at last_, which is never after now.
  for (std::size_t i = frontHead_; i < front_.size(); ++i) {
    if (isLive(front_[i])) return now_;
  }
  // Every time in the lowest occupied bucket precedes every later bucket's,
  // and its min entry is never later than its earliest live one.
  if (occupied_ == 0) return TimePoint::max();
  const std::int64_t best =
      buckets_[static_cast<std::size_t>(std::countr_zero(occupied_))]
          .min.timeNs;
  return TimePoint::fromNanos(std::max(best, now_.toNanos()));
}

PeriodicTask::PeriodicTask(Simulator& sim, Duration period, Callback cb)
    : PeriodicTask{sim, period, period, std::move(cb)} {}

PeriodicTask::PeriodicTask(Simulator& sim, Duration period, Duration phase, Callback cb)
    : sim_{sim}, period_{period}, cb_{std::move(cb)} {
  arm(phase);
}

PeriodicTask::~PeriodicTask() {
  *alive_ = false;
  stop();
}

void PeriodicTask::stop() {
  running_ = false;
  sim_.cancel(pending_);
}

void PeriodicTask::arm(Duration delay) {
  std::weak_ptr<bool> alive = alive_;
  pending_ = sim_.scheduleAfter(delay, [this, alive] {
    const auto guard = alive.lock();
    if (!guard || !*guard || !running_) return;
    cb_();
    if (running_) arm(period_);
  });
}

}  // namespace msim
