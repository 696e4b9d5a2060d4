#pragma once

// Recycled entry buffers for batched fan-out events.
//
// A fan-out (a relay broadcast, a channel publish, a recovery replay) hands
// every receiver that shares one delivery instant to a single queue event
// walking a vector of entries. The vectors cycle through this pool: acquire
// before the fan-out, release when the event has walked its batch, so a
// warm pool serves every fan-out without touching the allocator.
//
// A burst that schedules many batches before any of them fires (every shard
// of the planet broadcasting its users in one instant) outruns the pool. A
// cold acquire then reserves the size of the last batch scheduled, which
// costs one allocation per batch instead of a 1, 2, 4, 8... regrowth.

#include <cstddef>
#include <utility>
#include <vector>

namespace msim {

template <typename Entry>
class BatchPool {
 public:
  using Batch = std::vector<Entry>;

  /// An empty batch: recycled when the pool has one, else freshly reserved.
  [[nodiscard]] Batch acquire() {
    if (free_.empty()) {
      Batch b;
      b.reserve(lastSize_);
      return b;
    }
    Batch b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  /// Records the size of a batch about to be scheduled.
  void scheduled(const Batch& b) { lastSize_ = b.size(); }

  void release(Batch&& b) { free_.push_back(std::move(b)); }

 private:
  std::vector<Batch> free_;
  std::size_t lastSize_{0};
};

}  // namespace msim
