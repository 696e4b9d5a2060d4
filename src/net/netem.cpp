#include "net/netem.hpp"

#include <stdexcept>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace msim {

void Netem::checkNotHeld() const {
  if (clock_ != nullptr && heldUntil_ >= clock_->now()) {
    throw std::logic_error(
        "Netem: reconfigured while a cut-through admission under the old "
        "config is still ahead");
  }
}

void Netem::configure(NetemConfig cfg) {
  checkNotHeld();
  cfg_ = cfg;
}

void Netem::reset() {
  checkNotHeld();
  cfg_ = NetemConfig{};
  nextFree_ = TimePoint::epoch();
}

Netem::Verdict Netem::apply(TimePoint now, ByteSize size, Rng& rng, bool isTcp) {
  Verdict v;
  if (cfg_.isTransparent()) return v;
  if (cfg_.filter == NetemFilter::TcpOnly && !isTcp) return v;
  if (cfg_.filter == NetemFilter::UdpOnly && isTcp) return v;

  if (cfg_.lossRate > 0.0 && rng.bernoulli(cfg_.lossRate)) {
    ++droppedByLoss_;
    v.drop = true;
    return v;
  }

  Duration hold = Duration::zero();
  if (!cfg_.rateLimit.isUnlimited()) {
    // Token-bucket approximation via a virtual departure clock. Tail drop is
    // byte-accurate: a packet is dropped only if *it* does not fit in the
    // remaining buffer, so small packets (e.g. TCP responses) still squeeze
    // through a shaper saturated by large datagrams.
    const Duration txTime = cfg_.rateLimit.transmissionTime(size);
    const TimePoint earliest = nextFree_ > now ? nextFree_ : now;
    const Duration backlog = earliest - now;
    const Duration bufferTime = cfg_.rateLimit.transmissionTime(cfg_.shaperBuffer);
    if (backlog + txTime > bufferTime) {
      ++droppedByShaper_;
      v.drop = true;
      return v;
    }
    nextFree_ = earliest + txTime;
    hold = (nextFree_ - now);
  }

  Duration delay = cfg_.delay;
  if (!cfg_.jitter.isZero()) {
    const double j = rng.uniform(-cfg_.jitter.toSeconds(), cfg_.jitter.toSeconds());
    delay += Duration::seconds(j);
    if (delay.isNegative()) delay = Duration::zero();
  }
  v.holdFor = hold + delay;
  return v;
}

}  // namespace msim
