#pragma once

// tc-netem-style egress impairment: token-bucket rate limiting, added
// delay/jitter, and Bernoulli loss. The §8 disruption experiments drive
// this exactly like the paper drove `tc-netem` on the WiFi AP.

#include <cstdint>

#include "util/rate.hpp"
#include "util/time.hpp"

namespace msim {

class Rng;
class Simulator;

/// Which packets an impairment applies to (tc filters by protocol — the
/// Fig. 13 bottom experiment shaped *only* the TCP uplink).
enum class NetemFilter : std::uint8_t { All, TcpOnly, UdpOnly };

/// Impairment parameters. Default-constructed = transparent (no effect).
struct NetemConfig {
  NetemFilter filter = NetemFilter::All;
  /// Shaping rate; unlimited() disables shaping.
  DataRate rateLimit = DataRate::unlimited();
  /// Extra one-way delay added to every packet.
  Duration delay = Duration::zero();
  /// Uniform +/- jitter applied around `delay` (truncated at zero).
  Duration jitter = Duration::zero();
  /// Probability in [0,1] that a packet is silently dropped.
  double lossRate = 0.0;
  /// Maximum queued backlog in the shaper before tail drop.
  ByteSize shaperBuffer = ByteSize::kilobytes(400);

  [[nodiscard]] bool isTransparent() const {
    return rateLimit.isUnlimited() && delay.isZero() && jitter.isZero() &&
           lossRate <= 0.0;
  }
};

/// Stateful shaper applied on a device's egress path.
class Netem {
 public:
  /// Both throw std::logic_error while a cut-through admission made under
  /// the current config lies at or ahead of now (see holdConfigUntil).
  void configure(NetemConfig cfg);
  void reset();
  [[nodiscard]] const NetemConfig& config() const { return cfg_; }

  /// Called by the owning device when it admits a cut-through packet ahead
  /// of now, at `until`: the one-event-per-hop model would apply the config
  /// at `until`, so changing it before then would silently diverge.
  void holdConfigUntil(const Simulator& sim, TimePoint until) {
    clock_ = &sim;
    heldUntil_ = until;
  }

  struct Verdict {
    bool drop{false};
    /// Extra holding time before the packet may enter the device queue.
    Duration holdFor = Duration::zero();
  };

  /// Decides the fate of a packet of `size` bytes leaving at `now`.
  /// `isTcp` selects against the configured protocol filter.
  [[nodiscard]] Verdict apply(TimePoint now, ByteSize size, Rng& rng,
                              bool isTcp = false);

  [[nodiscard]] std::uint64_t droppedByLoss() const { return droppedByLoss_; }
  [[nodiscard]] std::uint64_t droppedByShaper() const { return droppedByShaper_; }

 private:
  void checkNotHeld() const;

  NetemConfig cfg_;
  TimePoint nextFree_{TimePoint::epoch()};
  const Simulator* clock_{nullptr};
  TimePoint heldUntil_{TimePoint::epoch()};
  std::uint64_t droppedByLoss_{0};
  std::uint64_t droppedByShaper_{0};
};

}  // namespace msim
