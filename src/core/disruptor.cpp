#include "core/disruptor.hpp"

namespace msim {

TimePoint Disruptor::play(TimePoint startAt,
                          const std::vector<DisruptionStage>& stages,
                          Duration recovery) {
  // The netem outlives this Disruptor (it belongs to the AP device), so the
  // scheduled stage changes capture it directly.
  Netem* target = &netem();
  TimePoint at = startAt;
  for (const DisruptionStage& stage : stages) {
    bed_.sim().schedule(at, [target, cfg = stage.config] { target->configure(cfg); });
    at += stage.duration;
  }
  bed_.sim().schedule(at, [target] { target->reset(); });
  return at + recovery;
}

namespace {
DisruptionStage rateStage(double mbps) {
  DisruptionStage s;
  s.config.rateLimit = DataRate::mbps(mbps);
  // ~2 s of buffering at the shaped rate: deep enough that small TCP
  // exchanges survive a saturated stage with seconds of delay (as the
  // paper's tc-netem default queue did), shallow enough that most of the
  // excess UDP is dropped rather than parked.
  s.config.shaperBuffer = ByteSize::bytes(
      static_cast<std::int64_t>(mbps * 1e6 * 2.0 / 8.0));
  s.label = std::to_string(mbps) + "Mbps";
  return s;
}
}  // namespace

std::vector<DisruptionStage> Disruptor::downlinkBandwidthStages() {
  return {rateStage(1.0), rateStage(0.7), rateStage(0.5),
          rateStage(0.3), rateStage(0.2), rateStage(0.1)};
}

std::vector<DisruptionStage> Disruptor::uplinkBandwidthStages() {
  return {rateStage(1.5), rateStage(1.2), rateStage(1.0),
          rateStage(0.7), rateStage(0.5), rateStage(0.3)};
}

std::vector<DisruptionStage> Disruptor::tcpOnlyStages() {
  auto tcpDelay = [](double sec) {
    DisruptionStage s;
    s.config.filter = NetemFilter::TcpOnly;
    s.config.delay = Duration::seconds(sec);
    s.duration = Duration::seconds(60);
    s.label = std::to_string(static_cast<int>(sec)) + "s-tcp-delay";
    return s;
  };
  DisruptionStage blackout;
  blackout.config.filter = NetemFilter::TcpOnly;
  blackout.config.lossRate = 1.0;
  blackout.duration = Duration::seconds(60);
  blackout.label = "tcp-100%-loss";
  return {tcpDelay(5), tcpDelay(10), tcpDelay(15), blackout};
}

}  // namespace msim
