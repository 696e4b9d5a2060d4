#pragma once

// AP-side packet capture and channel classification — the paper's primary
// instrument ("We use Wireshark on each AP to capture and analyze network
// traffic", §3.2). The capture agent taps the AP's campus-side device and
// bins wire bytes into control/data channels by server address, exactly the
// way the paper classified flows by server hostname/owner.

#include <array>
#include <optional>
#include <vector>

#include "net/node.hpp"
#include "platform/deployment.hpp"
#include "util/flatmap.hpp"
#include "util/timeseries.hpp"

namespace msim {

/// Traffic classes reported throughout the paper's figures.
enum class Channel : std::uint8_t {
  ControlUp,
  ControlDown,
  DataUp,
  DataDown,
  Other,
};

[[nodiscard]] const char* toString(Channel c);

/// One captured packet (what Wireshark would log, plus ground-truth action
/// tags the harness may use to cross-validate the paper's timing methods).
struct PacketRecord {
  TimePoint at;
  bool uplink{false};
  ByteSize wireBytes;
  Ipv4Address src;
  Ipv4Address dst;
  std::uint16_t srcPort{0};
  std::uint16_t dstPort{0};
  IpProto proto{IpProto::Udp};
  std::uint64_t actionId{0};
};

/// Wireshark-on-the-AP.
class CaptureAgent {
 public:
  /// Taps `campusSide` (the AP's upstream device): egress there is user
  /// uplink, ingress is user downlink. Records carry the device's wire
  /// time (NetDevice::tapTime()).
  CaptureAgent(NetDevice& campusSide, const PlatformDeployment& deployment,
               Duration binWidth = Duration::seconds(1));

  CaptureAgent(const CaptureAgent&) = delete;
  CaptureAgent& operator=(const CaptureAgent&) = delete;

  [[nodiscard]] const BinnedSeries& series(Channel c) const;
  /// Per-protocol uplink/downlink series (Fig. 13 separates UDP from TCP).
  [[nodiscard]] const BinnedSeries& protoSeries(IpProto proto, bool uplink) const;

  [[nodiscard]] const std::vector<PacketRecord>& records() const { return records_; }
  /// Stop storing individual records (series keep accumulating) — long
  /// experiments only need the bins.
  void setStoreRecords(bool store) { storeRecords_ = store; }

  /// First time an uplink/downlink data-channel packet carried the action.
  [[nodiscard]] std::optional<TimePoint> firstUplinkAction(std::uint64_t actionId) const;
  [[nodiscard]] std::optional<TimePoint> firstDownlinkAction(std::uint64_t actionId) const;

  /// Mean rate of a channel over [fromSec, toSec] bins.
  [[nodiscard]] DataRate meanRate(Channel c, std::size_t fromSec,
                                  std::size_t toSec) const;

  [[nodiscard]] std::uint64_t packetCount() const { return packets_; }

  /// tcpdump-style text rendering of the stored records (what you would
  /// read off the AP's Wireshark window), e.g.
  ///   12.345678 UP   10.1.0.2:49152 > 100.2.1.10:5055 UDP 1038B [data-up]
  [[nodiscard]] std::string exportTraceText(std::size_t maxLines = 0) const;

 private:
  /// `at` is the packet's wire time at the tapped device
  /// (NetDevice::tapTime()), not the dispatch time of the tap.
  void onPacket(const Packet& p, bool uplink, TimePoint at);
  [[nodiscard]] Channel classify(const Packet& p, bool uplink) const;

  const PlatformDeployment& deployment_;
  // Both key spaces are tiny and dense (5 channels, 3 protocols x 2
  // directions), so plain arrays replace hash maps: O(1) lookups with no
  // hashing and no iteration-order hazard at all.
  std::array<BinnedSeries, 5> channels_;  // indexed by Channel
  std::array<BinnedSeries, 6> protos_;    // indexed by proto*2 + uplink
  std::vector<PacketRecord> records_;
  bool storeRecords_{true};
  FlatMap64<TimePoint> firstUpAction_;    // actionId -> first uplink time
  FlatMap64<TimePoint> firstDownAction_;  // actionId -> first downlink time
  std::uint64_t packets_{0};
};

}  // namespace msim
