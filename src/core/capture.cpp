#include "core/capture.hpp"

#include <iterator>

namespace msim {

const char* toString(Channel c) {
  switch (c) {
    case Channel::ControlUp: return "control-up";
    case Channel::ControlDown: return "control-down";
    case Channel::DataUp: return "data-up";
    case Channel::DataDown: return "data-down";
    case Channel::Other: return "other";
  }
  return "?";
}

CaptureAgent::CaptureAgent(NetDevice& campusSide,
                           const PlatformDeployment& deployment,
                           Duration binWidth)
    : deployment_{deployment} {
  channels_.fill(BinnedSeries{binWidth});
  protos_.fill(BinnedSeries{binWidth});
  campusSide.addTap([this, &campusSide](const Packet& p, TapDir dir) {
    // Egress toward the campus/internet = the user's uplink.
    onPacket(p, dir == TapDir::Egress, campusSide.tapTime());
  });
}

Channel CaptureAgent::classify(Ipv4Address server, bool uplink) const {
  // The voice port lives on the data tier; count it as data channel.
  if (deployment_.isDataAddress(server)) {
    return uplink ? Channel::DataUp : Channel::DataDown;
  }
  if (deployment_.isControlAddress(server)) {
    return uplink ? Channel::ControlUp : Channel::ControlDown;
  }
  return Channel::Other;
}

void CaptureAgent::onPacket(const Packet& p, bool uplink, TimePoint at) {
  ++packets_;
  const Channel channel = classify(uplink ? p.dst : p.src, uplink);
  channels_[static_cast<std::size_t>(channel)].addBytes(at, p.wireSize());
  protos_[static_cast<std::size_t>(p.proto) * 2 + (uplink ? 1 : 0)]
      .addBytes(at, p.wireSize());

  std::uint64_t actionId = 0;
  for (const auto& m : p.messages) {
    if (m->actionId != 0) {
      actionId = m->actionId;
      break;
    }
  }
  if (actionId != 0) {
    // Taps need not come in wire-time order (an egress tap fires before its
    // packet reaches the wire, a cut-through hop's ingress tap before its
    // packet arrives), so keep the earliest wire time, not the first tapped.
    auto& registry = uplink ? firstUpAction_ : firstDownAction_;
    if (TimePoint* first = registry.find(actionId)) {
      if (at < *first) *first = at;
    } else {
      registry.insert(actionId, at);
    }
  }

  if (keepRecords_) {
    // Taps fire ahead of the wire (see above), so a record's wire time can
    // lie ahead of later-tapped ones; file it in wire-time order, as the
    // AP's Wireshark would log it.
    auto pos = records_.end();
    while (pos != records_.begin() && std::prev(pos)->at > at) --pos;
    records_.insert(pos, PacketRecord{at, uplink, p.wireSize(), p.src, p.dst,
                                      p.srcPort, p.dstPort, p.proto, actionId});
  }
}

const BinnedSeries& CaptureAgent::series(Channel c) const {
  return channels_[static_cast<std::size_t>(c)];
}

const BinnedSeries& CaptureAgent::protoSeries(IpProto proto, bool uplink) const {
  return protos_[static_cast<std::size_t>(proto) * 2 + (uplink ? 1 : 0)];
}

std::optional<TimePoint> CaptureAgent::firstUplinkAction(std::uint64_t actionId) const {
  const TimePoint* t = firstUpAction_.find(actionId);
  if (t == nullptr) return std::nullopt;
  return *t;
}

std::optional<TimePoint> CaptureAgent::firstDownlinkAction(std::uint64_t actionId) const {
  const TimePoint* t = firstDownAction_.find(actionId);
  if (t == nullptr) return std::nullopt;
  return *t;
}

DataRate CaptureAgent::meanRate(Channel c, std::size_t fromSec,
                                std::size_t toSec) const {
  return series(c).meanRate(fromSec, toSec);
}

std::string CaptureAgent::exportTraceText(std::size_t maxLines) const {
  std::string out;
  out.reserve(records_.size() * 72);
  std::size_t lines = 0;
  for (const PacketRecord& r : records_) {
    if (maxLines > 0 && lines >= maxLines) break;
    char buf[160];
    const Channel channel = classify(r.uplink ? r.dst : r.src, r.uplink);
    std::snprintf(buf, sizeof buf, "%12.6f %-4s %s:%u > %s:%u %s %lldB [%s]\n",
                  r.at.toSeconds(), r.uplink ? "UP" : "DOWN",
                  r.src.toString().c_str(), r.srcPort,
                  r.dst.toString().c_str(), r.dstPort, toString(r.proto),
                  static_cast<long long>(r.wireBytes.toBytes()),
                  toString(channel));
    out += buf;
    ++lines;
  }
  return out;
}

}  // namespace msim
