#include "net/node.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

namespace msim {

std::uint64_t nextPacketUid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// ---------------------------------------------------------------- NetDevice

NetDevice::NetDevice(Node& owner, std::string name)
    : owner_{owner}, name_{std::move(name)} {}

void NetDevice::send(Packet p) {
  if (p.firstSentAt == TimePoint::epoch() && owner_.sim().now() > TimePoint::epoch()) {
    p.firstSentAt = owner_.sim().now();
  }
  auto& sim = owner_.sim();
  const auto verdict =
      netem_.apply(sim.now(), p.wireSize(), sim.rng(), p.proto == IpProto::Tcp);
  if (verdict.drop) return;
  if (verdict.holdFor.isZero()) {
    enqueueForTransmit(std::move(p));
  } else {
    sim.scheduleAfter(verdict.holdFor,
                      [this, p = std::move(p)]() mutable { enqueueForTransmit(std::move(p)); });
  }
}

void NetDevice::enqueueForTransmit(Packet p) {
  auto& sim = owner_.sim();
  const TimePoint now = sim.now();
  // Packets whose transmission has begun leave the backlog.
  while (started_ != tail_ &&
         ring_[started_ & (ring_.size() - 1)].txStart <= now) {
    backlogBytes_ -= ring_[started_ & (ring_.size() - 1)].packet.wireSize();
    ++started_;
  }
  const ByteSize size = p.wireSize();
  if (started_ != tail_ && backlogBytes_ + size > cfg_.queueLimit) {
    ++queueDrops_;
    return;
  }
  const TimePoint start = std::max(now, busyUntil_);
  busyUntil_ = start + cfg_.rate.transmissionTime(size);
  tapTime_ = start;
  notifyTaps(p, TapDir::Egress);
  if (tail_ - head_ == ring_.size()) growRing();
  InFlight& slot = ring_[tail_ & (ring_.size() - 1)];
  slot.packet = std::move(p);
  slot.txStart = start;
  ++tail_;
  backlogBytes_ += size;
  sim.schedule(busyUntil_ + cfg_.delay, [this] { deliverHead(); });
}

void NetDevice::growRing() {
  const std::size_t size = ring_.empty() ? kInitialRing : ring_.size() * 2;
  // detlint:allow(hotpath-alloc) in-flight ring growth: doubles only when the
  // link's in-flight high-water mark rises (the drop-tail backlog is bounded
  // by queueLimit, the rest by one bandwidth-delay product), so a warm link
  // recycles its slots and never reaches this branch.
  std::vector<InFlight> grown(size);
  for (std::uint64_t i = head_; i != tail_; ++i) {
    grown[i & (size - 1)] = std::move(ring_[i & (ring_.size() - 1)]);
  }
  ring_.swap(grown);
}

void NetDevice::deliverHead() {
  InFlight& head = ring_[head_ & (ring_.size() - 1)];
  if (started_ == head_) {  // still counted in the backlog: it has started
    backlogBytes_ -= head.packet.wireSize();
    ++started_;
  }
  ++head_;
  Packet p = std::move(head.packet);
  if (peer_ == nullptr) return;
  peer_->tapTime_ = owner_.sim().now();
  peer_->notifyTaps(p, TapDir::Ingress);
  peer_->owner().receive(std::move(p), *peer_);
}

void NetDevice::notifyTaps(const Packet& p, TapDir dir) const {
  for (const auto& tap : taps_) tap(p, dir);
}

// --------------------------------------------------------------------- Link

namespace {
/// A zero rate would transmit instantly, a negative delay would deliver
/// before the send, and a non-positive queue drops every packet sent while
/// the link is busy.
void checkLinkConfig(const LinkConfig& cfg) {
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string{"LinkConfig: "} + what);
  };
  if (cfg.rate != DataRate::unlimited() && cfg.rate <= DataRate::zero()) {
    reject("rate must be > 0 or DataRate::unlimited()");
  }
  if (cfg.delay < Duration::zero()) reject("delay must be >= 0");
  if (cfg.queueLimit <= ByteSize::zero()) reject("queueLimit must be > 0");
}
}  // namespace

std::pair<NetDevice&, NetDevice&> Link::connect(Node& a, Node& b,
                                                const LinkConfig& aToB,
                                                const LinkConfig& bToA) {
  checkLinkConfig(aToB);
  checkLinkConfig(bToA);
  NetDevice& devA = a.addDevice(a.name() + "->" + b.name());
  NetDevice& devB = b.addDevice(b.name() + "->" + a.name());
  devA.peer_ = &devB;
  devB.peer_ = &devA;
  devA.cfg_ = aToB;
  devB.cfg_ = bToA;
  return {devA, devB};
}

// --------------------------------------------------------------------- Node

Node::Node(Simulator& sim, std::string name) : sim_{sim}, name_{std::move(name)} {}

NetDevice& Node::addDevice(std::string name) {
  devices_.push_back(std::make_unique<NetDevice>(*this, std::move(name)));
  return *devices_.back();
}

void Node::addAddress(Ipv4Address addr) { addresses_.push_back(addr); }

bool Node::ownsAddress(Ipv4Address addr) const {
  return std::find(addresses_.begin(), addresses_.end(), addr) != addresses_.end();
}

Ipv4Address Node::primaryAddress() const {
  return addresses_.empty() ? Ipv4Address{} : addresses_.front();
}

void Node::addHostRoute(Ipv4Address dst, NetDevice& via) {
  addPrefixRoute(dst, 32, via);
}

void Node::addPrefixRoute(Ipv4Address prefix, int prefixLen, NetDevice& via) {
  routes_.push_back(RouteEntry{prefix, prefixLen, &via});
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const RouteEntry& a, const RouteEntry& b) {
                     return a.prefixLen > b.prefixLen;
                   });
}

void Node::setDefaultRoute(NetDevice& via) { defaultRoute_ = &via; }

NetDevice* Node::route(Ipv4Address dst) const {
  for (const auto& entry : routes_) {
    if (dst.inPrefix(entry.prefix, entry.prefixLen)) return entry.via;
  }
  return defaultRoute_;
}

void Node::sendFromLocal(Packet p) {
  if (p.src.isUnspecified()) p.src = primaryAddress();
  // Uid assignment is per-simulation (not process-global) so concurrent
  // seed-sweep runs stay byte-identical to serial ones.
  if (p.uid == 0) p.uid = sim().nextId();
  if (ownsAddress(p.dst)) {
    // Loopback delivery, e.g. a locally-hosted private Hubs server.
    handleLocal(std::move(p));
    return;
  }
  NetDevice* via = route(p.dst);
  if (via == nullptr) {
    ++unroutableDrops_;
    return;
  }
  via->send(std::move(p));
}

void Node::receive(Packet p, NetDevice& /*from*/) {
  if (ownsAddress(p.dst)) {
    handleLocal(std::move(p));
    return;
  }
  forward(std::move(p));
}

void Node::handleLocal(Packet p) {
  if (p.proto == IpProto::Icmp) {
    const IcmpHeader* icmp = p.icmp();
    if (icmp != nullptr && icmp->type == IcmpType::EchoRequest && icmpEchoEnabled_) {
      Packet reply;
      reply.src = p.dst;
      reply.dst = p.src;
      reply.proto = IpProto::Icmp;
      reply.overheadBytes = wire::kEthIpIcmp;
      reply.payloadBytes = p.payloadBytes;
      IcmpHeader hdr;
      hdr.type = IcmpType::EchoReply;
      hdr.ident = icmp->ident;
      hdr.seq = icmp->seq;
      reply.l4 = hdr;
      sendFromLocal(std::move(reply));
      return;
    }
    for (const auto& listener : icmpListeners_) listener(p);
    return;
  }
  if (localHandler_) localHandler_(p);
}

void Node::forward(Packet p) {
  if (p.ttl <= 1) {
    sendIcmpTimeExceeded(p);
    return;
  }
  --p.ttl;
  NetDevice* via = route(p.dst);
  if (via == nullptr) {
    ++unroutableDrops_;
    return;
  }
  via->send(std::move(p));
}

void Node::sendIcmpTimeExceeded(const Packet& expired) {
  Packet msg;
  msg.src = primaryAddress();
  msg.dst = expired.src;
  msg.proto = IpProto::Icmp;
  msg.overheadBytes = wire::kEthIpIcmp;
  msg.payloadBytes = ByteSize::bytes(28);  // quoted inner header
  IcmpHeader hdr;
  hdr.type = IcmpType::TimeExceeded;
  hdr.originalDst = expired.dst;
  hdr.originalDstPort = expired.dstPort;
  if (const IcmpHeader* inner = expired.icmp()) {
    hdr.ident = inner->ident;
    hdr.seq = inner->seq;
  }
  msg.l4 = hdr;
  sendFromLocal(std::move(msg));
}

// ------------------------------------------------------------------ Network

Node& Network::addNode(std::string name) {
  nodes_.push_back(std::make_unique<Node>(sim_, std::move(name)));
  return *nodes_.back();
}

Node* Network::findNode(const std::string& name) {
  for (const auto& n : nodes_) {
    if (n->name() == name) return n.get();
  }
  return nullptr;
}

}  // namespace msim
