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

void NetDevice::send(Packet&& p) {
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

void NetDevice::enqueueForTransmit(Packet&& p) {
  const TimePoint now = owner_.sim().now();
  InFlight* slot = admit(p, now);
  if (slot == nullptr) return;
  const TimePoint arrival = busyUntil_ + cfg_.delay;
  if (NetDevice* out = cutThroughTarget(p, arrival)) {
    slot->cut = true;
    ++cutThroughs_;
    cutThrough(std::move(p), arrival, *out);
    return;
  }
  launch(*slot, std::move(p), arrival);
}

NetDevice::InFlight* NetDevice::admit(const Packet& p, TimePoint at) {
  popStarted(at);
  const ByteSize size = p.wireSize();
  if (started_ != tail_ && backlogBytes_ + size > cfg_.queueLimit) {
    ++queueDrops_;
    return nullptr;
  }
  const TimePoint start = std::max(at, busyUntil_);
  busyUntil_ = start + cfg_.rate.transmissionTime(size);
  tapTime_ = start;
  notifyTaps(p, TapDir::Egress);
  if (tail_ - head_ == ring_.size()) growRing();
  InFlight& slot = ring_[tail_ & (ring_.size() - 1)];
  slot.txStart = start;
  slot.wire = size;
  ++tail_;
  backlogBytes_ += size;
  return &slot;
}

void NetDevice::launch(InFlight& slot, Packet&& p, TimePoint arrival) {
  slot.cut = false;
  slot.turns = turnsAtPeer(p);
  ++slowInFlight_;
  if (slot.turns) ++turnsInFlight_;
  slot.packet = std::move(p);
  owner_.sim().schedule(arrival, [this] { deliverHead(); });
}

// Packets whose transmission has begun by `at` leave the backlog, and cut
// entries among them leave the ring: no delivery event will pop them.
void NetDevice::popStarted(TimePoint at) {
  const std::size_t mask = ring_.size() - 1;
  while (started_ != tail_ && ring_[started_ & mask].txStart <= at) {
    backlogBytes_ -= ring_[started_ & mask].wire;
    ++started_;
  }
  while (head_ != started_ && ring_[head_ & mask].cut) ++head_;
}

// The exactness rule of DESIGN.md §7. The hop through the peer node X is cut
// through onto X's other device D only when everything D will admit up to
// `arrival` is already known now.
NetDevice* NetDevice::cutThroughTarget(const Packet& p, TimePoint arrival) const {
  if (peer_ == nullptr || slowInFlight_ != 0 || p.ttl <= 1) return nullptr;
  const Node& x = peer_->owner_;
  if (!x.onlyForwards() || x.ownsAddress(p.dst)) return nullptr;
  NetDevice* out = x.route(p.dst);
  if (out == nullptr || out == peer_ || !out->netem_.config().isTransparent()) {
    return nullptr;
  }
  // Nothing X would put onto `out` may reach X from out's far end by
  // `arrival`: none in flight now, and none sent later.
  const NetDevice* back = out->peer_;
  if (back == nullptr || back->turnsInFlight_ != 0 ||
      owner_.sim().now() + back->cfg_.delay <= arrival) {
    return nullptr;
  }
  return out;
}

// X's hop at `arrival`, run at acceptance: ingress taps, forwarding, and the
// outbound device's admission as of `arrival`.
void NetDevice::cutThrough(Packet&& p, TimePoint arrival, NetDevice& out) {
  peer_->tapTime_ = arrival;
  peer_->notifyTaps(p, TapDir::Ingress);
  --p.ttl;
  if (p.firstSentAt == TimePoint::epoch() && arrival > TimePoint::epoch()) {
    p.firstSentAt = arrival;
  }
  out.netem_.holdConfigUntil(owner_.sim(), arrival);
  InFlight* slot = out.admit(p, arrival);
  if (slot == nullptr) return;
  out.launch(*slot, std::move(p), out.busyUntil_ + out.cfg_.delay);
}

// Whether the peer node would answer `p` itself or route it back out of
// peer_, putting a packet onto peer_. Assumed of any peer that does more
// than forward.
bool NetDevice::turnsAtPeer(const Packet& p) const {
  if (peer_ == nullptr) return false;
  const Node& x = peer_->owner_;
  return !x.onlyForwards() || p.ttl <= 1 || x.ownsAddress(p.dst) ||
         x.route(p.dst) == peer_;
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
  // Pops this delivery's entry and the cut entries ahead of it, which have
  // started and have no event of their own.
  InFlight* head = nullptr;
  do {
    head = &ring_[head_ & (ring_.size() - 1)];
    if (started_ == head_) {  // still counted in the backlog: it has started
      backlogBytes_ -= head->wire;
      ++started_;
    }
    ++head_;
  } while (head->cut);
  --slowInFlight_;
  if (head->turns) --turnsInFlight_;
  Packet p = std::move(head->packet);
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
  if (prefixLen >= 32) {
    if (!hostRoutes_.contains(prefix.value())) hostRoutes_.insert(prefix.value(), &via);
    return;
  }
  routes_.push_back(RouteEntry{prefix, prefixLen, &via});
  std::stable_sort(routes_.begin(), routes_.end(),
                   [](const RouteEntry& a, const RouteEntry& b) {
                     return a.prefixLen > b.prefixLen;
                   });
}

void Node::setDefaultRoute(NetDevice& via) { defaultRoute_ = &via; }

NetDevice* Node::route(Ipv4Address dst) const {
  if (NetDevice* const* via = hostRoutes_.find(dst.value())) return *via;
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
    handleLocal(p);
    return;
  }
  NetDevice* via = route(p.dst);
  if (via == nullptr) {
    ++unroutableDrops_;
    return;
  }
  via->send(std::move(p));
}

void Node::receive(Packet&& p, NetDevice& /*from*/) {
  if (ownsAddress(p.dst)) {
    handleLocal(p);
    return;
  }
  forward(std::move(p));
}

void Node::handleLocal(const Packet& p) {
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
    // A listener may add or remove listeners (and destroy their tools) while
    // it runs: call a snapshot, skipping any removed since.
    const auto snapshot = icmpListeners_;
    for (const auto& [handle, fn] : snapshot) {
      if (icmpListeners_.contains(handle)) fn(p);
    }
    return;
  }
  if (localHandler_) localHandler_(p);
}

void Node::forward(Packet&& p) {
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

}  // namespace msim
