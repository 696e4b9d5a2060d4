#pragma once

// Nodes, network devices and point-to-point links.
//
// A Node owns its devices and a longest-prefix-match forwarding table, and
// performs IP forwarding with TTL decrement (so traceroute works), ICMP echo
// response, and local delivery to the transport layer. Devices model egress
// serialization (rate), a drop-tail queue, propagation delay, optional netem
// impairment, and promiscuous capture taps.
//
// A device's transmitter is analytic rather than event-driven: accepting a
// packet computes its transmission start (max(now, busyUntil)) and its
// arrival at the peer in closed form, parks the packet in an in-flight ring,
// and schedules exactly one delivery event per hop. Per-link FIFO needs no
// bookkeeping beyond the ring: the delay is constant and transmission is
// serial, so arrivals come out in acceptance order (see DESIGN.md §7).
//
// Where the peer is a two-port node that only forwards (a Wi-Fi AP), the hop
// through it is cut through when that is exact: the packet goes straight to
// the node's outbound device at its computed arrival, and only that device
// schedules an event (DESIGN.md §7, "Cut-through at two-port transit nodes").

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/netem.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/flatmap.hpp"

namespace msim {

class Node;

/// Per-direction link parameters. Link::connect rejects a config with
/// std::invalid_argument unless rate > 0 (or DataRate::unlimited()),
/// delay >= 0 and queueLimit > 0.
struct LinkConfig {
  DataRate rate = DataRate::gbps(1);
  Duration delay = Duration::micros(50);
  ByteSize queueLimit = ByteSize::kilobytes(256);
};

/// Direction of a packet relative to a device, as seen by capture taps.
enum class TapDir : std::uint8_t { Egress, Ingress };

/// One attachment point of a node to a link.
class NetDevice {
 public:
  NetDevice(Node& owner, std::string name);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  [[nodiscard]] Node& owner() { return owner_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NetDevice* peer() { return peer_; }

  /// Egress entry point: netem -> queue -> serialize -> propagate.
  void send(Packet&& p);

  /// Netem impairment applied to this device's egress (like `tc qdisc` on
  /// one interface direction).
  [[nodiscard]] Netem& netem() { return netem_; }

  using Tap = std::function<void(const Packet&, TapDir)>;
  /// Registers a promiscuous capture callback (Wireshark-style). Egress
  /// taps fire when the device accepts a packet. Ingress taps fire in the
  /// delivery event, except at a cut-through hop, where they fire when the
  /// upstream device accepts the packet. Neither schedules anything, so
  /// installing taps never changes the event stream. Taps are meant to be
  /// installed before traffic flows.
  void addTap(Tap tap) { taps_.push_back(std::move(tap)); }

  /// The wire time of the packet a tap is being shown: its transmission
  /// start for egress, its exact arrival for ingress. Either may lie ahead
  /// of now() (a packet waiting in the queue, a cut-through hop) but never
  /// before it. Meaningful inside a tap only.
  [[nodiscard]] TimePoint tapTime() const { return tapTime_; }

  [[nodiscard]] std::uint64_t queueDrops() const { return queueDrops_; }

  /// Accepted packets whose hop through the peer node was cut through:
  /// handed at acceptance to the peer's outbound device, with no event at
  /// the peer.
  [[nodiscard]] std::uint64_t cutThroughs() const { return cutThroughs_; }

 private:
  friend class Link;
  // An accepted packet and the time its transmission starts. A cut entry's
  // packet has moved on to the next hop's device at acceptance; the entry
  // stays for the drop-tail backlog, and no delivery event pops it.
  struct InFlight {
    Packet packet;
    TimePoint txStart;
    ByteSize wire;
    bool cut{false};
    bool turns{false};  // see turnsAtPeer()
  };
  static constexpr std::size_t kInitialRing = 16;

  void enqueueForTransmit(Packet&& p);
  // Drop-tail admission at `at` (now, or a cut-through arrival ahead of
  // now): fires the egress taps and takes a ring slot for the packet, whose
  // transmission ends at busyUntil_; nullptr on a drop.
  InFlight* admit(const Packet& p, TimePoint at);
  // Parks the packet just admitted in `slot` and schedules its delivery.
  void launch(InFlight& slot, Packet&& p, TimePoint arrival);
  [[nodiscard]] NetDevice* cutThroughTarget(const Packet& p, TimePoint arrival) const;
  void cutThrough(Packet&& p, TimePoint arrival, NetDevice& out);
  [[nodiscard]] bool turnsAtPeer(const Packet& p) const;
  void popStarted(TimePoint at);
  void growRing();
  void deliverHead();
  void notifyTaps(const Packet& p, TapDir dir) const;

  Node& owner_;
  std::string name_;
  NetDevice* peer_{nullptr};
  LinkConfig cfg_;
  Netem netem_;
  // Transmitter state. The ring holds every accepted packet until its
  // delivery event pops it (a cut entry: until it has started and reaches
  // the head); its size is a power of two and the cursors are absolute
  // counts, masked on access. [head_, started_) have begun transmitting;
  // [started_, tail_) is the drop-tail backlog as of the last admission
  // check (entries whose txStart has passed leave it lazily).
  std::vector<InFlight> ring_;
  std::uint64_t head_{0};
  std::uint64_t started_{0};
  std::uint64_t tail_{0};
  ByteSize backlogBytes_;  // wire bytes of [started_, tail_)
  TimePoint busyUntil_;    // end of the last accepted transmission
  // Ring entries awaiting a delivery event, and those of them that would
  // make the peer node put a packet back onto peer_ (the cut-through
  // exactness conditions 4 and 5, DESIGN.md §7).
  std::uint32_t slowInFlight_{0};
  std::uint32_t turnsInFlight_{0};
  TimePoint tapTime_;
  std::uint64_t queueDrops_{0};
  std::uint64_t cutThroughs_{0};
  std::vector<Tap> taps_;
};

/// Wires two nodes together with per-direction configs.
/// Returns the (deviceAtA, deviceAtB) pair; the nodes own the devices.
class Link {
 public:
  static std::pair<NetDevice&, NetDevice&> connect(Node& a, Node& b,
                                                   const LinkConfig& aToB,
                                                   const LinkConfig& bToA);
  static std::pair<NetDevice&, NetDevice&> connect(Node& a, Node& b,
                                                   const LinkConfig& both) {
    return connect(a, b, both, both);
  }
};

/// A host or router in the simulated internet.
class Node {
 public:
  Node(Simulator& sim, std::string name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  NetDevice& addDevice(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<NetDevice>>& devices() const {
    return devices_;
  }

  /// Addresses this node answers for (a node can own several, including a
  /// shared anycast address).
  void addAddress(Ipv4Address addr);
  [[nodiscard]] bool ownsAddress(Ipv4Address addr) const;
  [[nodiscard]] Ipv4Address primaryAddress() const;

  void addHostRoute(Ipv4Address dst, NetDevice& via);
  void addPrefixRoute(Ipv4Address prefix, int prefixLen, NetDevice& via);
  void setDefaultRoute(NetDevice& via);
  /// Longest-prefix-match lookup; nullptr when unroutable.
  [[nodiscard]] NetDevice* route(Ipv4Address dst) const;

  /// Transport-layer send: stamps src if unset, routes, and transmits.
  void sendFromLocal(Packet p);

  /// Ingress from a device: local delivery or forward (TTL decrement,
  /// ICMP TimeExceeded on expiry).
  void receive(Packet&& p, NetDevice& from);

  using LocalHandler = std::function<void(const Packet&)>;
  /// Installed by the transport mux; receives all locally-addressed
  /// non-ICMP traffic.
  void setLocalHandler(LocalHandler h) { localHandler_ = std::move(h); }

  using IcmpHandler = std::function<void(const Packet&)>;
  /// Receives locally-addressed ICMP (echo replies, time-exceeded) until
  /// removed by the returned handle; removal is safe inside a listener.
  std::uint64_t addIcmpListener(IcmpHandler h) {
    icmpListeners_.emplace(++lastIcmpHandle_, std::move(h));
    return lastIcmpHandle_;
  }
  void removeIcmpListener(std::uint64_t handle) { icmpListeners_.erase(handle); }

  /// Whether this node answers ICMP echo requests (some of the paper's
  /// targets blocked ICMP, forcing TCP pings).
  void setIcmpEchoEnabled(bool enabled) { icmpEchoEnabled_ = enabled; }

  /// Packets dropped because no route matched.
  [[nodiscard]] std::uint64_t unroutableDrops() const { return unroutableDrops_; }

  /// Opaque per-node attachment used by the transport layer to keep its
  /// demux alive exactly as long as the node (see TransportMux::of).
  void setTransportAttachment(std::shared_ptr<void> a) { transport_ = std::move(a); }
  [[nodiscard]] const std::shared_ptr<void>& transportAttachment() const { return transport_; }

 private:
  friend class NetDevice;
  // Two devices and nothing local listening: the node only forwards, so a
  // device feeding it may cut its hop through (NetDevice::cutThroughTarget).
  [[nodiscard]] bool onlyForwards() const {
    return devices_.size() == 2 && !localHandler_ && icmpListeners_.empty();
  }
  void handleLocal(const Packet& p);
  void forward(Packet&& p);
  void sendIcmpTimeExceeded(const Packet& expired);

  struct RouteEntry {
    Ipv4Address prefix;
    int prefixLen;
    NetDevice* via;
  };

  Simulator& sim_;
  std::string name_;
  std::vector<std::unique_ptr<NetDevice>> devices_;
  std::vector<Ipv4Address> addresses_;
  // Host (/32) routes, the longest prefixes, are an exact-match index: a
  // core router holds one per attached host, and scanning them would cost
  // up to ~90 ns per forwarded packet. The first route added for an
  // address wins, as in a stable longest-prefix scan.
  FlatMap64<NetDevice*> hostRoutes_;
  std::vector<RouteEntry> routes_;  // shorter prefixes, sorted by descending prefixLen
  NetDevice* defaultRoute_{nullptr};
  LocalHandler localHandler_;
  std::map<std::uint64_t, IcmpHandler> icmpListeners_;  // in add order
  std::uint64_t lastIcmpHandle_{0};
  bool icmpEchoEnabled_{true};
  std::uint64_t unroutableDrops_{0};
  std::shared_ptr<void> transport_;
};

/// Owns a set of nodes; the root object of a simulated topology.
class Network {
 public:
  explicit Network(Simulator& sim) : sim_{sim} {}

  Node& addNode(std::string name);
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] Simulator& sim() { return sim_; }

 private:
  Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Process-unique packet id source (ids are diagnostics, not behaviour).
/// Thread-safe; internal senders use the per-simulation Simulator::nextId()
/// instead so runs stay hermetic under the parallel seed sweep.
[[nodiscard]] std::uint64_t nextPacketUid();

}  // namespace msim
