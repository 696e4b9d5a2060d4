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

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/netem.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

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
  void send(Packet p);

  /// Netem impairment applied to this device's egress (like `tc qdisc` on
  /// one interface direction).
  [[nodiscard]] Netem& netem() { return netem_; }

  using Tap = std::function<void(const Packet&, TapDir)>;
  /// Registers a promiscuous capture callback (Wireshark-style). Egress
  /// taps fire when the device accepts a packet, ingress taps when it
  /// arrives; neither schedules anything, so installing taps never changes
  /// the event stream.
  void addTap(Tap tap) { taps_.push_back(std::move(tap)); }

  /// The wire time of the packet a tap is being shown: its transmission
  /// start for egress (which may lie ahead of now() when it waits in the
  /// queue), its arrival time for ingress. Meaningful inside a tap only.
  [[nodiscard]] TimePoint tapTime() const { return tapTime_; }

  [[nodiscard]] std::uint64_t queueDrops() const { return queueDrops_; }

 private:
  friend class Link;
  // An accepted packet and the time its transmission starts.
  struct InFlight {
    Packet packet;
    TimePoint txStart;
  };
  static constexpr std::size_t kInitialRing = 16;

  void enqueueForTransmit(Packet p);
  void growRing();
  void deliverHead();
  void notifyTaps(const Packet& p, TapDir dir) const;

  Node& owner_;
  std::string name_;
  NetDevice* peer_{nullptr};
  LinkConfig cfg_;
  Netem netem_;
  // Transmitter state. The ring holds every accepted packet until its
  // delivery event pops it; its size is a power of two and the cursors are
  // absolute counts, masked on access. [head_, started_) have begun
  // transmitting; [started_, tail_) is the drop-tail backlog as of the last
  // admission check (entries whose txStart has passed leave it lazily).
  std::vector<InFlight> ring_;
  std::uint64_t head_{0};
  std::uint64_t started_{0};
  std::uint64_t tail_{0};
  ByteSize backlogBytes_;  // wire bytes of [started_, tail_)
  TimePoint busyUntil_;    // end of the last accepted transmission
  TimePoint tapTime_;
  std::uint64_t queueDrops_{0};
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
  void receive(Packet p, NetDevice& from);

  using LocalHandler = std::function<void(const Packet&)>;
  /// Installed by the transport mux; receives all locally-addressed
  /// non-ICMP traffic.
  void setLocalHandler(LocalHandler h) { localHandler_ = std::move(h); }

  using IcmpHandler = std::function<void(const Packet&)>;
  /// Receives locally-addressed ICMP (echo replies, time-exceeded).
  void addIcmpListener(IcmpHandler h) { icmpListeners_.push_back(std::move(h)); }

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
  void handleLocal(Packet p);
  void forward(Packet p);
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
  std::vector<RouteEntry> routes_;  // kept sorted by descending prefixLen
  NetDevice* defaultRoute_{nullptr};
  LocalHandler localHandler_;
  std::vector<IcmpHandler> icmpListeners_;
  bool icmpEchoEnabled_{true};
  std::uint64_t unroutableDrops_{0};
  std::shared_ptr<void> transport_;
};

/// Owns a set of nodes; the root object of a simulated topology.
class Network {
 public:
  explicit Network(Simulator& sim) : sim_{sim} {}

  Node& addNode(std::string name);
  [[nodiscard]] Node* findNode(const std::string& name);
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
