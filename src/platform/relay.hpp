#pragma once

// The data-channel relay tier.
//
// The paper's central architectural finding (§5.1, §6): platform servers
// simply forward each user's avatar data to every other user in the event,
// without aggregation — hence per-user downlink grows linearly with the
// event size. AltspaceVR is the one exception: its server filters by the
// receiver's ~150° viewport (§6.1). Worlds' servers additionally consume
// (rather than forward) a large uplink status stream (§5.1).
//
// A RelayRoom spans one or more RelayServer replicas (load balancing gives
// different users different server addresses, §4.2); replicas share room
// state with a small intra-site forwarding delay. Above this tier sits
// src/cluster: many rooms (instances) behind a gateway, which is how real
// platforms actually absorb large populations (§4.2, Table 2).
//
// Room state is structure-of-arrays (DESIGN.md §12): per-user fields live
// in flat columns indexed by a dense slot, so the pose fan-out is a scan
// over contiguous position/orientation arrays — and, when the spatial
// interest grid is configured, over just the sender's neighboring AOI
// cells instead of the whole membership.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "avatar/motion.hpp"
#include "avatar/viewport.hpp"
#include "interest/grid.hpp"
#include "interest/lod.hpp"
#include "platform/spec.hpp"
#include "transport/tls.hpp"
#include "transport/udp.hpp"
#include "util/batchpool.hpp"
#include "util/flatmap.hpp"

namespace msim {

/// Message kinds on the data channel (beyond avatar/codec kinds).
namespace relaymsg {
inline const MsgKind kJoin{"relay:join"};
inline const MsgKind kJoinOk{"relay:join-ok"};
inline const MsgKind kJoinDenied{"relay:join-denied"};
inline const MsgKind kLeave{"relay:leave"};
inline const MsgKind kKeepalive{"relay:keepalive"};
inline const MsgKind kMiscState{"relay:misc"};
inline const MsgKind kClientStatus{"relay:client-status"};
inline const MsgKind kGameState{"relay:game"};
}  // namespace relaymsg

class RelayServer;

/// Ground-truth hooks for the measurement harness (the paper reconstructed
/// these instants from AP packet timestamps; we expose them directly so the
/// two methods can be cross-validated).
struct RelayProbeHooks {
  std::function<void(std::uint64_t actionId, std::uint64_t toUser, TimePoint in,
                     TimePoint out)>
      onActionForwarded;
  /// Delivery sink for detached users (no replica): invoked at the instant
  /// the forward would hit the user's replica. The cluster layer counts
  /// per-receiver deliveries through this without simulating a network.
  std::function<void(std::uint64_t toUser, const Message&)> onLocalDeliver;
};

/// One user's portable relay state, used for live migration between rooms
/// (cluster instance handoff) — everything the receiving shard needs so
/// viewport prediction, activity tracking, per-flow delivery order, and
/// LoD decimation cadence continue seamlessly.
struct RelayUserRecord {
  std::uint64_t id{0};
  Pose pose;
  bool poseKnown{false};
  Pose prevPose;
  TimePoint poseAt;
  TimePoint prevPoseAt;
  TimePoint lastActivity;
  /// Sender-side rate state: the per-delay-class FIFO egress clocks and the
  /// pose sequence number driving distance-banded decimation.
  TimePoint flowNextSame;
  TimePoint flowNextCross;
  std::uint32_t poseSeq{0};
};

/// A full room snapshot for live migration: user records in id order. All
/// per-flow/per-LoD rate state rides inside the records (it is per sender,
/// not per pair), so a migrated room cannot reorder or double-decimate a
/// stream mid-handoff.
struct RelayRoomSnapshot {
  std::vector<RelayUserRecord> users;  // sorted by id
};

/// Per-stage fan-out counters (messages, not bytes): how each receiver
/// candidate of a pose broadcast was resolved. Tier indices follow the
/// room's interest bands (tier 0 = nearest / unfiltered).
struct RelayInterestStats {
  std::uint64_t forwardedByTier[interest::kMaxBands]{};
  std::uint64_t viewportFiltered{0};  // angular predicate rejections
  std::uint64_t lodFiltered{0};       // distance-band decimations
  std::uint64_t culledByRadius{0};    // visited, but outside the cull radius
  std::uint64_t culledByCell{0};      // never visited (grid cell prefilter)
};

/// Shared state of one social event across relay replicas.
class RelayRoom {
 public:
  RelayRoom(Simulator& sim, DataSpec spec);

  [[nodiscard]] const DataSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t userCount() const { return activeUsers_; }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] RelayProbeHooks& hooks() { return hooks_; }

  /// Pre-sizes the slot columns, id→slot table, and interest grid for
  /// `users` (join stays rehash-free up to that count). Called by
  /// deployments that know the expected event size. `slotsPerCell` caps the
  /// interest grid's cell reservation when the caller knows its population
  /// density (see InterestGrid::reserve).
  void reserveUsers(std::size_t users, std::size_t slotsPerCell = 1);

  /// Total bytes the room refused to forward due to the viewport filter.
  [[nodiscard]] ByteSize viewportFilteredBytes() const { return filtered_; }
  /// Total bytes decimated by distance-based interest management.
  [[nodiscard]] ByteSize lodFilteredBytes() const { return lodFiltered_; }
  /// Total bytes dropped outside the interest radius (cell or circle cull).
  [[nodiscard]] ByteSize interestCulledBytes() const { return culled_; }
  [[nodiscard]] ByteSize forwardedBytes() const { return forwarded_; }
  /// Forwards scheduled since construction (one per receiver per broadcast).
  [[nodiscard]] std::uint64_t forwardedMessages() const { return forwardedMsgs_; }
  /// Per-tier / per-stage breakdown of the same counters.
  [[nodiscard]] const RelayInterestStats& interestStats() const {
    return stats_;
  }
  /// The interest policy the room compiled from its DataSpec.
  [[nodiscard]] const interest::InterestParams& interestParams() const {
    return interest_;
  }

  /// Scales the shard's processing-delay model at runtime: the cluster
  /// capacity model raises this as a saturated instance's queues grow
  /// (provisioningFactor semantics, §7).
  void setProvisioningFactor(double factor);
  [[nodiscard]] double provisioningFactor() const {
    return spec_.provisioningFactor;
  }

  // Internal API used by RelayServer.
  /// False when the event is at its user cap (§6.2).
  bool join(std::uint64_t userId, RelayServer& home);
  /// Detached join (no replica): room bookkeeping and broadcast fan-out run
  /// normally but delivery goes to hooks().onLocalDeliver (if set). Used by
  /// benches, tests, and the cluster bench driver.
  bool joinDetached(std::uint64_t userId);
  void leave(std::uint64_t userId);
  void updatePose(std::uint64_t userId, const Pose& pose);
  void noteActivity(std::uint64_t userId);
  /// Starts periodic eviction of users silent for `timeout` (a client whose
  /// session broke stops being forwarded to — its peers' screens lose it).
  void startEvictionSweep(Duration timeout = Duration::seconds(15));
  /// Forwards `m` from `fromUser` to every other interested user, applying
  /// the interest scan (radius cull, LoD decimation, angular predicate) to
  /// pose messages, plus processing delay and queueing growth.
  void broadcast(std::uint64_t fromUser, const Message& m);
  /// Zero-allocation overload: fans out a caller-owned immutable message.
  /// The by-value overload above allocates exactly one shared copy per
  /// broadcast; this one allocates nothing at all.
  void broadcast(std::uint64_t fromUser, std::shared_ptr<const Message> m);

  // ---- live migration (cluster handoff) -----------------------------------
  /// Current membership in id order.
  [[nodiscard]] std::vector<std::uint64_t> userIds() const;
  /// Captures every user's relay state including flow clocks / LoD cadence.
  [[nodiscard]] RelayRoomSnapshot exportSnapshot() const;
  /// Adopts a migrated room wholesale: users join this room detached, with
  /// pose history, activity, flow clocks and decimation cadence carried
  /// over, so in-order delivery and LoD rhythm survive the handoff.
  void importSnapshot(const RelayRoomSnapshot& snap);

  /// Visits every member whose last known pose lies within `radius` of
  /// (x, y) as fn(userId, poseX, poseY), in deterministic order: the
  /// interest grid's (cell row, cell column, ascending slot) order when the
  /// grid is active, ascending slot order otherwise. Read-only. The
  /// partitioned cluster uses this to pick boundary avatars for
  /// interest-scoped ghost forwarding to a neighboring shard.
  // detlint:hotpath boundary-avatar scan on the shard pacing tick — rides the
  // interest grid's zero-alloc candidate walk
  template <typename Fn>
  void forEachNearby(double x, double y, double radius, Fn&& fn) const {
    const double r2 = radius * radius;
    if (gridActive_) {
      grid_.forEachCandidate(
          x, y, radius,
          [&](std::uint32_t, std::uint64_t id, double sx, double sy) {
            const double dx = sx - x;
            const double dy = sy - y;
            if (dx * dx + dy * dy <= r2) fn(id, sx, sy);
          });
      return;
    }
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      if (ids_[s] == kNoUser || poseKnown_[s] == 0) continue;
      const double dx = posX_[s] - x;
      const double dy = posY_[s] - y;
      if (dx * dx + dy * dy <= r2) fn(ids_[s], posX_[s], posY_[s]);
    }
  }

 private:
  /// ids_ sentinel marking a free slot.
  static constexpr std::uint64_t kNoUser = ~std::uint64_t{0};

  /// One receiver of a batched fan-out delivery.
  struct BatchEntry {
    std::uint64_t id;
    RelayServer* home;
  };
  using Batch = std::vector<BatchEntry>;

  [[nodiscard]] Duration sampleProcessingDelay();

  bool joinImpl(std::uint64_t userId, RelayServer* home);
  /// Appends one default-initialized row to every column.
  std::uint32_t growColumns();
  /// Clears a slot's own pose/activity state for a (re)join.
  void resetJoinState(std::uint32_t slot, RelayServer* home);
  /// Removes the slot from whichever placement structure holds it.
  void dropPlacement(std::uint32_t slot);
  void unplacedInsert(std::uint32_t slot);
  void unplacedErase(std::uint32_t slot);

  /// Schedules one delivery event walking `batch` at time `at`.
  void scheduleBatch(TimePoint at, Batch batch,
                     std::shared_ptr<const Message> msg, TimePoint inTime);

  Simulator& sim_;
  DataSpec spec_;
  RelayProbeHooks hooks_;

  // ---- structure-of-arrays room state (DESIGN.md §12) ---------------------
  // Per-user fields as contiguous columns indexed by dense slot. Slots are
  // recycled LIFO via freeSlots_ (deterministic: a pure function of the
  // join/leave history), with ids_[slot] == kNoUser marking holes. Pose
  // velocity is represented by the (prev, current) report pair plus
  // timestamps — the same data the §6.1 yaw-rate predictor needs.
  std::vector<std::uint64_t> ids_;
  std::vector<RelayServer*> homes_;
  std::vector<double> posX_;
  std::vector<double> posY_;
  std::vector<double> yawDeg_;
  std::vector<double> prevX_;
  std::vector<double> prevY_;
  std::vector<double> prevYawDeg_;
  std::vector<TimePoint> poseAt_;
  std::vector<TimePoint> prevPoseAt_;
  std::vector<TimePoint> lastActivity_;
  std::vector<std::uint8_t> poseKnown_;
  // Sender-side rate state: the pose sequence number (decimation clock for
  // every band) and per-delay-class FIFO egress clocks. Every receiver of a
  // broadcast shares one of two delivery instants (same-home / cross-home),
  // each clamped monotonic per sender, so no (sender → receiver) flow can
  // reorder — without the O(N²) per-pair clock matrix this replaces.
  std::vector<std::uint32_t> poseSeq_;
  std::vector<TimePoint> flowNextSame_;
  std::vector<TimePoint> flowNextCross_;

  std::vector<std::uint32_t> freeSlots_;  // LIFO recycle stack
  std::vector<std::uint32_t> unplaced_;   // sorted slots with no known pose
  FlatMap64<std::uint32_t> index_;        // user id → slot
  std::size_t activeUsers_{0};
  // Members bound to uniformHome_ (the first member's replica). Equal to
  // activeUsers_ iff the room is single-shard, which lets broadcast() skip
  // the per-receiver homes_ gather (pointer compared for equality only —
  // never ordered or hashed).
  RelayServer* uniformHome_{nullptr};
  std::size_t uniformHomeCount_{0};

  // Interest policy compiled from spec_, and the AOI grid (maintained only
  // when the policy has a bounded cull radius).
  interest::InterestParams interest_;
  interest::InterestGrid grid_;
  bool gridActive_{false};

  ByteSize filtered_;
  ByteSize lodFiltered_;
  ByteSize culled_;
  ByteSize forwarded_;
  std::uint64_t forwardedMsgs_{0};
  RelayInterestStats stats_;
  std::unique_ptr<PeriodicTask> evictionTask_;
  Duration evictionTimeout_ = Duration::seconds(15);
  std::vector<std::uint64_t> evictScratch_;
  // Batched fan-out scratch: same-instant receivers of one broadcast share
  // a single queue event walking a BatchEntry range; the entry buffers
  // recycle through this pool (see DESIGN.md §7).
  BatchPool<BatchEntry> batches_;
};

/// One relay replica bound to a node, speaking UDP or a TLS stream.
class RelayServer {
 public:
  /// UDP relay (AltspaceVR, Rec Room, VRChat, Worlds).
  static std::unique_ptr<RelayServer> makeUdp(Node& node, std::uint16_t port,
                                              std::shared_ptr<RelayRoom> room);
  /// HTTPS-stream relay (Hubs' central routing machine).
  static std::unique_ptr<RelayServer> makeTls(Node& node, std::uint16_t port,
                                              std::shared_ptr<RelayRoom> room);

  ~RelayServer();

  RelayServer(const RelayServer&) = delete;
  RelayServer& operator=(const RelayServer&) = delete;

  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] RelayRoom& room() { return *room_; }

  /// Sends a message to a locally-homed user (called by the room).
  void deliverToUser(std::uint64_t userId, const Message& m);
  /// Fan-out delivery: shares one immutable Message across all receivers of
  /// a broadcast instead of reallocating a copy per forward.
  void deliverToUser(std::uint64_t userId,
                     const std::shared_ptr<const Message>& m);

  /// Starts the per-user misc/state downlink at the spec's rate.
  void startMiscDownlink();

 private:
  RelayServer(Node& node, std::uint16_t port, std::shared_ptr<RelayRoom> room);

  void handleMessage(std::uint64_t senderId, const Message& m,
                     const std::optional<Endpoint>& udpFrom,
                     std::optional<TlsStreamServer::ConnId> tlsConn);
  void sendMiscTick();

  Node& node_;
  std::uint16_t port_;
  std::shared_ptr<RelayRoom> room_;

  // Exactly one of these is active.
  std::unique_ptr<UdpSocket> udp_;
  std::unique_ptr<TlsStreamServer> tls_;

  // User bindings for delivery: flat open-addressed tables — the per-forward
  // delivery lookup is a probe into one contiguous array, not a tree walk.
  FlatMap64<Endpoint> udpUsers_;
  FlatMap64<TlsStreamServer::ConnId> tlsUsers_;

  std::unique_ptr<PeriodicTask> miscTask_;
};

}  // namespace msim
