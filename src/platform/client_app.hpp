#pragma once

// The platform client application running on a headset.
//
// Lifecycle follows §2.1: launch -> welcome page (control chatter, content
// download) -> social event (data channel: avatar updates, misc state,
// keepalives; optional game mode). Implements the behaviours the paper
// reverse-engineered:
//  * periodic control-channel report spikes (AltspaceVR, Worlds — §4.1)
//  * Hubs' per-join background re-download (§5.2)
//  * Worlds' TCP-priority gate: UDP sends blocked while control-channel
//    requests are outstanding; a >30 s control blackout breaks the UDP
//    session permanently (frozen screen, §8.1)
//  * loss-recovery CPU work and CPU-pressure-induced uplink jitter, the
//    coupling behind Fig. 12
//  * frame/memory/background-cost wiring into the headset model.

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "avatar/codec.hpp"
#include "client/headset.hpp"
#include "platform/deployment.hpp"
#include "transport/rtp.hpp"

namespace msim {

enum class ClientPhase : std::uint8_t { Offline, WelcomePage, InEvent };

/// A remote user's avatar as this client currently knows it.
struct RemoteAvatar {
  Pose pose;
  std::uint64_t lastSequence{0};
  TimePoint lastUpdateAt;
};

struct ClientConfig {
  std::uint64_t userId{1};
  /// Load-balancing index (which replica this user is steered to, §4.2).
  int userIndex{0};
  bool muted{true};  // all paper experiments join mutely
  /// First install triggers the init download (AltspaceVR/VRChat, §5.2).
  bool firstInstall{true};
  Region region = regions::usEast();
  /// Wander-and-chat workload (§5.1) vs standing still.
  bool wander{true};
};

class PlatformClient {
 public:
  PlatformClient(HeadsetDevice& headset, PlatformDeployment& deployment,
                 ClientConfig cfg);
  ~PlatformClient();

  PlatformClient(const PlatformClient&) = delete;
  PlatformClient& operator=(const PlatformClient&) = delete;

  // ---- lifecycle ---------------------------------------------------------
  void launch();     // -> WelcomePage
  void joinEvent();  // -> InEvent
  void leaveEvent(); // -> WelcomePage
  void enterGameMode();
  void exitGameMode();

  [[nodiscard]] ClientPhase phase() const { return phase_; }
  [[nodiscard]] bool inGame() const { return inGame_; }
  [[nodiscard]] bool screenFrozen() const { return frozen_; }
  /// True when the last join attempt was refused for capacity (§6.2).
  [[nodiscard]] bool eventFull() const { return eventFull_; }

  // ---- avatar / motion ----------------------------------------------------
  [[nodiscard]] MotionModel& motion() { return motion_; }
  void setWandering(bool on) { cfg_.wander = on; }
  /// Mute toggle; takes effect immediately, also mid-event.
  void setMuted(bool muted);

  /// Keep facing a point while moving (two users chatting face each other);
  /// cleared with clearFaceTarget().
  void setFaceTarget(double x, double y) { faceTarget_ = std::make_pair(x, y); }
  void clearFaceTarget() { faceTarget_.reset(); }

  /// Performs a user-visible action (the §7 finger-touch probe): shows on
  /// the local display and rides the next avatar update to peers.
  void performVisibleAction(std::uint64_t actionId);

  // ---- state queries ------------------------------------------------------
  [[nodiscard]] const std::map<std::uint64_t, RemoteAvatar>& remoteAvatars() const {
    return remotes_;
  }
  /// Avatars inside this user's optical FoV (drives render cost). Excludes
  /// avatars suppressed by the personal-space bubble (Table 1).
  [[nodiscard]] int visibleAvatarCount() const;

  /// Avatars currently hidden by the personal-space bubble.
  [[nodiscard]] int bubbleHiddenCount() const;

  /// Missing-content metric (§6.1): fraction of visible-avatar samples whose
  /// data was stale (>250 ms old) — what a wrong viewport prediction costs.
  [[nodiscard]] double visibleStaleRatio() const {
    return visibleSamples_ > 0
               ? static_cast<double>(staleVisibleSamples_) /
                     static_cast<double>(visibleSamples_)
               : 0.0;
  }

  /// Radius of the personal-space bubble (platforms with the feature).
  static constexpr double kPersonalSpaceRadius = 0.8;
  [[nodiscard]] TimePoint lastDownlinkAt() const { return lastDownlinkAt_; }
  [[nodiscard]] HeadsetDevice& headset() { return headset_; }
  [[nodiscard]] const PlatformSpec& spec() const { return deployment_.spec(); }
  [[nodiscard]] std::uint64_t userId() const { return cfg_.userId; }
  [[nodiscard]] std::uint64_t missedUpdates() const { return missedUpdates_; }

  /// Hubs only: RTCP-derived RTT to the WebRTC server (Table 2's method).
  [[nodiscard]] std::optional<Duration> webrtcRtt() const;

  // ---- ground-truth probe hooks (cross-validating the §7 method) ----------
  std::function<void(std::uint64_t actionId, TimePoint)> onActionPacketSent;

  static constexpr std::uint16_t kVoicePort = 5056;

 private:
  void wireHeadset();
  void startVoice();
  void startEventTraffic();
  void stopEventTraffic();
  void avatarTick();
  void sendAvatarUpdate(std::uint64_t actionId);
  void sendDataMessage(const std::shared_ptr<Message>& m);
  void reallySend(const std::shared_ptr<Message>& m);
  void flushGatedQueue();
  void handleDataMessage(const Message& m);
  void miscTick();
  void statusTick();
  void gameTick();
  void keepaliveTick();
  void spikeTick();
  void clockSyncRound();
  void clockSyncTimedOut();
  void watchdogTick();
  void backgroundAccountingTick();
  [[nodiscard]] bool udpGateClosed() const;
  [[nodiscard]] double cpuPressure() const;

  HeadsetDevice& headset_;
  PlatformDeployment& deployment_;
  ClientConfig cfg_;
  Simulator& sim_;

  ClientPhase phase_{ClientPhase::Offline};
  bool inGame_{false};
  bool frozen_{false};
  bool dataChannelBroken_{false};
  bool eventFull_{false};

  MotionModel motion_;
  AvatarUpdateCodec codec_;
  HttpClient control_;
  /// Dedicated connection for the latency-critical clock-sync exchange —
  /// bulk report spikes must not head-of-line-block it (§8.1's gaps track
  /// the injected TCP delay, not the spike transfer time).
  HttpClient controlSync_;
  Endpoint controlEp_;
  Endpoint dataEp_;

  // Data channel (one of the two).
  std::unique_ptr<UdpSocket> udp_;
  std::unique_ptr<TlsStreamClient> tlsData_;
  std::unique_ptr<RtpSession> voice_;  // Hubs WebRTC voice path

  std::map<std::uint64_t, RemoteAvatar> remotes_;
  TimePoint lastDownlinkAt_;
  std::uint64_t missedUpdates_{0};
  double pendingRecoveryCpuMs_{0.0};
  double recentBackgroundMsPerSec_{0.0};
  double recentRecoveryMsPerSec_{0.0};
  std::uint64_t visibleSamples_{0};
  std::uint64_t staleVisibleSamples_{0};

  std::optional<std::uint64_t> pendingActionId_;
  std::optional<std::pair<double, double>> faceTarget_;

  // Worlds TCP-priority gate state (§8.1).
  std::deque<std::shared_ptr<Message>> gatedQueue_;
  TimePoint controlOutstandingSince_;
  TimePoint lastControlResponseAt_;
  bool controlOutstanding_{false};
  std::uint64_t clockSyncRound_{0};

  // Periodic machinery.
  std::unique_ptr<PeriodicTask> avatarTask_;
  std::unique_ptr<PeriodicTask> motionTask_;
  std::unique_ptr<PeriodicTask> miscTask_;
  std::unique_ptr<PeriodicTask> statusTask_;
  std::unique_ptr<PeriodicTask> gameTask_;
  std::unique_ptr<PeriodicTask> keepaliveTask_;
  std::unique_ptr<PeriodicTask> spikeTask_;
  std::unique_ptr<PeriodicTask> menuTask_;
  std::unique_ptr<PeriodicTask> voiceTask_;
  std::unique_ptr<PeriodicTask> watchdogTask_;
  std::unique_ptr<PeriodicTask> accountingTask_;
  Timer clockSync_{sim_, [this] { clockSyncRound(); }};
  Timer clockSyncTimeout_{sim_, [this] { clockSyncTimedOut(); }};  // armed in flight
};

}  // namespace msim
