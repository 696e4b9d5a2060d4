#include "platform/client_app.hpp"

#include <algorithm>
#include <cmath>

namespace msim {

namespace {
constexpr Duration kKeepaliveInterval = Duration::seconds(1);
constexpr Duration kMiscInterval = Duration::millis(200);
constexpr Duration kMotionInterval = Duration::millis(100);
constexpr Duration kWatchdogInterval = Duration::seconds(1);
/// A control blackout this long breaks Worlds' data session for good (§8.1).
constexpr Duration kSessionBreakAfter = Duration::seconds(30);
/// CPU cost of reconstructing one missing remote update — state repair plus
/// motion extrapolation (drives the CPU spike and FPS collapse of Fig. 12).
constexpr double kRecoveryCpuMsPerMiss = 22.0;
/// Above this CPU pressure the uplink sender starts to starve (Fig. 12(a)).
constexpr double kUplinkPressureKnee = 0.65;

std::int64_t wireSizedPayload(DataRate rate, Duration interval, double overhead) {
  const double bytesPerTick = static_cast<double>(rate.toBps()) / 8.0 *
                              interval.toSeconds();
  return static_cast<std::int64_t>(
      bytesPerTick > overhead + 10.0 ? bytesPerTick - overhead : 10.0);
}
}  // namespace

PlatformClient::PlatformClient(HeadsetDevice& headset,
                               PlatformDeployment& deployment, ClientConfig cfg)
    : headset_{headset},
      deployment_{deployment},
      cfg_{cfg},
      sim_{headset.sim()},
      codec_{deployment.spec().avatar, cfg.userId},
      control_{headset.node()},
      controlSync_{headset.node()},
      controlEp_{deployment.controlEndpointFor(cfg.region)},
      dataEp_{deployment.dataEndpointFor(cfg.region, cfg.userIndex)} {
  wireHeadset();
}

PlatformClient::~PlatformClient() = default;

void PlatformClient::wireHeadset() {
  const DevicePerfSpec& perf = spec().perf;
  headset_.pipeline().setCostJitter(perf.frameCostJitter);
  headset_.pipeline().setWorkload([this, perf] {
    FrameWorkload load;
    load.visibleAvatars = frozen_ ? 0 : visibleAvatarCount();
    load.cpuMs = perf.cpuFrameBaseMs +
                 perf.cpuFrameMsPerAvatar * load.visibleAvatars +
                 perf.cpuFrameMsPerAvatarSq * load.visibleAvatars *
                     load.visibleAvatars;
    load.gpuMs = perf.gpuFrameBaseMs + perf.gpuFrameMsPerAvatar * load.visibleAvatars;
    // CPU contention: when background work (loss recovery, network stack)
    // eats the core, frame CPU work takes proportionally longer (Fig. 12(c)).
    const double pressure = cpuPressure();
    if (pressure > 0.0) {
      const double available = std::max(0.25, 1.0 - pressure);
      load.cpuMs /= available;
    }
    return load;
  });
  headset_.metrics().setMemoryProvider([this, perf] {
    return perf.memoryBaseGB +
           perf.memoryPerAvatarGB * static_cast<double>(remotes_.size());
  });
}

double PlatformClient::cpuPressure() const {
  // Only *abnormal* CPU work (loss recovery) pressures the render thread;
  // the calibrated baseline background is already part of normal operation.
  return std::min(0.90, recentRecoveryMsPerSec_ / 1000.0);
}

int PlatformClient::visibleAvatarCount() const {
  int count = 0;
  for (const auto& [id, avatar] : remotes_) {
    if (spec().features.personalSpace &&
        motion_.pose().distanceTo(avatar.pose) < kPersonalSpaceRadius) {
      continue;  // suppressed by the personal-space bubble
    }
    if (inViewport(motion_.pose(), avatar.pose.x, avatar.pose.y, kQuest2FovDeg)) {
      ++count;
    }
  }
  return count;
}

int PlatformClient::bubbleHiddenCount() const {
  if (!spec().features.personalSpace) return 0;
  int count = 0;
  for (const auto& [id, avatar] : remotes_) {
    if (motion_.pose().distanceTo(avatar.pose) < kPersonalSpaceRadius) ++count;
  }
  return count;
}

std::optional<Duration> PlatformClient::webrtcRtt() const {
  return voice_ != nullptr ? voice_->lastRtt() : std::nullopt;
}

// ------------------------------------------------------------------ lifecycle

void PlatformClient::launch() {
  if (phase_ != ClientPhase::Offline) return;
  phase_ = ClientPhase::WelcomePage;
  headset_.pipeline().start();
  headset_.metrics().start();

  // Welcome-page control chatter: a burst of menu fetches.
  for (int i = 0; i < 4; ++i) {
    control_.request(controlEp_, HttpRequest{controlpath::kMenu}, nullptr);
  }
  // §5.2 content behaviour.
  if (cfg_.firstInstall && !spec().content.initDownload.isZero()) {
    control_.request(controlEp_, HttpRequest{controlpath::kContentInit}, nullptr);
  }
  if (!spec().content.perLaunchDownload.isZero()) {
    control_.request(controlEp_, HttpRequest{controlpath::kContentLaunch}, nullptr);
  }

  // §4.1 periodic report spikes.
  if (!spec().control.spikeInterval.isZero()) {
    spikeTask_ = std::make_unique<PeriodicTask>(sim_, spec().control.spikeInterval,
                                                [this] { spikeTick(); });
  }
  // Welcome-page browsing: users poke at menus until they join (Fig. 2's
  // control-channel activity before the 90 s mark).
  menuTask_ = std::make_unique<PeriodicTask>(sim_, Duration::seconds(4), [this] {
    if (phase_ != ClientPhase::WelcomePage) return;
    HttpRequest req{controlpath::kMenu};
    req.body = ByteSize::bytes(
        static_cast<std::int64_t>(sim_.rng().uniform(400.0, 2'000.0)));
    control_.request(controlEp_, req, nullptr);
  });
  // Background accounting feeds the metrics sampler once per second.
  accountingTask_ = std::make_unique<PeriodicTask>(
      sim_, Duration::seconds(1), [this] { backgroundAccountingTick(); });
}

void PlatformClient::joinEvent() {
  if (phase_ != ClientPhase::WelcomePage) return;
  phase_ = ClientPhase::InEvent;
  frozen_ = false;
  dataChannelBroken_ = false;

  // Hubs re-downloads the scene on every join (no caching, §5.2).
  if (!spec().content.perJoinDownload.isZero() || !spec().content.cachesBackground) {
    control_.request(controlEp_, HttpRequest{controlpath::kContentJoin}, nullptr);
  }

  // Open the data channel.
  if (spec().data.protocol == DataProtocol::Udp) {
    udp_ = std::make_unique<UdpSocket>(headset_.node());
    udp_->onReceive([this](const Packet& p, const Endpoint&) {
      const Message* m = p.primaryMessage();
      if (m != nullptr) handleDataMessage(*m);
    });
  } else {
    tlsData_ = std::make_unique<TlsStreamClient>(headset_.node());
    tlsData_->onMessage([this](const Message& m) { handleDataMessage(m); });
    tlsData_->connect(dataEp_, nullptr);
    // Hubs' WebRTC voice path (RTCP gives the paper its RTT probe, §4.2).
    voice_ = std::make_unique<RtpSession>(headset_.node());
    voice_->setRemote(Endpoint{dataEp_.addr, kVoicePort});
    voice_->startRtcp(Duration::seconds(1));
  }

  auto join = std::make_shared<Message>();
  join->kind = relaymsg::kJoin;
  join->size = ByteSize::bytes(96);
  join->senderId = cfg_.userId;
  reallySend(join);
  lastDownlinkAt_ = sim_.now();
  lastControlResponseAt_ = sim_.now();

  startEventTraffic();
}

void PlatformClient::leaveEvent() {
  if (phase_ != ClientPhase::InEvent) return;
  auto leave = std::make_shared<Message>();
  leave->kind = relaymsg::kLeave;
  leave->size = ByteSize::bytes(48);
  leave->senderId = cfg_.userId;
  reallySend(leave);
  stopEventTraffic();
  udp_.reset();
  tlsData_.reset();
  voice_.reset();
  remotes_.clear();
  inGame_ = false;
  phase_ = ClientPhase::WelcomePage;
}

void PlatformClient::enterGameMode() {
  if (phase_ != ClientPhase::InEvent || !spec().game.available) return;
  inGame_ = true;
  const GameSpec& game = spec().game;
  if (!game.gameUplink.isZero()) {
    gameTask_ = std::make_unique<PeriodicTask>(sim_, Duration::millis(50),
                                               [this] { gameTick(); });
  }
  if (spec().control.carriesClockSync) clockSyncRound();
}

void PlatformClient::exitGameMode() {
  inGame_ = false;
  gameTask_.reset();
  clockSync_.cancel();
}

void PlatformClient::startEventTraffic() {
  const double hz = spec().avatar.updateRateHz;
  avatarTask_ = std::make_unique<PeriodicTask>(
      sim_, Duration::seconds(1.0 / hz), [this] { avatarTick(); });
  motionTask_ = std::make_unique<PeriodicTask>(sim_, kMotionInterval, [this] {
    motion_.advance(kMotionInterval);
    if (cfg_.wander && !motion_.walking()) motion_.wander(sim_.rng());
    if (faceTarget_) motion_.faceTowards(faceTarget_->first, faceTarget_->second);
  });
  miscTask_ = std::make_unique<PeriodicTask>(sim_, kMiscInterval,
                                             [this] { miscTick(); });
  if (!spec().data.uplinkStatusRate.isZero()) {
    statusTask_ = std::make_unique<PeriodicTask>(sim_, Duration::millis(1000.0 / 60),
                                                 [this] { statusTick(); });
  }
  keepaliveTask_ = std::make_unique<PeriodicTask>(sim_, kKeepaliveInterval,
                                                  [this] { keepaliveTick(); });
  watchdogTask_ = std::make_unique<PeriodicTask>(sim_, kWatchdogInterval,
                                                 [this] { watchdogTick(); });
  if (!cfg_.muted) startVoice();
}

void PlatformClient::startVoice() {
  if (voiceTask_ != nullptr || phase_ != ClientPhase::InEvent) return;
  const VoiceSpec voice;
  voiceTask_ = std::make_unique<PeriodicTask>(
      sim_, Duration::seconds(1.0 / voice.frameRateHz), [this, voice] {
        if (spec().data.protocol == DataProtocol::Udp) {
          sendDataMessage(codec_.encodeVoice(voice, sim_.now()));
        } else if (voice_ != nullptr) {
          voice_->sendFrame(voice.bytesPerFrame);
        }
      });
}

void PlatformClient::setMuted(bool muted) {
  cfg_.muted = muted;
  if (muted) {
    voiceTask_.reset();
  } else {
    startVoice();
  }
}

void PlatformClient::stopEventTraffic() {
  avatarTask_.reset();
  motionTask_.reset();
  miscTask_.reset();
  statusTask_.reset();
  gameTask_.reset();
  keepaliveTask_.reset();
  voiceTask_.reset();
  watchdogTask_.reset();
  clockSync_.cancel();
  gatedQueue_.clear();
}

// ----------------------------------------------------------------- uplink

void PlatformClient::performVisibleAction(std::uint64_t actionId) {
  pendingActionId_ = actionId;
  // The user's own hands render locally right away.
  headset_.markActionVisible(actionId);
}

void PlatformClient::avatarTick() {
  if (phase_ != ClientPhase::InEvent || frozen_) return;

  // CPU starvation makes the sender bursty (Fig. 12(a)): under pressure,
  // updates are skipped or delayed rather than paced evenly.
  const double pressure = cpuPressure();
  if (pressure > kUplinkPressureKnee) {
    const double pSkip = std::min(0.9, (pressure - kUplinkPressureKnee) * 4.0);
    if (sim_.rng().bernoulli(pSkip)) return;
  }

  std::uint64_t actionId = 0;
  if (pendingActionId_) {
    actionId = *pendingActionId_;
    pendingActionId_.reset();
  }
  if (actionId != 0) {
    // Input processing cost before the update can leave (Table 4 sender lat).
    const Duration proc = sim_.rng().jitteredMillis(
        spec().perf.senderProcMeanMs, spec().perf.senderProcStdMs);
    sim_.scheduleAfter(proc, [this, actionId] { sendAvatarUpdate(actionId); });
  } else {
    sendAvatarUpdate(0);
  }

  // Occasional expression/gesture events (Worlds thumbs-up etc.).
  const AvatarSpec& av = spec().avatar;
  if (av.expressionEventRateHz > 0.0 &&
      sim_.rng().bernoulli(av.expressionEventRateHz / av.updateRateHz)) {
    sendDataMessage(codec_.encodeExpression(sim_.now()));
  }
}

void PlatformClient::sendAvatarUpdate(std::uint64_t actionId) {
  if (phase_ != ClientPhase::InEvent || frozen_) return;
  auto m = codec_.encodePose(motion_.pose(), sim_.now(), sim_.rng(), actionId);
  sendDataMessage(std::move(m));
}

bool PlatformClient::udpGateClosed() const {
  // Worlds gives critical control-channel TCP (the clock-sync exchange)
  // strict priority: UDP waits until it has been delivered (§8.1). The bulk
  // report spikes do not gate — their loss is not time-critical.
  return spec().game.tcpPriorityCoupling && inGame_ &&
         clockSyncTimeout_.armed();
}

void PlatformClient::sendDataMessage(const std::shared_ptr<Message>& m) {
  if (dataChannelBroken_) return;
  if (udpGateClosed()) {
    gatedQueue_.push_back(m);
    while (gatedQueue_.size() > 256) gatedQueue_.pop_front();
    return;
  }
  reallySend(m);
}

void PlatformClient::reallySend(const std::shared_ptr<Message>& m) {
  if (dataChannelBroken_) return;
  if (m->actionId != 0 && onActionPacketSent) {
    onActionPacketSent(m->actionId, sim_.now());
  }
  if (spec().data.protocol == DataProtocol::Udp) {
    if (udp_ != nullptr) udp_->sendTo(dataEp_, m->size, m);
  } else {
    if (tlsData_ != nullptr) tlsData_->send(*m);
  }
}

void PlatformClient::flushGatedQueue() {
  while (!gatedQueue_.empty() && !udpGateClosed() && !dataChannelBroken_) {
    auto m = gatedQueue_.front();
    gatedQueue_.pop_front();
    reallySend(m);
  }
}

void PlatformClient::miscTick() {
  if (phase_ != ClientPhase::InEvent || frozen_) return;
  const double overhead = spec().data.protocol == DataProtocol::Udp
                              ? wire::kEthIpUdp
                              : wire::kEthIpTcp + wire::kTlsRecord;
  auto m = std::make_shared<Message>();
  // Client-side misc (input state, acks) is consumed by the server; the
  // server's own misc tier fills the downlink (Table 3: up ~= down).
  m->kind = relaymsg::kClientStatus;
  m->size = ByteSize::bytes(wireSizedPayload(spec().data.miscUplink, kMiscInterval,
                                             overhead));
  m->senderId = cfg_.userId;
  sendDataMessage(m);
}

void PlatformClient::statusTick() {
  if (phase_ != ClientPhase::InEvent || frozen_) return;
  auto m = std::make_shared<Message>();
  m->kind = relaymsg::kClientStatus;
  m->size = ByteSize::bytes(wireSizedPayload(spec().data.uplinkStatusRate,
                                             Duration::millis(1000.0 / 60),
                                             wire::kEthIpUdp));
  m->senderId = cfg_.userId;
  sendDataMessage(m);
}

void PlatformClient::gameTick() {
  if (phase_ != ClientPhase::InEvent || frozen_ || !inGame_) return;
  auto m = std::make_shared<Message>();
  m->kind = relaymsg::kGameState;
  m->size = ByteSize::bytes(wireSizedPayload(spec().game.gameUplink,
                                             Duration::millis(50), wire::kEthIpUdp));
  m->senderId = cfg_.userId;
  sendDataMessage(m);
}

void PlatformClient::keepaliveTick() {
  if (phase_ != ClientPhase::InEvent || dataChannelBroken_) return;
  auto m = std::make_shared<Message>();
  m->kind = relaymsg::kKeepalive;
  m->size = ByteSize::bytes(24);
  m->senderId = cfg_.userId;
  // Keepalives bypass the TCP gate ("tiny data exchanges over UDP", §8.1).
  reallySend(m);
}

void PlatformClient::spikeTick() {
  if (phase_ == ClientPhase::Offline) return;
  HttpRequest req{controlpath::kReport};
  req.body = spec().control.spikeUploadBytes;
  if (!controlOutstanding_) {
    controlOutstanding_ = true;
    controlOutstandingSince_ = sim_.now();
  }
  control_.request(controlEp_, req, [this](const HttpResponse& resp, Duration) {
    if (resp.status > 0) lastControlResponseAt_ = sim_.now();
    controlOutstanding_ = control_.busy();
    flushGatedQueue();
  });
}

void PlatformClient::clockSyncRound() {
  if (!inGame_ || phase_ != ClientPhase::InEvent) return;
  if (clockSyncTimeout_.armed()) return;  // a round is in flight
  // Application-level timeout: a sync stuck behind a dying connection is
  // abandoned and retried on a fresh request.
  clockSyncTimeout_.armAfter(Duration::seconds(20));
  if (!controlOutstanding_) {
    controlOutstanding_ = true;
    controlOutstandingSince_ = sim_.now();
  }
  const TimePoint sentAt = sim_.now();
  const std::uint64_t round = ++clockSyncRound_;
  controlSync_.request(
      controlEp_, HttpRequest{controlpath::kClockSync},
      [this, sentAt, round](const HttpResponse& resp, Duration) {
        if (round != clockSyncRound_) return;  // superseded by the timeout
        clockSyncTimeout_.disarm();
        if (resp.status > 0) lastControlResponseAt_ = sim_.now();
        controlOutstanding_ = control_.busy() || controlSync_.busy();
        flushGatedQueue();
        const Duration interval = spec().control.clockSyncInterval;
        const Duration elapsed = sim_.now() - sentAt;
        const Duration wait = elapsed >= interval ? Duration::zero()
                                                  : interval - elapsed;
        clockSync_.armAfter(wait);
      });
}

void PlatformClient::clockSyncTimedOut() {
  ++clockSyncRound_;  // invalidate the stale handler
  controlOutstanding_ = control_.busy() || controlSync_.busy();
  flushGatedQueue();
  clockSyncRound();
}

// --------------------------------------------------------------- downlink

void PlatformClient::handleDataMessage(const Message& m) {
  lastDownlinkAt_ = sim_.now();
  if (m.kind == relaymsg::kJoinDenied) {
    // Event at capacity (§6.2): back out to the welcome page. Deferred —
    // leaveEvent() tears down the socket this callback is running on.
    eventFull_ = true;
    sim_.scheduleAfter(Duration::zero(), [this] { leaveEvent(); });
    return;
  }
  if (m.kind == relaymsg::kJoinOk) {
    eventFull_ = false;
    return;
  }
  if (m.kind == avatarmsg::kPoseUpdate && m.senderId != 0) {
    RemoteAvatar& remote = remotes_[m.senderId];
    // Sequence-gap detection: every missing update is reconstruction work
    // (motion prediction / state repair) on the CPU (Fig. 12(b)).
    if (remote.lastSequence != 0 && m.sequence > remote.lastSequence + 1) {
      const std::uint64_t missed = m.sequence - remote.lastSequence - 1;
      missedUpdates_ += missed;
      pendingRecoveryCpuMs_ +=
          kRecoveryCpuMsPerMiss * static_cast<double>(missed);
    } else if (m.sequence != 0 && m.sequence < remote.lastSequence) {
      // A late (reordered) arrival fills a hole previously booked as missed.
      if (missedUpdates_ > 0) --missedUpdates_;
      pendingRecoveryCpuMs_ =
          std::max(0.0, pendingRecoveryCpuMs_ - kRecoveryCpuMsPerMiss);
    }
    remote.lastSequence = std::max(remote.lastSequence, m.sequence);
    if (m.pose) remote.pose = Pose{m.pose->x, m.pose->y, m.pose->yawDeg};
    remote.lastUpdateAt = sim_.now();

    if (m.actionId != 0 && !frozen_) {
      const Duration proc = sim_.rng().jitteredMillis(
          spec().perf.receiverProcMeanMs, spec().perf.receiverProcStdMs);
      const std::uint64_t actionId = m.actionId;
      sim_.scheduleAfter(proc, [this, actionId] {
        headset_.markActionVisible(actionId);
      });
    }
    return;
  }
  // Misc/keepalive/game state: liveness already updated above.
}

// --------------------------------------------------------------- watchdogs

void PlatformClient::watchdogTick() {
  if (phase_ != ClientPhase::InEvent || dataChannelBroken_) return;
  // Worlds' session break (§8.1): when the client's own TCP sends make no
  // delivery progress for ~30 s (the 100%-uplink-loss case), the UDP
  // session dies for good. Uplink *delay* (ACKs still arriving, late) and
  // downlink congestion (uplink ACKs healthy) merely gap the uplink.
  const Duration worstStall =
      std::max(control_.maxAckStallAge(), controlSync_.maxAckStallAge());
  if (spec().game.tcpPriorityCoupling && inGame_ &&
      worstStall > kSessionBreakAfter) {
    dataChannelBroken_ = true;
    frozen_ = true;
    gatedQueue_.clear();
  }
  // Stale remote avatars fade out after their sender goes silent.
  for (auto it = remotes_.begin(); it != remotes_.end();) {
    if (sim_.now() - it->second.lastUpdateAt > Duration::seconds(40)) {
      it = remotes_.erase(it);
    } else {
      ++it;
    }
  }
}

void PlatformClient::backgroundAccountingTick() {
  // Missing-content sampling (§6.1): a visible avatar whose last update is
  // stale means the filter (or the network) withheld content we needed.
  if (phase_ == ClientPhase::InEvent && !frozen_) {
    for (const auto& [id, avatar] : remotes_) {
      if (!inViewport(motion_.pose(), avatar.pose.x, avatar.pose.y, kQuest2FovDeg)) {
        continue;
      }
      ++visibleSamples_;
      // Stale = older than ~3 update intervals (content the user is looking
      // at is visibly frozen by then).
      const Duration staleAfter = std::max(
          Duration::millis(150),
          Duration::seconds(3.0 / spec().avatar.updateRateHz));
      if (sim_.now() - avatar.lastUpdateAt > staleAfter) {
        ++staleVisibleSamples_;
      }
    }
  }
  const DevicePerfSpec& perf = spec().perf;
  double ms = perf.cpuBackgroundBaseMsPerSec +
              perf.cpuBackgroundMsPerAvatarPerSec *
                  static_cast<double>(phase_ == ClientPhase::InEvent
                                          ? visibleAvatarCount()
                                          : 0);
  recentRecoveryMsPerSec_ = pendingRecoveryCpuMs_;
  ms += pendingRecoveryCpuMs_;
  pendingRecoveryCpuMs_ = 0.0;
  recentBackgroundMsPerSec_ = ms;
  headset_.metrics().addBackgroundCpuMs(ms);
  headset_.metrics().addBackgroundGpuMs(perf.gpuCompositorMsPerVsync *
                                        headset_.spec().refreshRateHz);
}

}  // namespace msim
