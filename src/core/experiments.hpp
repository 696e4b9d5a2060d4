#pragma once

// Canned experiment scenarios shared by the bench harness — each maps to a
// table or figure of the paper (see DESIGN.md §3 for the full index). Every
// run plays its users' inputs from a DriverScript (core/autodriver.hpp); the
// `*Script` functions below return those scripts, so a run's inputs can be
// printed, parsed back and replayed.

#include <string>
#include <vector>

#include "core/autodriver.hpp"
#include "core/disruptor.hpp"
#include "core/latency.hpp"
#include "core/testbed.hpp"

namespace msim {

/// The shape most runs play: users 0..n-1 launch at `launchAt`, in user
/// order, then user i joins at `firstJoin + i * joinEvery`.
[[nodiscard]] DriverScript launchThenJoinScript(
    int users, Duration launchAt, Duration firstJoin,
    Duration joinEvery = Duration::zero());

// ------------------------------------------------------------------ Table 3

struct TwoUserThroughputRow {
  std::string platform;
  double upKbps{0}, upStd{0};
  double downKbps{0}, downStd{0};
  int resWidth{0}, resHeight{0};
  double avatarKbps{0}, avatarStd{0};
};

/// Two users walking/chatting (§5.1); avatar-only throughput via the paper's
/// join-mutely differencing method (§5.2). Averaged over `seeds` runs.
[[nodiscard]] TwoUserThroughputRow runTwoUserThroughput(const PlatformSpec& spec,
                                                        int seeds = 20);
/// Both launch at 0 s; U1 joins at 5 s, U2 at 45 s.
[[nodiscard]] DriverScript twoUserThroughputScript();

// ------------------------------------------------------------------- Fig. 2

struct ChannelTimeline {
  std::vector<double> controlUpKbps;
  std::vector<double> controlDownKbps;
  std::vector<double> dataUpKbps;
  std::vector<double> dataDownKbps;
};

/// 180 s: welcome page from 0 s, both users join a social event at 90 s.
[[nodiscard]] ChannelTimeline runChannelTimeline(const PlatformSpec& spec,
                                                 std::uint64_t seed = 1);
[[nodiscard]] DriverScript channelTimelineScript();

// ------------------------------------------------------------------- Fig. 3

struct ForwardingCorrelation {
  std::vector<double> u1UpKbps;    // per-second instantaneous
  std::vector<double> u2DownKbps;
  double correlation{0};           // Pearson between the two series
  double meanUpKbps{0};
  double meanDownKbps{0};
};

[[nodiscard]] ForwardingCorrelation runForwardingCorrelation(
    const PlatformSpec& spec, std::uint64_t seed = 1);
/// Both launch at 0 s and join at 5 s.
[[nodiscard]] DriverScript forwardingCorrelationScript();

// ------------------------------------------------------------------- Fig. 6

enum class Fig6Variant {
  FacingJoiners,  // Exp 1: U1 sees everyone until turning away at 250 s
  FacingCorner,   // Exp 2: joiners invisible for the first 250 s
};

struct JoinTimeline {
  std::vector<double> upKbps;    // U1's uplink per second
  std::vector<double> downKbps;  // U1's downlink per second
};

/// 300 s: U2..U5 join at 50/100/150/200 s; U1 turns 180° at 250 s — away
/// from the crowd, or toward it in the corner variant.
[[nodiscard]] JoinTimeline runJoinTimeline(const PlatformSpec& spec,
                                           Fig6Variant variant,
                                           std::uint64_t seed = 1);
/// Both variants play the same script; only U1's starting yaw differs.
[[nodiscard]] DriverScript joinTimelineScript();

// --------------------------------------------------------------- Figs. 7-9

struct SweepPoint {
  int users{0};
  double downMbps{0}, downMbpsCi{0};
  double upMbps{0};
  double fps{0}, fpsCi{0};
  double cpuPct{0}, cpuCi{0};
  double gpuPct{0}, gpuCi{0};
  double memGB{0};
  double batteryDropPct{0};
};

/// N users in one event (all visible to U1); metrics measured on U1 over
/// `measureFor`, averaged over `seeds` runs.
struct SweepCell {
  PlatformSpec spec;
  int users{0};
  int seeds{20};
  Duration measureFor = Duration::seconds(60);
};

/// Runs every seed of every cell as one job list on the seed-sweep pool,
/// longest first, and reduces each cell in seed order: cell i's point is a
/// one-cell call's, for any cell order or worker count.
[[nodiscard]] std::vector<SweepPoint> runUsersSweepCells(
    const std::vector<SweepCell>& cells);

/// A one-cell runUsersSweepCells.
[[nodiscard]] SweepPoint runUsersSweepPoint(const PlatformSpec& spec, int users,
                                            int seeds = 20,
                                            Duration measureFor = Duration::seconds(60));
/// All launch at 0 s; user i joins at 2 s + 0.5 s * i.
[[nodiscard]] DriverScript usersSweepScript(int users);

// --------------------------------------------------------- Table 4, Fig. 11

struct LatencyRow {
  std::string platform;
  int users{2};
  double e2eMs{0}, e2eStd{0};
  double senderMs{0}, senderStd{0};
  double receiverMs{0}, receiverStd{0};
  double serverMs{0}, serverStd{0};
};

/// Finger-touch probes between U1 and U2 with `users` total in the event.
[[nodiscard]] LatencyRow runLatencyExperiment(const PlatformSpec& spec,
                                              int users = 2, int probes = 20,
                                              int seeds = 5);
/// All launch at 0 s; user i joins at 2 s + 1 s * i.
[[nodiscard]] DriverScript latencyExperimentScript(int users);

// ------------------------------------------------------------ §6.1 viewport

struct ViewportDetection {
  /// Downlink avatar rate (Kbps) at each of the 16 snap-turn steps.
  std::vector<double> downKbpsPerStep;
  /// Width (degrees) inferred from the on/off transitions.
  double inferredWidthDeg{0};
};

/// Rotates U1 through 16 x 22.5° steps with U2 stationary and reads the
/// forwarding on/off pattern from U1's downlink (§6.1).
[[nodiscard]] ViewportDetection runViewportDetection(const PlatformSpec& spec,
                                                     std::uint64_t seed = 1);
/// Both launch, then both join, at 0 s; U1 snap-turns once every 20 s from
/// 20 s on, 16 times.
[[nodiscard]] DriverScript viewportDetectionScript();

// ---------------------------------------------------------------- Fig. 12/13

struct DisruptionTimeline {
  std::vector<double> udpUpKbps;
  std::vector<double> udpDownKbps;
  std::vector<double> tcpUpKbps;
  std::vector<double> cpuPct;
  std::vector<double> gpuPct;
  std::vector<double> fps;
  std::vector<double> staleFps;
  bool screenFrozeAtEnd{false};
  double frozeAtSec{-1};
};

enum class DisruptionKind : std::uint8_t {
  DownlinkBandwidth,  // Fig. 12
  UplinkBandwidth,    // Fig. 13 top
  TcpUplinkOnly,      // Fig. 13 bottom
};

/// Worlds shooting-game disruption runs (§8.1).
[[nodiscard]] DisruptionTimeline runWorldsDisruption(DisruptionKind kind,
                                                     std::uint64_t seed = 1);
/// Both launch and join at 0 s and enter the game at 5 s.
[[nodiscard]] DriverScript worldsDisruptionScript();

// -------------------------------------------------------------------- §8.2

struct PerceptionRow {
  std::string platform;
  double addedLatencyMs{0};
  double lossPct{0};
  double e2eMs{0};
  bool walkChatImpaired{false};  // E2E above the 300 ms walk/chat threshold
  bool gamingImpaired{false};    // added latency above ~50 ms in a game
  double staleAvatarRatio{0};    // fraction of updates lost (pre-recovery)
};

[[nodiscard]] PerceptionRow runLatencyLossPerception(const PlatformSpec& spec,
                                                     double addedLatencyMs,
                                                     double lossPct,
                                                     std::uint64_t seed = 1);
/// Both launch and join at 0 s; with `game`, both enter the game at 4 s.
[[nodiscard]] DriverScript latencyLossPerceptionScript(bool game);

// ----------------------------------------------------- §5.2 content behaviour

struct DownloadTrace {
  std::string platform;
  double launchDownloadMB{0};   // welcome-page phase
  double joinDownloadMB{0};     // event-join phase
  double appStoreSizeMB{0};
  bool cachesBackground{true};
};

[[nodiscard]] DownloadTrace runDownloadTrace(const PlatformSpec& spec,
                                             std::uint64_t seed = 1);
/// Both launch at 0 s and join at 30 s.
[[nodiscard]] DriverScript downloadTraceScript();

/// Places `users` in a chat circle: U1 at the center-west facing east, the
/// rest spread inside U1's field of view. Used by sweeps and latency runs.
void arrangeUsersForSweep(Testbed& bed);

}  // namespace msim
