#pragma once

// Platform architecture descriptors.
//
// Everything calibrated here is a *two-user/endpoint* fact the paper
// measured directly (Tables 1-4, §4-§5 constants). Everything multi-user,
// disrupted, or geographic must EMERGE from the mechanisms in relay.cpp /
// client_app.cpp — see DESIGN.md §4 for the calibration-vs-emergence line.

#include <cstdint>
#include <string>
#include <vector>

#include "avatar/spec.hpp"
#include "geo/geo.hpp"
#include "util/rate.hpp"

namespace msim {

/// How a service tier is placed on the fabric (Table 2).
enum class Placement : std::uint8_t {
  Anycast,        // replicas everywhere; routing picks the nearest
  NearestRegion,  // DNS steers to the closest regional deployment
  FixedUsWest,    // always the U.S. west coast (AltspaceVR data, Hubs)
  FixedUsEast,    // always the U.S. east coast
};

[[nodiscard]] const char* toString(Placement p);

/// Which L7 stack a data channel runs on (§4.1).
enum class DataProtocol : std::uint8_t {
  Udp,          // AltspaceVR, Rec Room, VRChat, Worlds
  HttpsStream,  // Hubs avatar data (WebRTC voice rides alongside)
};

/// Control channel behaviour (all platforms use HTTPS).
struct ControlSpec {
  Placement placement{Placement::NearestRegion};
  std::string owner;  // WHOIS owner expected for Table 2
  /// Periodic client-report spike (§4.1): AltspaceVR ~50/17 Kbps down/up
  /// every ~10 s; Worlds ~300 Kbps uplink every ~10 s, no downlink spike.
  Duration spikeInterval = Duration::zero();  // zero = no spikes
  ByteSize spikeUploadBytes = ByteSize::zero();
  ByteSize spikeDownloadBytes = ByteSize::zero();
  /// Worlds synchronizes game clocks over this channel (§8.1).
  bool carriesClockSync{false};
  Duration clockSyncInterval = Duration::seconds(2);
};

/// Data channel behaviour. RelayRoom's constructor rejects a spec it cannot
/// run with std::invalid_argument: replicasPerSite >= 1, 0 <
/// viewportWidthDeg <= 360, a finite interestCellM > 0,
/// interestFarKeepEvery >= 1 and maxEventUsers >= 0.
struct DataSpec {
  DataProtocol protocol{DataProtocol::Udp};
  Placement placement{Placement::Anycast};
  std::string owner;
  /// Replicas per site; >1 lets load balancing give the two test users
  /// different server addresses (§4.2).
  int replicasPerSite{2};
  /// AltspaceVR and Hubs assign both users the same server (§4.2).
  bool sameServerForAllUsers{false};
  /// Non-avatar data-channel chatter in each direction (state sync,
  /// keepalives), calibrated from Table 3 total minus avatar throughput.
  DataRate miscUplink = DataRate::kbps(5);
  DataRate miscDownlink = DataRate::kbps(5);
  /// Uplink-only client status the server consumes rather than forwards —
  /// why Worlds uploads 752 Kbps but peers only receive 413 Kbps (§5.1).
  DataRate uplinkStatusRate = DataRate::zero();
  /// Server-side viewport filter (AltspaceVR only, §6.1).
  bool viewportFilter{false};
  double viewportWidthDeg{150.0};
  /// Viewport prediction lead (§6.1): the server filters against the
  /// receiver's *extrapolated* facing direction this far in the future, to
  /// compensate for delivery delay. Zero = filter on the last report.
  double viewportPredictionLeadMs{0.0};
  /// Spatial interest grid (src/interest): pose updates fan out only to
  /// receivers within `interestRadiusM` of the sender, at distance-banded
  /// rates — full rate inside interestFullRadiusM, half rate to
  /// interestHalfRadiusM, one-in-interestFarKeepEvery beyond. Off on every
  /// measured platform (only AltspaceVR culls at all, and only by angle);
  /// this is the scaling path for rooms far past the paper's 4 users. With
  /// no radius it is §6.2's Donnybrook-style LoD (bands only, no cull).
  bool interestGrid{false};
  double interestCellM{8.0};         // AOI cell edge (quantization step)
  double interestRadiusM{100.0};     // hard cull beyond this (<= 0: none)
  double interestFullRadiusM{10.0};  // full update rate inside
  double interestHalfRadiusM{40.0};  // half rate inside
  std::uint32_t interestFarKeepEvery{10};  // 1-in-N beyond the half radius
  /// Server processing per forwarded message (Table 4 "Server" column).
  double serverProcMeanMs{30.0};
  double serverProcStdMs{6.0};
  /// Queueing growth with event size (Fig. 11's growing deltas):
  /// extra ms = queueCoefMs * (users - 2)^1.5.
  double queueCoefMs{1.0};
  /// Provisioning multiplier on processing (public Hubs on an overloaded
  /// node vs the paper's private t3.medium: ~70% lower latency, §7).
  double provisioningFactor{1.0};
  /// Per-event user cap (§6.2: Worlds recommends 8-12 and actually caps at
  /// 16; 0 = no limit, as on the authors' private Hubs server).
  int maxEventUsers{0};
};

/// Welcome-page / background content behaviour (§5.2).
struct ContentSpec {
  ByteSize appStoreSize = ByteSize::zero();      // installed app size
  ByteSize initDownload = ByteSize::zero();      // once, at first launch
  ByteSize perLaunchDownload = ByteSize::zero(); // every launch (Worlds ~5 MB)
  ByteSize perJoinDownload = ByteSize::zero();   // every join (Hubs ~20 MB bug)
  bool cachesBackground{true};
};

/// On-device cost model (endpoints of Figs. 7-8; §7 processing latencies).
struct DevicePerfSpec {
  int renderWidth{1440};
  int renderHeight{1584};
  // Frame costs: ms per frame = base + perAvatar * N + perAvatarSq * N²
  // (the quadratic term models superlinear engine overhead — e.g. browser
  // GC pressure — and is zero for most platforms).
  double cpuFrameBaseMs{6.0};
  double cpuFrameMsPerAvatar{0.35};
  double cpuFrameMsPerAvatarSq{0.0};
  double gpuFrameBaseMs{7.0};
  double gpuFrameMsPerAvatar{0.35};
  // Per-second non-render CPU (network/state work), ms/s.
  double cpuBackgroundBaseMsPerSec{60.0};
  double cpuBackgroundMsPerAvatarPerSec{8.0};
  // Per-vsync compositor GPU cost (runs even on stale frames), ms.
  double gpuCompositorMsPerVsync{1.0};
  // Per-frame cost variance (browser GC makes Hubs' frames far spikier).
  double frameCostJitter{0.08};
  // Memory: base footprint plus ~10 MB per remote avatar (§6.2).
  double memoryBaseGB{1.1};
  double memoryPerAvatarGB{0.010};
  // §7 processing latencies (ms): input-to-packet and packet-to-renderable.
  double senderProcMeanMs{26.0};
  double senderProcStdMs{6.0};
  double receiverProcMeanMs{30.0};
  double receiverProcStdMs{7.0};
};

/// Game mode (§8): shooting games raise the data-channel load.
struct GameSpec {
  bool available{false};
  std::string exampleTitle;
  /// Extra game-state traffic on top of avatar data.
  DataRate gameUplink = DataRate::zero();
  DataRate gameDownlink = DataRate::zero();
  /// Worlds: UDP sends gate on outstanding control-channel TCP (§8.1).
  bool tcpPriorityCoupling{false};
};

/// Table 1 feature row.
struct FeatureSpec {
  std::string company;
  int releaseYear{2016};
  std::string locomotion;
  bool facialExpression{false};
  bool personalSpace{false};
  bool game{false};
  bool shareScreen{false};
  bool shopping{false};
  bool nft{false};
  bool webBased{false};
};

/// A full platform model.
struct PlatformSpec {
  std::string name;
  FeatureSpec features;
  ControlSpec control;
  DataSpec data;
  AvatarSpec avatar;
  ContentSpec content;
  DevicePerfSpec perf;
  GameSpec game;
};

/// The catalog: the five measured platforms plus the private Hubs server.
namespace platforms {
[[nodiscard]] PlatformSpec altspaceVR();
[[nodiscard]] PlatformSpec hubs();
[[nodiscard]] PlatformSpec hubsPrivate();  // §7: self-hosted, well-provisioned
[[nodiscard]] PlatformSpec recRoom();
[[nodiscard]] PlatformSpec vrchat();
[[nodiscard]] PlatformSpec worlds();
/// The five public platforms, in the paper's usual listing order.
[[nodiscard]] std::vector<PlatformSpec> allFive();
}  // namespace platforms

}  // namespace msim
