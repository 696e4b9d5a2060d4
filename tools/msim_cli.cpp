// msim — command-line front end to the measurement library.
//
//   msim platforms                          list the modelled platforms
//   msim throughput <platform> [seeds]      Table-3-style two-user cell
//   msim sweep <platform> <users> [seeds]   Fig-7/8-style point
//   msim latency <platform> [users]         Table-4-style breakdown
//   msim viewport                           §6.1 viewport-width detection
//   msim disrupt <downlink|uplink|tcponly>  §8 Worlds disruption run
//   msim survey <platform> [region]         §4 infrastructure probe
//   msim trace <platform> <seconds>         AP capture, tcpdump-style
//   msim script <platform> <file>           play an AutoDriver script (@0
//                                           by default; @1 is a peer that
//                                           launches and joins at 0 s)
//
// A global `--threads N` option (anywhere on the command line) caps the
// seed-sweep worker pool; the default comes from MSIM_THREADS or the
// hardware concurrency. Results are identical for any thread count.
//
// Everything prints to stdout; exit code 0 on success, 2 on usage errors
// (including a count, `trace` duration or `--threads` value that is not a
// whole positive number).

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <iostream>
#include <algorithm>

#include <cstdlib>
#include <vector>

#include "core/autodriver.hpp"
#include "core/experiments.hpp"
#include "core/seedsweep.hpp"
#include "util/table.hpp"
#include "geo/tools.hpp"

using namespace msim;

namespace {

PlatformSpec platformByName(const std::string& raw, bool& ok) {
  std::string name = raw;
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  name.erase(std::remove(name.begin(), name.end(), ' '), name.end());
  ok = true;
  if (name == "altspacevr" || name == "altspace") return platforms::altspaceVR();
  if (name == "hubs") return platforms::hubs();
  if (name == "hubsprivate" || name == "hubs*") return platforms::hubsPrivate();
  if (name == "recroom") return platforms::recRoom();
  if (name == "vrchat") return platforms::vrchat();
  if (name == "worlds" || name == "horizonworlds") return platforms::worlds();
  ok = false;
  return platforms::vrchat();
}

int usage() {
  std::fprintf(stderr,
               "usage: msim [--threads N] <command> [args]\n"
               "  platforms | throughput <platform> [seeds] |\n"
               "  sweep <platform> <users> [seeds] | latency <platform> [users] |\n"
               "  viewport | disrupt <downlink|uplink|tcponly> |\n"
               "  survey <platform> [region] | trace <platform> <seconds> |\n"
               "  script <platform> <file>\n");
  return 2;
}

// Reads `text` as a whole positive number ("3"; not "abc", "-3", "2.5" or
// "0"). On anything else prints a message naming `what` and returns 0.
int positiveCount(const char* text, const char* what) {
  const char* end = text + std::strlen(text);
  int n = 0;
  const auto [ptr, ec] = std::from_chars(text, end, n);
  if (ec == std::errc{} && ptr == end && n > 0) return n;
  std::fprintf(stderr, "msim: %s must be a whole positive number, got '%s'\n",
               what, text);
  return 0;
}

int cmdPlatforms() {
  TablePrinter t{{"name", "company", "since", "data proto", "data placement",
                  "avatar Kbps (payload)"}};
  for (const PlatformSpec& p : platforms::allFive()) {
    t.addRow({p.name, p.features.company, std::to_string(p.features.releaseYear),
              p.data.protocol == DataProtocol::Udp ? "UDP" : "HTTPS-stream",
              toString(p.data.placement),
              fmt(p.avatar.meanUpdateRate().toKbps(), 1)});
  }
  t.print(std::cout);
  return 0;
}

int cmdThroughput(const PlatformSpec& spec, int seeds) {
  const TwoUserThroughputRow row = runTwoUserThroughput(spec, seeds);
  std::printf("%s: up %.1f±%.1f Kbps | down %.1f±%.1f Kbps | avatar %.1f Kbps "
              "| %dx%d\n",
              row.platform.c_str(), row.upKbps, row.upStd, row.downKbps,
              row.downStd, row.avatarKbps, row.resWidth, row.resHeight);
  return 0;
}

int cmdSweep(const PlatformSpec& spec, int users, int seeds) {
  const SweepPoint p = runUsersSweepPoint(spec, users, seeds);
  std::printf("%s @ %d users: down %.3f Mbps | up %.3f Mbps | FPS %.1f | "
              "CPU %.0f%% | GPU %.0f%% | mem %.2f GB\n",
              spec.name.c_str(), users, p.downMbps, p.upMbps, p.fps, p.cpuPct,
              p.gpuPct, p.memGB);
  return 0;
}

int cmdLatency(const PlatformSpec& spec, int users) {
  const LatencyRow r = runLatencyExperiment(spec, users, 15, 3);
  std::printf("%s @ %d users: E2E %.1f±%.1f ms (sender %.1f, server %.1f, "
              "receiver %.1f)\n",
              r.platform.c_str(), users, r.e2eMs, r.e2eStd, r.senderMs,
              r.serverMs, r.receiverMs);
  return 0;
}

int cmdViewport() {
  const ViewportDetection v = runViewportDetection(platforms::altspaceVR(), 1);
  std::printf("AltspaceVR server viewport: %.1f deg (per-step Kbps:", v.inferredWidthDeg);
  for (const double k : v.downKbpsPerStep) std::printf(" %.0f", k);
  std::printf(")\n");
  return 0;
}

int cmdDisrupt(const std::string& kind) {
  DisruptionKind k;
  if (kind == "downlink") {
    k = DisruptionKind::DownlinkBandwidth;
  } else if (kind == "uplink") {
    k = DisruptionKind::UplinkBandwidth;
  } else if (kind == "tcponly") {
    k = DisruptionKind::TcpUplinkOnly;
  } else {
    return usage();
  }
  const DisruptionTimeline d = runWorldsDisruption(k, 1);
  std::printf("t(s), udpUpKbps, udpDownKbps, tcpUpKbps, cpu, fps, stale\n");
  for (std::size_t t = 5; t < d.udpUpKbps.size(); t += 5) {
    std::printf("%zu, %.0f, %.0f, %.0f, %.0f, %.0f, %.0f\n", t, d.udpUpKbps[t],
                d.udpDownKbps[t], d.tcpUpKbps[t],
                t < d.cpuPct.size() ? d.cpuPct[t] : 0,
                t < d.fps.size() ? d.fps[t] : 0,
                t < d.staleFps.size() ? d.staleFps[t] : 0);
  }
  if (d.screenFrozeAtEnd) std::printf("# screen froze at %.0f s\n", d.frozeAtSec);
  return 0;
}

int cmdSurvey(const PlatformSpec& spec, const std::string& regionName) {
  Region vantageRegion = regions::usEast();
  for (const Region& r : regions::all()) {
    if (r.name == regionName) vantageRegion = r;
  }
  Testbed bed{1};
  bed.deploy(spec);
  Node& vantage = bed.fabric().attachHost("vantage", vantageRegion,
                                          Ipv4Address(10, 99, 0, 1));
  const WhoisDb whois = addrplan::defaultWhois();
  for (const auto& [label, ep] :
       {std::pair{std::string{"control"},
                  bed.deployment().controlEndpointFor(vantageRegion)},
        std::pair{std::string{"data"},
                  bed.deployment().dataEndpointFor(vantageRegion, 0)}}) {
    PingTool pinger{vantage};
    pinger.ping(ep.addr, 5, [&, label, ep](const PingResult& r) {
      std::printf("%s %s owner=%s geo=%s rtt=%.2f ms (%d/%d)\n", label.c_str(),
                  ep.toString().c_str(), whois.ownerOf(ep.addr).c_str(),
                  whois.geolocate(ep.addr).c_str(),
                  r.reachable() ? r.rttMs.mean() : -1.0, r.received, r.sent);
    });
    bed.sim().runFor(Duration::seconds(5));
  }
  return 0;
}

int cmdTrace(const PlatformSpec& spec, int seconds) {
  Testbed bed{1};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser();
  bed.addUser();
  u1.capture->keepRecords();
  AutoDriver driver{bed};
  driver.play(launchThenJoinScript(2, Duration::zero(), Duration::zero()));
  bed.sim().runFor(Duration::seconds(seconds));
  std::fputs(u1.capture->exportTraceText().c_str(), stdout);
  return 0;
}

int cmdScript(const PlatformSpec& spec, const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "msim: cannot read script '%s'\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  DriverScript script;
  try {
    script = DriverScript::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "msim: %s\n", e.what());
    return 2;
  }
  Testbed bed{1};
  bed.deploy(spec);
  TestUser& u1 = bed.addUser();
  bed.addUser();  // a peer so the event isn't empty
  // The peer launches and joins at 0 s, ahead of the script's own steps.
  DriverScript session;
  session.launch(Duration::zero(), 1).join(Duration::zero(), 1);
  for (const DriverStep& step : script.steps()) session.add(step);
  AutoDriver driver{bed};
  TimePoint last;
  try {
    last = driver.play(session);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "msim: %s\n", e.what());
    return 2;
  }
  bed.sim().run(last + Duration::seconds(10));
  const MetricsSample m = u1.headset->metrics().averageOver(
      TimePoint::epoch(), bed.sim().now());
  std::printf("script done at t=%.1f s | mean FPS %.1f | CPU %.0f%% | "
              "data down %.1f Kbps | actions performed: %zu\n",
              bed.sim().now().toSeconds(), m.fps, m.cpuUtilPct,
              u1.capture
                  ->meanRate(Channel::DataDown, 0,
                             static_cast<std::size_t>(bed.sim().now().toSeconds()))
                  .toKbps(),
              driver.actionsPerformed(0).size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global --threads option before command dispatch; the seed
  // sweep picks the count up through MSIM_THREADS.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "msim: --threads needs a value\n");
        return 2;
      }
      const char* value = argv[++i];
      if (positiveCount(value, "--threads") == 0) return 2;
      setenv("MSIM_THREADS", value, /*overwrite=*/1);
      continue;
    }
    args.emplace_back(argv[i]);
  }
  std::vector<char*> argvStripped{argv[0]};
  for (std::string& a : args) argvStripped.push_back(a.data());
  argc = static_cast<int>(argvStripped.size());
  argv = argvStripped.data();

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "platforms") return cmdPlatforms();
  if (cmd == "viewport") return cmdViewport();
  if (cmd == "disrupt" && argc >= 3) return cmdDisrupt(argv[2]);

  if (argc < 3) return usage();
  bool ok = false;
  const PlatformSpec spec = platformByName(argv[2], ok);
  if (!ok) {
    std::fprintf(stderr, "msim: unknown platform '%s'\n", argv[2]);
    return 2;
  }
  // The optional count at argv[i], or `fallback` when absent; 0 if malformed.
  const auto count = [&](int i, const char* what, int fallback) {
    return argc > i ? positiveCount(argv[i], what) : fallback;
  };
  if (cmd == "throughput") {
    const int seeds = count(3, "seeds", 5);
    return seeds == 0 ? 2 : cmdThroughput(spec, seeds);
  }
  if (cmd == "sweep" && argc >= 4) {
    const int users = count(3, "users", 0);
    if (users == 0) return 2;
    const int seeds = count(4, "seeds", 3);
    return seeds == 0 ? 2 : cmdSweep(spec, users, seeds);
  }
  if (cmd == "latency") {
    const int users = count(3, "users", 2);
    return users == 0 ? 2 : cmdLatency(spec, users);
  }
  if (cmd == "survey") {
    return cmdSurvey(spec, argc > 3 ? argv[3] : "us-east");
  }
  if (cmd == "trace" && argc >= 4) {
    const int seconds = count(3, "seconds", 0);
    return seconds == 0 ? 2 : cmdTrace(spec, seconds);
  }
  if (cmd == "script" && argc >= 4) return cmdScript(spec, argv[3]);
  return usage();
}
