// Table 2: network protocols and infrastructure — server owner/location,
// anycast detection, and control/data channel RTTs, measured with the same
// tools the paper used: ICMP ping (TCP ping when ICMP is blocked),
// traceroute from three vantage points, WHOIS/geolocation lookups, and the
// WebRTC statistics API for Hubs' RTP server. Also §4.2's extended
// measurements from the U.S. west coast and Europe.

#include "common.hpp"
#include "geo/tools.hpp"

using namespace msim;

namespace {

struct PaperRow {
  const char* name;
  const char* ctlProto;
  const char* ctlLocOwner;
  bool ctlAnycast;
  double ctlRtt;
  const char* dataProto;
  const char* dataLocOwner;
  bool dataAnycast;
  double dataRtt;
};
constexpr PaperRow kPaper[] = {
    {"AltspaceVR", "HTTPS", "- / Microsoft", true, 3.08, "UDP",
     "Western U.S. / Microsoft", false, 72.1},
    {"Hubs", "HTTPS", "Western U.S. / AWS", false, 74.1, "RTP/HTTPS",
     "Western U.S. / AWS", false, 73.5},
    {"Rec Room", "HTTPS", "- / ANS", true, 2.21, "UDP", "- / Cloudflare", true,
     2.97},
    {"VRChat", "HTTPS", "Eastern U.S. / AWS", false, 2.32, "UDP",
     "- / Cloudflare", true, 3.24},
    {"Worlds", "HTTPS", "Eastern U.S. / Meta", false, 2.23, "UDP",
     "Eastern U.S. / Meta", false, 2.71},
};

const PaperRow* paperFor(const std::string& name) {
  for (const auto& r : kPaper) {
    if (name == r.name) return &r;
  }
  return nullptr;
}

struct Probe {
  double rttMs{-1};
  bool anycast{false};
  std::string owner;
  std::string geo;
};

Probe probeEndpoint(Testbed& bed, const WhoisDb& whois, Ipv4Address addr,
                    std::uint16_t tcpPort, Node* eastVantage,
                    const std::vector<Node*>& allVantages) {
  Probe result;
  result.owner = whois.ownerOf(addr);
  result.geo = whois.geolocate(addr);

  auto pinger = std::make_shared<PingTool>(*eastVantage);
  auto tcpPinger = std::make_shared<TcpPingTool>(*eastVantage);
  pinger->ping(addr, 10, [&, tcpPinger, tcpPort, addr](const PingResult& r) {
    if (r.reachable()) {
      result.rttMs = r.rttMs.mean();
      return;
    }
    tcpPinger->ping(Endpoint{addr, tcpPort}, 5, [&](const PingResult& tr) {
      if (tr.reachable()) result.rttMs = tr.rttMs.mean();
    });
  });
  AnycastInference::run(bed.sim(), allVantages, addr,
                        [&](const AnycastReport& report) {
                          result.anycast = report.likelyAnycast;
                        },
                        tcpPort);
  bed.sim().runFor(Duration::seconds(60));
  return result;
}

}  // namespace

int main() {
  bench::header("Table 2 — network protocols & infrastructure",
                "Table 2 (§4.1, §4.2): ping/TCP-ping + traceroute from three "
                "vantages, WHOIS/geolocation, anycast inference");

  const WhoisDb whois = addrplan::defaultWhois();
  TablePrinter table{{"Platform", "Chan", "Proto", "Loc/Owner (paper)",
                      "Anycast (paper)", "RTT ms (paper)"}};

  for (const PlatformSpec& spec : platforms::allFive()) {
    Testbed bed{7};
    bed.deploy(spec);
    // Vantages: the east-coast AP (primary testbed) plus the northern U.S.
    // and Middle East probes the paper used for traceroute (§4.2).
    TestUser& u1 = bed.addUser();
    Node* east = u1.ap;
    Node& north = bed.fabric().attachHost("vantage-north", regions::usNorth(),
                                          Ipv4Address(10, 200, 0, 1));
    Node& mideast = bed.fabric().attachHost("vantage-me", regions::middleEast(),
                                            Ipv4Address(10, 201, 0, 1));
    const std::vector<Node*> vantages{east, &north, &mideast};

    const Endpoint ctl = bed.deployment().controlEndpointFor(regions::usEast());
    const Endpoint data = bed.deployment().dataEndpointFor(regions::usEast(), 0);
    const PaperRow* paper = paperFor(spec.name);

    const Probe ctlProbe = probeEndpoint(bed, whois, ctl.addr, 443, east, vantages);
    const Probe dataProbe =
        probeEndpoint(bed, whois, data.addr, PlatformDeployment::kDataPort, east,
                      vantages);

    const std::string dataProto =
        spec.data.protocol == DataProtocol::Udp ? "UDP" : "RTP/HTTPS";
    auto locOwner = [&](const Probe& p) {
      return (p.anycast ? std::string("-") : p.geo) + " / " + p.owner;
    };
    table.addRow({spec.name, "control", "HTTPS",
                  locOwner(ctlProbe) + "  (" + paper->ctlLocOwner + ")",
                  std::string(ctlProbe.anycast ? "yes" : "no") + "  (" +
                      (paper->ctlAnycast ? "yes" : "no") + ")",
                  fmt(ctlProbe.rttMs, 2) + "  (" + fmt(paper->ctlRtt, 2) + ")"});
    table.addRow({"", "data", dataProto,
                  locOwner(dataProbe) + "  (" + paper->dataLocOwner + ")",
                  std::string(dataProbe.anycast ? "yes" : "no") + "  (" +
                      (paper->dataAnycast ? "yes" : "no") + ")",
                  fmt(dataProbe.rttMs, 2) + "  (" + fmt(paper->dataRtt, 2) + ")"});
  }
  table.print(std::cout);

  // Hubs' RTP server RTT via RTCP, the paper's WebRTC-stats method (§4.2).
  {
    Testbed bed{9};
    bed.deploy(platforms::hubs());
    TestUser& u1 = bed.addUser();
    AutoDriver driver{bed};
    driver.play(launchThenJoinScript(1, Duration::zero(), Duration::zero()));
    bed.sim().runFor(Duration::seconds(20));
    if (const auto rtt = u1.client->webrtcRtt()) {
      std::printf("\nHubs RTP/RTCP RTT via WebRTC stats: %.1f ms (paper: 73.5)\n",
                  rtt->toMillis());
    }
  }

  // §4.2 extended: vantage in the western U.S. and in Europe.
  std::printf("\n--- §4.2 extended vantages (west-coast & Europe RTT to data tier) ---\n");
  for (const PlatformSpec& spec : platforms::allFive()) {
    if (spec.name == "Worlds") {
      std::printf("%-12s europe: n/a (Worlds is US/Canada-only, §4.2)\n",
                  spec.name.c_str());
      continue;
    }
    for (const Region& vantageRegion : {regions::usWest(), regions::europe()}) {
      Testbed bed{11};
      bed.deploy(spec);
      Node& vantage = bed.fabric().attachHost("vantage", vantageRegion,
                                              Ipv4Address(10, 210, 0, 1));
      const Endpoint data = bed.deployment().dataEndpointFor(vantageRegion, 0);
      PingTool pinger{vantage};
      double rtt = -1;
      pinger.ping(data.addr, 5, [&](const PingResult& r) {
        if (r.reachable()) rtt = r.rttMs.mean();
      });
      bed.sim().runFor(Duration::seconds(10));
      std::printf("%-12s %-7s -> data RTT %7.1f ms\n", spec.name.c_str(),
                  vantageRegion.name.c_str(), rtt);
    }
  }
  std::printf(
      "paper checkpoints: AltspaceVR & Hubs data servers stay in the western\n"
      "U.S. (~150/~140 ms from Europe); Rec Room/VRChat anycast stays <5 ms\n"
      "from every vantage.\n");
  return 0;
}
