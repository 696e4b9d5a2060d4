#include "geo/tools.hpp"

#include <algorithm>
#include <atomic>

#include "transport/tcp.hpp"

namespace msim {

// ------------------------------------------------------------------ PingTool

namespace {
std::uint16_t nextPingIdent() {
  // Idents are compared for equality only; an atomic keeps concurrent
  // seed-sweep sims from racing (cross-sim uniqueness is not required).
  static std::atomic<std::uint16_t> counter{0};
  return static_cast<std::uint16_t>(counter.fetch_add(1) + 1);
}
}  // namespace

PingTool::~PingTool() {
  node_.removeIcmpListener(icmpListener_);
  // Pending probe and finish events hold their run; they return if it ended.
  for (const auto& run : runs_) run->finished = true;
}

PingTool::PingTool(Node& node) : node_{node}, ident_{nextPingIdent()} {
  icmpListener_ = node_.addIcmpListener([this](const Packet& p) {
    const IcmpHeader* h = p.icmp();
    if (h == nullptr || h->type != IcmpType::EchoReply || h->ident != ident_) return;
    for (const auto& run : runs_) {
      if (run->finished) continue;
      const auto it = run->outstanding.find(h->seq);
      if (it == run->outstanding.end()) continue;
      run->result.received += 1;
      run->result.rttMs.add((node_.sim().now() - it->second).toMillis());
      run->outstanding.erase(it);
      if (run->result.received == run->count) finish(run);
      return;
    }
  });
}

void PingTool::ping(Ipv4Address target, int count, DoneHandler done,
                    Duration interval, Duration timeout) {
  auto run = std::make_shared<Run>();
  run->target = target;
  run->count = count;
  run->done = std::move(done);
  runs_.push_back(run);

  for (int i = 0; i < count; ++i) {
    const std::uint16_t seq = nextSeq_++;
    node_.sim().scheduleAfter(interval * static_cast<double>(i), [this, run, seq] {
      if (run->finished) return;
      Packet probe;
      probe.dst = run->target;
      probe.proto = IpProto::Icmp;
      probe.overheadBytes = wire::kEthIpIcmp;
      probe.payloadBytes = ByteSize::bytes(56);
      probe.l4 = IcmpHeader{IcmpType::EchoRequest, ident_, seq, {}, 0};
      run->outstanding[seq] = node_.sim().now();
      run->result.sent += 1;
      node_.sendFromLocal(std::move(probe));
    });
  }
  node_.sim().scheduleAfter(interval * static_cast<double>(count) + timeout,
                            [this, run] { finish(run); });
}

void PingTool::finish(std::shared_ptr<Run> run) {
  if (run->finished) return;
  run->finished = true;
  // Detach first: the handler may destroy this tool.
  std::erase(runs_, run);
  if (run->done) run->done(run->result);
}

// --------------------------------------------------------------- TcpPingTool

void TcpPingTool::ping(Endpoint target, int count, DoneHandler done,
                       Duration interval) {
  auto acc = std::make_shared<PingResult>();
  probeOnce(target, count, interval, acc, std::move(done));
}

void TcpPingTool::probeOnce(Endpoint target, int remaining, Duration interval,
                            std::shared_ptr<PingResult> acc, DoneHandler done) {
  if (remaining <= 0) {
    if (done) done(*acc);
    return;
  }
  auto sock = TcpSocket::create(node_);
  const TimePoint sentAt = node_.sim().now();
  acc->sent += 1;
  // Either outcome (SYN-ACK accept or RST refusal) measures one RTT.
  sock->connect(target, [this, sock, target, remaining, interval, acc,
                         done = std::move(done), sentAt](bool ok) mutable {
    // A response arrived (ok) or retries exhausted (!ok, no response).
    if (ok || node_.sim().now() - sentAt < Duration::seconds(2)) {
      acc->received += 1;
      acc->rttMs.add((node_.sim().now() - sentAt).toMillis());
    }
    if (ok) sock->abort();
    node_.sim().scheduleAfter(interval, [this, target, remaining, interval, acc,
                                         done = std::move(done)]() mutable {
      probeOnce(target, remaining - 1, interval, acc, std::move(done));
    });
  });
}

// ------------------------------------------------------------ TracerouteTool

TracerouteTool::~TracerouteTool() { node_.removeIcmpListener(icmpListener_); }

TracerouteTool::TracerouteTool(Node& node) : node_{node} {
  icmpListener_ = node_.addIcmpListener([this](const Packet& p) {
    const IcmpHeader* h = p.icmp();
    if (h == nullptr) return;
    if (h->type != IcmpType::TimeExceeded && h->type != IcmpType::DestUnreachable) {
      return;
    }
    for (const auto& t : traces_) {
      if (!t->timeout.armed()) continue;
      if (h->originalDst != t->target || h->originalDstPort != t->probePort) continue;
      const bool reached = h->type == IcmpType::DestUnreachable;
      completeHop(*t, p.src, reached);
      return;
    }
  });
}

void TracerouteTool::trace(Ipv4Address target, DoneHandler done, int maxTtl,
                           Duration probeTimeout) {
  auto t = std::make_unique<Trace>(*this);
  t->target = target;
  t->maxTtl = maxTtl;
  t->probeTimeout = probeTimeout;
  t->done = std::move(done);
  traces_.push_back(std::move(t));
  sendNextProbe(*traces_.back());
}

void TracerouteTool::sendNextProbe(Trace& t) {
  t.currentTtl += 1;
  if (t.currentTtl > t.maxTtl) {
    finishTrace(t);
    return;
  }
  t.probePort = nextPort_++;
  if (nextPort_ > 33534) nextPort_ = 33434;
  t.probeSentAt = node_.sim().now();

  Packet probe;
  probe.dst = t.target;
  probe.dstPort = t.probePort;
  probe.srcPort = 33000;
  probe.proto = IpProto::Udp;
  probe.ttl = static_cast<std::uint8_t>(t.currentTtl);
  probe.overheadBytes = wire::kEthIpUdp;
  probe.payloadBytes = ByteSize::bytes(32);
  node_.sendFromLocal(std::move(probe));
  t.timeout.armAfter(t.probeTimeout);
}

void TracerouteTool::completeHop(Trace& t, Ipv4Address hopAddr, bool reached) {
  t.timeout.disarm();
  TracerouteHop hop;
  hop.ttl = t.currentTtl;
  hop.addr = hopAddr;
  hop.rttMs = (node_.sim().now() - t.probeSentAt).toMillis();
  hop.reachedTarget = reached;
  t.hops.push_back(hop);

  if (reached) {
    finishTrace(t);
    return;
  }
  sendNextProbe(t);
}

void TracerouteTool::finishTrace(Trace& t) {
  // Detach first: the handler may destroy this tool.
  DoneHandler done = std::move(t.done);
  const std::vector<TracerouteHop> hops = std::move(t.hops);
  std::erase_if(traces_, [&t](const auto& p) { return p.get() == &t; });
  if (done) done(hops);
}

// --------------------------------------------------------- AnycastInference

void AnycastInference::run(Simulator& sim, const std::vector<Node*>& vantages,
                           Ipv4Address target, DoneHandler done,
                           std::uint16_t tcpFallbackPort) {
  struct State {
    AnycastReport report;
    std::size_t pending{0};
    DoneHandler done;
    std::vector<std::shared_ptr<PingTool>> pingers;
    std::vector<std::shared_ptr<TcpPingTool>> tcpPingers;
    std::vector<std::shared_ptr<TracerouteTool>> tracers;
  };
  auto state = std::make_shared<State>();
  state->done = std::move(done);
  state->report.vantageNames.resize(vantages.size());
  state->report.rttMs.assign(vantages.size(), -1.0);
  state->report.penultimateHops.resize(vantages.size());
  state->pending = vantages.size() * 2;  // ping + traceroute per vantage

  auto maybeFinish = [state, &sim]() {
    if (--state->pending > 0) return;
    // Paper criteria: RTTs comparable (and low) from geographically distant
    // vantages, and/or differing hops right before the target.
    auto& r = state->report;
    double minRtt = 1e18;
    double maxRtt = -1.0;
    for (const double rtt : r.rttMs) {
      if (rtt < 0) continue;
      minRtt = std::min(minRtt, rtt);
      maxRtt = std::max(maxRtt, rtt);
    }
    const bool comparableLowRtts = maxRtt >= 0 && maxRtt < 25.0;
    bool hopsDiffer = false;
    for (std::size_t i = 1; i < r.penultimateHops.size(); ++i) {
      if (!r.penultimateHops[i].isUnspecified() &&
          !r.penultimateHops[0].isUnspecified() &&
          r.penultimateHops[i] != r.penultimateHops[0]) {
        hopsDiffer = true;
      }
    }
    r.likelyAnycast = comparableLowRtts || (hopsDiffer && maxRtt < 60.0);
    if (comparableLowRtts && hopsDiffer) {
      r.rationale = "low comparable RTTs from distant vantages; penultimate hops differ";
    } else if (comparableLowRtts) {
      r.rationale = "low comparable RTTs from distant vantages";
    } else if (r.likelyAnycast) {
      r.rationale = "penultimate hops differ across vantages";
    } else {
      r.rationale = "RTT grows with vantage distance; single server location";
    }
    if (state->done) state->done(r);
  };

  for (std::size_t i = 0; i < vantages.size(); ++i) {
    Node* vantage = vantages[i];
    state->report.vantageNames[i] = vantage->name();

    auto pinger = std::make_shared<PingTool>(*vantage);
    state->pingers.push_back(pinger);
    pinger->ping(target, 4, [state, i, vantage, target, tcpFallbackPort,
                             maybeFinish, &sim](const PingResult& res) {
      if (res.reachable()) {
        state->report.rttMs[i] = res.rttMs.mean();
        maybeFinish();
        return;
      }
      if (tcpFallbackPort == 0) {
        maybeFinish();
        return;
      }
      // ICMP blocked: fall back to TCP ping, as the paper did.
      auto tcp = std::make_shared<TcpPingTool>(*vantage);
      state->tcpPingers.push_back(tcp);
      tcp->ping(Endpoint{target, tcpFallbackPort}, 3,
                [state, i, maybeFinish](const PingResult& tcpRes) {
                  if (tcpRes.reachable()) {
                    state->report.rttMs[i] = tcpRes.rttMs.mean();
                  }
                  maybeFinish();
                });
    });

    auto tracer = std::make_shared<TracerouteTool>(*vantage);
    state->tracers.push_back(tracer);
    tracer->trace(target, [state, i, maybeFinish](
                              const std::vector<TracerouteHop>& hops) {
      // Penultimate hop = the last TimeExceeded reporter before the target.
      for (std::size_t h = hops.size(); h-- > 0;) {
        if (hops[h].reachedTarget) {
          if (h > 0) state->report.penultimateHops[i] = hops[h - 1].addr;
          break;
        }
      }
      maybeFinish();
    });
  }
  (void)sim;
}

}  // namespace msim
