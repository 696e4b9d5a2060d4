// Micro-benchmarks of the simulator substrate itself (google-benchmark):
// event queue, cancellation churn, relay fan-out, link transport, TCP bulk
// transfer, and a full two-user platform scenario — the costs that bound
// every experiment above.
//
// This TU replaces global operator new/delete with counting versions so the
// relay bench can report allocations per forwarded message — the hot-path
// budget is zero at steady state.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "avatar/codec.hpp"
#include "core/experiments.hpp"
#include "platform/relay.hpp"
#include "session/hub.hpp"
#include "transport/tcp.hpp"

namespace {
std::atomic<std::uint64_t> g_heapAllocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// The nothrow forms (std::stable_sort's temporary buffer) must come from the
// same malloc that the deletes below free; a sanitizer runtime otherwise
// supplies its own and reports a new/free mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace msim;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim{1};
    for (int i = 0; i < events; ++i) {
      sim.scheduleAfter(Duration::micros(static_cast<double>(i % 1000)), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_EventQueueScheduleRunDistinct(benchmark::State& state) {
  // The all-distinct-timestamp regime: link transmissions, per-connection
  // timeouts, and jittered avatar ticks never share an instant, so every
  // event pays the queue's per-timestamp cost. At 100k events the stride
  // spreads them over 170ms, so they start in many different buckets. The
  // simulator persists across iterations so the steady-state heap budget is
  // observable: allocs_per_item must be zero once the slot pool, bucket
  // blocks, and front run are warm.
  const int events = static_cast<int>(state.range(0));
  Simulator sim{1};
  auto scheduleAll = [&] {
    for (int i = 0; i < events; ++i) {
      // 1.7us stride plus an index-derived sub-microsecond jitter: strictly
      // increasing, so no two events ever share a timestamp.
      const std::int64_t ns =
          1700 * static_cast<std::int64_t>(i) + (i * 37) % 1000 + 1;
      sim.scheduleAfter(Duration::nanos(ns), [] {});
    }
  };

  // Warm up twice: the first pass sizes the pools, the second catches
  // capacities that depend on where the previous run left the clock.
  for (int pass = 0; pass < 2; ++pass) {
    scheduleAll();
    sim.run();
  }

  std::int64_t items = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    scheduleAll();
    benchmark::DoNotOptimize(sim.run());
    items += events;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  state.SetItemsProcessed(items);
  state.counters["allocs_per_item"] = benchmark::Counter(
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0);
}
BENCHMARK(BM_EventQueueScheduleRunDistinct)->Arg(1000)->Arg(100000);

void BM_EventQueueScheduleRunAligned(benchmark::State& state) {
  // The aligned-tie regime: 100 events share each timestamp, spaced 1024ns
  // apart. A per-timestamp bucket queue amortizes a 100-way tie into one
  // heap op; the radix heap pays an append and its re-files per event. This
  // bench pins the queue's absolute rate on that shape in the committed
  // baseline. Same persistent-simulator + double-warmup shape as the
  // Distinct variant so allocs_per_item is the steady-state heap budget
  // (must be zero).
  const int events = static_cast<int>(state.range(0));
  Simulator sim{1};
  auto scheduleAll = [&] {
    for (int i = 0; i < events; ++i) {
      const std::int64_t ns = (static_cast<std::int64_t>(i) / 100 + 1) << 10;
      sim.scheduleAfter(Duration::nanos(ns), [] {});
    }
  };

  for (int pass = 0; pass < 2; ++pass) {
    scheduleAll();
    sim.run();
  }

  std::int64_t items = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    scheduleAll();
    benchmark::DoNotOptimize(sim.run());
    items += events;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  state.SetItemsProcessed(items);
  state.counters["allocs_per_item"] = benchmark::Counter(
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0);
}
BENCHMARK(BM_EventQueueScheduleRunAligned)->Arg(1000)->Arg(100000);

void BM_EventQueueCascade(benchmark::State& state) {
  // Refill stress: every event is scheduled far enough out that refills
  // re-file it several times, bucket by bucket, before it fires. Measures
  // the amortized cost of re-filing across a 40us..200ms spread.
  const int events = static_cast<int>(state.range(0));
  Simulator sim{1};
  auto scheduleAll = [&] {
    for (int i = 0; i < events; ++i) {
      // 40us..200ms out: spread over a dozen buckets.
      const std::int64_t ns = 40'000 + 2'000 * static_cast<std::int64_t>(i);
      sim.scheduleAfter(Duration::nanos(ns), [] {});
    }
  };
  for (int pass = 0; pass < 2; ++pass) {
    scheduleAll();
    sim.run();
  }
  std::int64_t items = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    scheduleAll();
    benchmark::DoNotOptimize(sim.run());
    items += events;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  state.SetItemsProcessed(items);
  state.counters["allocs_per_item"] = benchmark::Counter(
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0);
}
BENCHMARK(BM_EventQueueCascade)->Arg(100000);

void BM_EventCancelChurn(benchmark::State& state) {
  // Schedule/cancel storms: timers that almost never fire (retransmission
  // timers, eviction guards) dominate some workloads. Cancel is O(1) via
  // the generation-counted slot pool; tombstones drain in run().
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim{1};
    std::vector<EventId> batch;
    batch.reserve(64);
    for (int i = 0; i < events; ++i) {
      batch.push_back(
          sim.scheduleAfter(Duration::micros(static_cast<double>(i % 500)), [] {}));
      if (batch.size() == 64) {
        for (const EventId& id : batch) sim.cancel(id);
        batch.clear();
      }
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventCancelChurn)->Arg(100000);

void BM_TimerRearm(benchmark::State& state) {
  // An RTO under a stream of ACKs: every ACK, 0.5 ms apart, moves one
  // Timer's deadline 200 ms out, and the timer fires once the stream stops.
  // A later deadline schedules nothing, so each ACK costs its own event and
  // one armAt; the timer's one pending event comes due early about every
  // 400 ACKs and re-files itself. The simulator persists across iterations,
  // so allocs_per_item is the steady-state heap budget per re-arm (must be
  // zero).
  struct AckStream {
    Simulator& sim;
    Timer& rto;
    std::int64_t left;
    void next() {
      if (left-- == 0) return;
      rto.armAfter(Duration::millis(200));
      sim.scheduleAfter(Duration::micros(500), [this] { next(); });
    }
  };
  const std::int64_t acks = state.range(0);
  Simulator sim{1};
  std::int64_t fires = 0;
  Timer rto{sim, [&fires] { ++fires; }};
  AckStream stream{sim, rto, 0};
  auto flight = [&] {
    stream.left = acks;
    stream.next();
    sim.run();
  };
  for (int pass = 0; pass < 2; ++pass) flight();

  std::int64_t items = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    flight();
    items += acks;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  benchmark::DoNotOptimize(fires);
  state.SetItemsProcessed(items);
  state.counters["allocs_per_item"] = benchmark::Counter(
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0);
}
BENCHMARK(BM_TimerRearm)->Arg(10000);

void BM_CaptureOnPacket(benchmark::State& state) {
  // The AP capture hot path, off the network: a default CaptureAgent (no
  // per-packet records) sees alternating data and control packets, up and
  // down, spread evenly over 10 s of wire time, and bins them by channel and
  // protocol. A warm-up pass over the same span creates every bin first, so
  // allocs_per_item is the steady-state heap budget per tapped packet (must
  // be zero).
  const std::int64_t packets = state.range(0);
  Testbed bed{1};
  bed.deploy(platforms::vrchat());
  const Region region = TestUserConfig{}.region;
  TestUser& user = bed.addUser();
  CaptureAgent& capture = *user.capture;
  Packet data;
  data.src = user.headsetNode->primaryAddress();
  data.dst = bed.deployment().dataEndpointFor(region, 0).addr;
  data.proto = IpProto::Udp;
  data.payloadBytes = ByteSize::bytes(220);
  data.overheadBytes = 42;
  Packet control = data;
  control.dst = bed.deployment().controlEndpointFor(region).addr;
  control.proto = IpProto::Tcp;
  control.payloadBytes = ByteSize::bytes(600);
  control.overheadBytes = 66;
  // Uplink goes headset -> server, downlink server -> headset.
  auto reversed = [](Packet p) {
    std::swap(p.src, p.dst);
    return p;
  };
  const std::array<Packet, 4> mix{data, reversed(data), control,
                                  reversed(control)};
  const Duration span = Duration::seconds(10);
  auto pass = [&] {
    for (std::int64_t i = 0; i < packets; ++i) {
      const TimePoint at = TimePoint::epoch() + span * i / packets;
      capture.onPacket(mix[static_cast<std::size_t>(i & 3)], (i & 1) == 0, at);
    }
  };
  pass();

  std::int64_t items = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    pass();
    items += packets;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  benchmark::DoNotOptimize(capture.packetCount());
  if (capture.series(Channel::DataDown).total() <= 0.0 ||
      capture.series(Channel::ControlDown).total() <= 0.0 ||
      capture.series(Channel::Other).total() != 0.0) {
    state.SkipWithError("packets were not classified into the four channels");
  }
  state.SetItemsProcessed(items);
  state.counters["allocs_per_item"] = benchmark::Counter(
      items > 0 ? static_cast<double>(allocs) / static_cast<double>(items)
                : 0.0);
}
BENCHMARK(BM_CaptureOnPacket)->Arg(10000);

void BM_RelayBroadcast(benchmark::State& state) {
  // The §5.1 linear fan-out, isolated from the network: one pose update
  // forwarded to N-1 detached receivers. Reports steady-state heap
  // allocations per forward (budget: zero — the shared Message is the only
  // allocation per *broadcast*, amortized across all receivers).
  const int users = static_cast<int>(state.range(0));
  Simulator sim{1};
  DataSpec spec;  // defaults: no viewport filter, no LoD, no user cap
  RelayRoom room{sim, spec};
  room.reserveUsers(static_cast<std::size_t>(users));
  for (int i = 0; i < users; ++i) {
    room.joinDetached(1000 + static_cast<std::uint64_t>(i));
  }
  Message m;
  m.kind = avatarmsg::kPoseUpdate;
  m.size = ByteSize::bytes(220);

  // Warm up: size the slot pool, heap, and per-flow columns.
  room.broadcast(1000, m);
  sim.run();

  std::int64_t forwards = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    const std::uint64_t sender =
        1000 + static_cast<std::uint64_t>(forwards) % users;
    room.broadcast(sender, m);
    sim.run();
    forwards += users - 1;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  state.SetItemsProcessed(forwards);
  state.counters["allocs_per_forward"] = benchmark::Counter(
      forwards > 0 ? static_cast<double>(allocs) / static_cast<double>(forwards)
                   : 0.0);
}
BENCHMARK(BM_RelayBroadcast)->Arg(10)->Arg(100)->Arg(500);

void BM_RelayBroadcastSoA(benchmark::State& state) {
  // The SoA all-to-all hot path at room sizes far past the paper's testbed:
  // fan-out is a branch-light scan over dense slot columns, and the
  // caller-owned shared Message means the measured loop allocates nothing
  // at all (budget: exactly zero per forward).
  const int users = static_cast<int>(state.range(0));
  Simulator sim{1};
  DataSpec spec;  // no interest filters: every broadcast reaches N-1 peers
  spec.queueCoefMs = 0.0;
  RelayRoom room{sim, spec};
  room.reserveUsers(static_cast<std::size_t>(users));
  for (int i = 0; i < users; ++i) {
    room.joinDetached(1000 + static_cast<std::uint64_t>(i));
  }
  auto m = std::make_shared<const Message>(Message{
      avatarmsg::kPoseUpdate, ByteSize::bytes(220)});

  room.broadcast(1000, m);
  sim.run();

  std::int64_t forwards = 0;
  std::int64_t broadcasts = 0;
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    const std::uint64_t sender =
        1000 + static_cast<std::uint64_t>(broadcasts) % users;
    room.broadcast(sender, m);
    sim.run();
    ++broadcasts;
    forwards += users - 1;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  state.SetItemsProcessed(forwards);
  state.counters["allocs_per_forward"] = benchmark::Counter(
      forwards > 0 ? static_cast<double>(allocs) / static_cast<double>(forwards)
                   : 0.0);
  state.counters["broadcasts_per_second"] = benchmark::Counter(
      static_cast<double>(broadcasts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RelayBroadcastSoA)->Arg(1000)->Arg(10000);

void BM_InterestGridFanout(benchmark::State& state) {
  // The headline scaling path (DESIGN.md §12): avatars on a 4 m lattice
  // (~0.06 avatars/m², a busy plaza — each 25 m AOI holds ~120 avatars,
  // 4× the paper's biggest sessions), so a broadcast scans a few hundred
  // grid candidates and forwards to the distance-banded subset, independent
  // of room population. The 16 m cells keep the cell walk to ~4×4 table
  // lookups per broadcast (cell edge ≈ ⅔ of the cull radius); the candidate
  // circle tests stream through each cell's co-located arrays. Per-broadcast
  // cost must stay flat from 1k to 100k avatars, with zero heap allocations
  // in the measured loop.
  const int users = static_cast<int>(state.range(0));
  Simulator sim{1};
  DataSpec spec;
  spec.queueCoefMs = 0.0;
  spec.interestGrid = true;
  spec.interestCellM = 16.0;
  spec.interestRadiusM = 25.0;
  spec.interestFullRadiusM = 10.0;
  spec.interestHalfRadiusM = 40.0;  // clipped by the 25 m cull
  RelayRoom room{sim, spec};
  room.reserveUsers(static_cast<std::size_t>(users));
  const int side = static_cast<int>(std::ceil(std::sqrt(users)));
  for (int i = 0; i < users; ++i) {
    const std::uint64_t id = 1000 + static_cast<std::uint64_t>(i);
    room.joinDetached(id);
    room.updatePose(id, Pose{4.0 * (i % side), 4.0 * (i / side), 0});
  }
  auto m = std::make_shared<const Message>(Message{
      avatarmsg::kPoseUpdate, ByteSize::bytes(220)});

  // Warm up through two full passes of the measured sender walk: every
  // sender's pose sequence visits both LoD parities (odd sequences forward
  // only the full-rate disc, even ones add the half-rate ring), so the
  // batch pool, the event queue's blocks, and every grid neighborhood reach
  // steady state before the measured loop — which must then allocate
  // nothing at all.
  for (std::int64_t w = 0; w < 2 * users; ++w) {
    const std::uint64_t sender =
        1000 + (static_cast<std::uint64_t>(w) * 7919) % users;
    room.broadcast(sender, m);
    sim.run();
  }

  std::int64_t broadcasts = 2 * users;  // continue the walk mid-phase
  const std::int64_t broadcastsBefore = broadcasts;
  const std::uint64_t forwardedBefore = room.forwardedMessages();
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    // A deterministic large-stride walk, so consecutive senders sit in
    // different grid neighborhoods instead of reusing hot cells.
    const std::uint64_t sender =
        1000 + (static_cast<std::uint64_t>(broadcasts) * 7919) % users;
    room.broadcast(sender, m);
    sim.run();
    ++broadcasts;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  const std::uint64_t forwards = room.forwardedMessages() - forwardedBefore;
  const std::int64_t measured = broadcasts - broadcastsBefore;
  state.SetItemsProcessed(measured);
  state.counters["forwards_per_broadcast"] = benchmark::Counter(
      measured > 0
          ? static_cast<double>(forwards) / static_cast<double>(measured)
          : 0.0);
  state.counters["allocs_per_forward"] = benchmark::Counter(
      forwards > 0 ? static_cast<double>(allocs) / static_cast<double>(forwards)
                   : 0.0);
  state.counters["broadcasts_per_second"] = benchmark::Counter(
      static_cast<double>(measured), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterestGridFanout)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SessionChurnSteady(benchmark::State& state) {
  // Steady-state session tier: N connected sessions subscribed to one
  // channel, a publish fanned out per iteration. Budget: zero heap
  // allocations per delivery once the hub's queue, broker rings, and event
  // pool are warm (every hub<->client event capture fits the 64-byte SBO).
  const int sessions = static_cast<int>(state.range(0));
  Simulator sim{1};
  // Token ttl far past the bench horizon: refresh round trips re-arm
  // far-future timers (a rare, amortized cost) and would smear the
  // per-delivery budget this row exists to pin.
  session::SessionHub hub{
      sim, session::TokenAuthority{0xbead, Duration::minutes(600)}, {}};
  std::vector<std::unique_ptr<session::Session>> owned;
  for (int i = 0; i < sessions; ++i) {
    owned.push_back(std::make_unique<session::Session>(
        hub, session::SessionConfig{}, 1000 + static_cast<std::uint64_t>(i),
        regions::usEast()));
    owned.back()->subscribe(1);
    owned.back()->connect();
  }
  sim.runFor(Duration::seconds(5));  // all accepted, subscribed, pinging

  std::uint64_t payload = 0;
  std::int64_t deliveries = 0;
  // Warm until every growth site is at its high-water mark: 300 publishes
  // fill the 256-deep history ring (its storage stops growing), and the 30 s
  // of sim time they span size the event-queue pools across ping rounds.
  // Only then is the per-delivery path truly steady-state.
  for (int i = 0; i < 300; ++i) {
    hub.publish(1, ++payload, 64);
    sim.runFor(Duration::millis(100));
  }
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  for (auto _ : state) {
    hub.publish(1, ++payload, 64);
    sim.runFor(Duration::millis(100));
    deliveries += sessions;
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  state.SetItemsProcessed(deliveries);
  state.counters["allocs_per_delivery"] = benchmark::Counter(
      deliveries > 0
          ? static_cast<double>(allocs) / static_cast<double>(deliveries)
          : 0.0);
}
BENCHMARK(BM_SessionChurnSteady)->Arg(100)->Arg(1000);

void BM_SessionConnectStorm(benchmark::State& state) {
  // The launch-day ramp: N sessions connect at t=0 and drain through the
  // hub's FIFO connect queue (token round trip + connectCost service each).
  const int sessions = static_cast<int>(state.range(0));
  std::int64_t connects = 0;
  for (auto _ : state) {
    Simulator sim{1};
    session::SessionHub hub{
        sim, session::TokenAuthority{0xbead, Duration::minutes(30)}, {}};
    std::vector<std::unique_ptr<session::Session>> owned;
    for (int i = 0; i < sessions; ++i) {
      owned.push_back(std::make_unique<session::Session>(
          hub, session::SessionConfig{}, 1000 + static_cast<std::uint64_t>(i),
          regions::usEast()));
      owned.back()->connect();
    }
    sim.runFor(Duration::seconds(5));
    connects += hub.connectedCount();
  }
  state.SetItemsProcessed(connects);
  state.counters["connects_per_second"] = benchmark::Counter(
      static_cast<double>(connects), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionConnectStorm)->Arg(1000);

void BM_SessionReconnectStorm(benchmark::State& state) {
  // Shard death at steady state: every session discovers the loss through
  // its ping deadline, backs off with jitter, and re-establishes. One
  // iteration = one full storm cycle for all N sessions.
  const int sessions = static_cast<int>(state.range(0));
  Simulator sim{1};
  session::SessionHub hub{
      sim, session::TokenAuthority{0xbead, Duration::minutes(600)}, {}};
  session::SessionConfig cfg;
  cfg.pingInterval = Duration::seconds(1);
  cfg.maxPingDelay = Duration::millis(500);
  cfg.minReconnectDelay = Duration::millis(100);
  cfg.maxReconnectDelay = Duration::millis(500);
  std::vector<std::unique_ptr<session::Session>> owned;
  for (int i = 0; i < sessions; ++i) {
    owned.push_back(std::make_unique<session::Session>(
        hub, cfg, 1000 + static_cast<std::uint64_t>(i), regions::usEast()));
    owned.back()->connect();
  }
  sim.runFor(Duration::seconds(5));

  std::int64_t reconnects = 0;
  for (auto _ : state) {
    hub.markShardDead(0);
    sim.runFor(Duration::seconds(5));  // deadline + backoff + re-accept
    reconnects += hub.connectedCount();
  }
  state.SetItemsProcessed(reconnects);
  state.counters["reconnects_per_second"] = benchmark::Counter(
      static_cast<double>(reconnects), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SessionReconnectStorm)->Arg(1000);

void BM_PeriodicTasks(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim{1};
    int fired = 0;
    PeriodicTask task{sim, Duration::millis(1), [&] { ++fired; }};
    sim.runFor(Duration::seconds(1));
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_PeriodicTasks);

void BM_UdpLinkTransfer(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim{1};
    Network net{sim};
    Node& a = net.addNode("a");
    Node& b = net.addNode("b");
    a.addAddress(Ipv4Address(10, 0, 0, 1));
    b.addAddress(Ipv4Address(10, 0, 0, 2));
    auto [da, db] = Link::connect(a, b, LinkConfig{});
    a.setDefaultRoute(da);
    b.setDefaultRoute(db);
    UdpSocket server{b, 5000};
    UdpSocket client{a};
    int received = 0;
    server.onReceive([&](const Packet&, const Endpoint&) { ++received; });
    for (int i = 0; i < 1000; ++i) {
      client.sendTo(Endpoint{b.primaryAddress(), 5000}, ByteSize::bytes(500));
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_UdpLinkTransfer);

void BM_UdpSteadyStatePacketPool(benchmark::State& state) {
  // The packet-pool check: on a long-lived link carrying message-bearing
  // datagrams (the relay data path), every `Packet::messages` buffer must be
  // recycled through the PacketArena freelist rather than the heap, and the
  // whole hop (device ring, one delivery event, socket) must be
  // allocation-free once warm. Reports the arena hit rate over the measured
  // window (budget: 1.0) and heap allocations per datagram (gated at ~0).
  Simulator sim{1};
  Network net{sim};
  Node& a = net.addNode("a");
  Node& b = net.addNode("b");
  a.addAddress(Ipv4Address(10, 0, 0, 1));
  b.addAddress(Ipv4Address(10, 0, 0, 2));
  auto [da, db] = Link::connect(a, b, LinkConfig{});
  a.setDefaultRoute(da);
  b.setDefaultRoute(db);
  UdpSocket server{b, 5000};
  UdpSocket client{a};
  std::int64_t received = 0;
  server.onReceive([&](const Packet&, const Endpoint&) { ++received; });
  const Endpoint dst{b.primaryAddress(), 5000};
  // One shared pose update rides every datagram — the same sharing the relay
  // fan-out path uses, so each packet's messages vector draws one arena block.
  auto pose = std::make_shared<Message>();
  pose->kind = avatarmsg::kPoseUpdate;
  pose->size = ByteSize::bytes(500);

  // Warm up: seed the arena freelists, the event pool and the device's
  // in-flight ring. Each burst starts at a later absolute time and so files
  // into the event queue's buckets differently; its block pool and front
  // run reach their high-water mark only after a few bursts, hence several
  // rounds.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1000; ++i) client.sendTo(dst, pose->size, pose);
    sim.run();
  }

  const auto& arena = PacketArena::local();
  const std::uint64_t allocsBefore = g_heapAllocs.load();
  const std::uint64_t hitsBefore = arena.stats().poolHits;
  const std::uint64_t fillsBefore = arena.stats().heapFills;
  const std::int64_t receivedBefore = received;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) client.sendTo(dst, pose->size, pose);
    sim.run();
  }
  const std::uint64_t allocs = g_heapAllocs.load() - allocsBefore;
  const std::uint64_t hits = arena.stats().poolHits - hitsBefore;
  const std::uint64_t fills = arena.stats().heapFills - fillsBefore;
  const std::int64_t datagrams = received - receivedBefore;
  state.SetItemsProcessed(datagrams);
  state.counters["allocs_per_datagram"] = benchmark::Counter(
      datagrams > 0
          ? static_cast<double>(allocs) / static_cast<double>(datagrams)
          : 0.0);
  state.counters["pool_hit_rate"] = benchmark::Counter(
      hits + fills > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + fills)
          : 0.0);
}
BENCHMARK(BM_UdpSteadyStatePacketPool);

void BM_TcpBulkTransfer(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim{1};
    Network net{sim};
    Node& a = net.addNode("a");
    Node& b = net.addNode("b");
    a.addAddress(Ipv4Address(10, 0, 0, 1));
    b.addAddress(Ipv4Address(10, 0, 0, 2));
    LinkConfig cfg;
    cfg.rate = DataRate::mbps(100);
    cfg.delay = Duration::millis(5);
    auto [da, db] = Link::connect(a, b, cfg);
    a.setDefaultRoute(da);
    b.setDefaultRoute(db);
    TcpListener listener{b, 443};
    std::int64_t got = 0;
    listener.onAccept([&](const std::shared_ptr<TcpSocket>& s) {
      s->onMessage([&](const Message& m) { got += m.size.toBytes(); });
    });
    auto client = TcpSocket::create(a);
    client->connect(Endpoint{b.primaryAddress(), 443}, nullptr);
    Message m;
    m.kind = "bulk";
    m.size = ByteSize::megabytes(1);
    client->send(std::move(m));
    sim.run();
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_TcpBulkTransfer);

void BM_TwoUserPlatformSecond(benchmark::State& state) {
  // Simulated-seconds-per-wall-second for the standard two-user scenario.
  for (auto _ : state) {
    state.PauseTiming();
    Testbed bed{1};
    bed.deploy(platforms::vrchat());
    bed.addUser();
    bed.addUser();
    AutoDriver driver{bed};
    driver.play(launchThenJoinScript(2, Duration::zero(), Duration::zero()));
    bed.sim().runFor(Duration::seconds(2));  // warm-up outside timing
    state.ResumeTiming();
    bed.sim().runFor(Duration::seconds(10));
  }
}
BENCHMARK(BM_TwoUserPlatformSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
