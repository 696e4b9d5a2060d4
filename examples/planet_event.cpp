// A "planet-scale" social event on a sharded relay cluster.
//
// The paper ends by asking whether today's architectures are ready for the
// metaverse (§9): one relay machine falls over long before "thousands of
// users in one world". This example runs the escape hatch the measurements
// point at (§4.2): a fleet of relay instances, each user pinned to the
// least-loaded one, an instance drained live mid-event (its room migrates
// with zero loss), and late arrivals spread over the shards that remain.
// It exits 1 if any avatar update failed to reach a room-mate, or if any
// user ends the event without a room on an Active shard.
//
//   ./planet_event [users] [instances] [--churn]
//
// Both counts are whole numbers: users >= 1, instances >= 2 (the drained or
// crashed shard needs a survivor to hand its users to). Anything else exits 2.
//
// With --churn, the drain is replaced by the rude version: a shard *crashes*
// mid-event with live sessions on it. The session tier (src/session) takes
// over — every orphaned client discovers the death through its ping
// deadline, backs off with jitter, and storms back through placement,
// which re-places the stale pins, while the hub replays each channel's
// missed interval from history. The run prints the storm draining and gates
// on the exactly-once ledger: zero lost, zero duplicate, zero out-of-order.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "avatar/codec.hpp"
#include "avatar/spec.hpp"
#include "cluster/manager.hpp"
#include "cluster/sessions.hpp"
#include "util/table.hpp"

using namespace msim;
using namespace msim::cluster;

namespace {

void printCluster(const InstanceManager& mgr, double atSec) {
  std::printf("\n--- cluster at t=%.0fs ---\n", atSec);
  TablePrinter table{
      {"shard", "state", "users", "forwards", "util", "inflation"}};
  const ClusterStats stats = mgr.stats();
  for (const auto& row : stats.shards) {
    char util[32];
    char infl[32];
    std::snprintf(util, sizeof(util), "%.3f", row.utilization);
    std::snprintf(infl, sizeof(infl), "%.2f", row.queueInflation);
    table.addRow({std::to_string(row.id), toString(row.state),
                  std::to_string(row.users), std::to_string(row.forwards),
                  util, infl});
  }
  table.print(std::cout);
  std::printf("placements %llu | migrations %llu (%llu users) | drains %llu\n",
              static_cast<unsigned long long>(stats.placementsTotal),
              static_cast<unsigned long long>(stats.migrations),
              static_cast<unsigned long long>(stats.migratedUsers),
              static_cast<unsigned long long>(stats.drains));
}

int runChurnEvent(int users, int instances) {
  std::printf("planet_event --churn: %d sessions, %d relay shards\n", users,
              instances);

  // The same event, but the mid-event disruption is a *crash*: shard 0 dies
  // silently at t=20s with its share of the crowd connected and subscribed.
  ChurnWorkloadConfig cfg;
  cfg.sessions = users;
  cfg.shards = instances;
  cfg.channels = 16;
  cfg.connectWindow = Duration::seconds(2);
  cfg.publishStart = Duration::seconds(5);
  cfg.publishEvery = Duration::millis(250);
  cfg.publishUntil = Duration::seconds(45);
  cfg.runFor = Duration::seconds(60);
  cfg.crashAt = Duration::seconds(20);
  cfg.session.pingInterval = Duration::seconds(5);
  cfg.session.maxPingDelay = Duration::seconds(2);
  cfg.session.minReconnectDelay = Duration::millis(200);
  cfg.session.maxReconnectDelay = Duration::seconds(5);
  const ChurnWorkloadResult r = runChurnWorkload(2026, cfg);

  std::printf(
      "\n>>> shard 0 crashed at t=%.0fs with live sessions pinned to it\n"
      ">>> ping deadlines fired: %llu sessions discovered the death\n"
      ">>> reconnect storm: %llu reconnects drained through placement\n"
      "    (%llu kept their sticky pin, %llu re-placed off the dead shard;\n"
      "     peak connect queue %zu deep)\n",
      cfg.crashAt.toSeconds(),
      static_cast<unsigned long long>(r.pingTimeouts),
      static_cast<unsigned long long>(r.reconnects),
      static_cast<unsigned long long>(r.reconnectsSticky),
      static_cast<unsigned long long>(r.reconnectsReplaced),
      r.peakPendingConnects);

  TablePrinter table{{"metric", "value"}};
  table.addRow({"published per channel", std::to_string(r.published)});
  table.addRow({"delivered", std::to_string(r.received)});
  table.addRow({"recovered via history replay", std::to_string(r.recovered)});
  table.addRow({"lost", std::to_string(r.lost)});
  table.addRow({"duplicates", std::to_string(r.duplicates)});
  table.addRow({"out-of-order gaps", std::to_string(r.gaps)});
  table.addRow({"full rejoins", std::to_string(r.fullRejoins)});
  table.addRow({"connected at end", std::to_string(r.connectedAtEnd)});
  table.print(std::cout);

  const bool ok = r.lost == 0 && r.duplicates == 0 && r.gaps == 0 &&
                  r.connectedAtEnd == static_cast<std::size_t>(users);
  if (ok) {
    std::printf("\nzero-loss churn: every subscriber saw every message "
                "exactly once and in order across the crash.\n");
  } else {
    std::printf("\nLOSS DETECTED: %llu lost, %llu duplicates, %llu "
                "out-of-order gaps; %zu of %d sessions connected at end.\n",
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.duplicates),
                static_cast<unsigned long long>(r.gaps), r.connectedAtEnd,
                users);
  }
  return ok ? 0 : 1;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "planet_event: %s\n"
               "usage: planet_event [users >= 1] [instances >= 2] [--churn]\n",
               why.c_str());
  return 2;
}

// Reads `text` as a whole number ("12"; not "abc", "2.5" or "3x").
bool wholeNumber(const char* text, int& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  bool churn = false;
  int positional[2] = {1200, 8};
  int npos = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--churn") == 0) {
      churn = true;
    } else if (npos == 2) {
      return usage(std::string{"unexpected argument '"} + argv[i] + "'");
    } else if (!wholeNumber(argv[i], positional[npos++])) {
      return usage(std::string{"not a whole number: '"} + argv[i] + "'");
    }
  }
  const int users = positional[0];
  const int instances = positional[1];
  if (users < 1) return usage("need at least one user");
  if (instances < 2) {
    return usage("need at least two instances: the drained or crashed shard "
                 "hands its users to another");
  }

  if (churn) return runChurnEvent(users, instances);

  std::printf("planet_event: %d users, %d relay instances\n", users, instances);

  Simulator sim{2026};
  ClusterConfig cfg;
  cfg.initialInstances = instances;
  // Beefier hosts than the paper's single testbed box: each shard should sit
  // below the saturation knee at its planned occupancy, so inflation only
  // shows up where the event actually overloads a shard.
  cfg.capacity.cores = 8;
  InstanceManager mgr{sim, DataSpec{}, cfg};

  std::uint64_t delivered = 0;
  mgr.setDeliverySink(
      [&delivered](std::uint32_t, std::uint64_t, const Message&) {
        ++delivered;
      });

  // The crowd joins; each user is pinned to the least-loaded shard.
  for (int i = 0; i < users; ++i) {
    if (mgr.joinUser(static_cast<std::uint64_t>(i + 1)) == nullptr) {
      std::printf("cluster full at user %d\n", i + 1);
      break;
    }
  }

  // Everyone animates at the avatar update rate; each update is owed to
  // every other member of the sender's room.
  AvatarSpec avatar;
  Message pose;
  pose.kind = avatarmsg::kPoseUpdate;
  pose.size = avatar.bytesPerUpdate;
  std::uint64_t seq = 0;
  std::uint64_t owed = 0;
  PeriodicTask pacer{sim, Duration::seconds(1.0 / avatar.updateRateHz), [&] {
                       for (const auto& inst : mgr.instances()) {
                         const std::size_t members = inst->userCount();
                         if (members < 2) continue;
                         for (const std::uint64_t id : inst->room().userIds()) {
                           pose.senderId = id;
                           pose.sequence = ++seq;
                           inst->room().broadcast(id, pose);
                           owed += members - 1;
                         }
                       }
                     }};

  sim.runFor(Duration::seconds(5));
  printCluster(mgr, 5);

  // Ops drains the last shard (say, for a host kernel upgrade): its room
  // migrates live to the least-loaded shard; nobody's stream drops.
  const auto victim = static_cast<std::uint32_t>(instances - 1);
  std::printf("\n>>> draining shard %u (live migration)...\n", victim);
  const std::size_t moved = mgr.drain(victim);
  std::printf(">>> %zu users migrated; shard %u is %s\n", moved, victim,
              toString(mgr.instance(victim)->state()));

  // Late arrivals land on the shards still serving, never on the drained
  // one.
  sim.runFor(Duration::seconds(5));
  for (int i = 0; i < 40; ++i) {
    mgr.joinUser(static_cast<std::uint64_t>(users + i + 1));
  }
  sim.runFor(Duration::seconds(5));
  printCluster(mgr, 15);

  // Stop animating and let the updates in flight land before the tally: a
  // busy shard's queue holds up to a few seconds of fan-out.
  pacer.stop();
  for (int s = 0; s < 60 && delivered < owed; ++s) {
    sim.runFor(Duration::seconds(1));
  }
  const auto everyone = static_cast<std::uint64_t>(users + 40);
  std::vector<bool> seated(everyone + 1, false);
  for (const auto& inst : mgr.instances()) {
    if (inst->state() != InstanceState::Active) continue;
    for (const std::uint64_t id : inst->room().userIds()) {
      if (id <= everyone) seated[id] = true;
    }
  }
  std::uint64_t roomless = 0;
  for (std::uint64_t id = 1; id <= everyone; ++id) {
    if (!seated[id]) ++roomless;
  }
  std::printf("\n%llu of %llu avatar updates delivered; %llu of %llu users "
              "without a live room\n",
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(owed),
              static_cast<unsigned long long>(roomless),
              static_cast<unsigned long long>(everyone));
  const bool ok = delivered == owed && roomless == 0;
  std::printf("%s\n", ok ? "zero loss: every user kept a live room throughout."
                         : "FAIL: updates lost or users left without a live "
                           "room");
  return ok ? 0 : 1;
}
