// Crowd experiment driven by an AutoDriver script (§9): the paper's authors
// describe extending Oculus' AutoDriver to run large-scale crowd-sourced
// measurements from pre-defined inputs. Here each participant replays the
// same text script, staggered; the harness collects the familiar metrics.
//
//   ./crowd_experiment [platform] [participants] [replicates]
//
// With replicates > 1 the whole scripted session is re-run under different
// seeds on the seed-sweep pool (core/seedsweep.hpp) and the table reports
// per-user means across replicates — the "many crowd-sourced sessions"
// shape of §9 without any extra wall-clock on a multicore host.

#include <cstdio>
#include <string>
#include <vector>

#include "core/autodriver.hpp"
#include "core/latency.hpp"
#include "core/seedsweep.hpp"

using namespace msim;

namespace {

struct UserRow {
  double downKbps{0.0};
  double fps{0.0};
  double cpuPct{0.0};
  double actsSeen{0.0};
  double staleRatio{0.0};
};

// Every participant runs the same scripted session, staggered by 5 s:
// launch, browse, join, walk to a spot, greet (visible action), chat.
constexpr const char* kScriptTemplate =
    "0 launch\n"
    "8 join\n"
    "8.2 wander 0\n"
    "9 face 0 0\n"
    "12 act\n"      // wave hello
    "30 turn 8\n"   // look around
    "40 turn -8\n"
    "70 act\n"      // wave goodbye
    "80 leave\n";

std::vector<UserRow> runCrowdSession(const PlatformSpec& spec,
                                     int participants, std::uint64_t seed) {
  Testbed bed{seed};
  bed.deploy(spec);
  const DriverScript session = DriverScript::parse(kScriptTemplate);
  DriverScript script;
  for (int i = 0; i < participants; ++i) {
    TestUserConfig cfg;
    cfg.wander = false;
    TestUser& user = bed.addUser(cfg);
    // Spread participants on a circle so everyone sees everyone.
    const double angle = 2.0 * M_PI * i / participants;
    user.client->motion().setPose(
        Pose{4.0 * std::cos(angle), 4.0 * std::sin(angle), 0});
    for (DriverStep step : session.steps()) {
      step.at = Duration::seconds(5.0 * i) + step.at;
      step.user = i;
      script.add(step);
    }
  }
  AutoDriver driver{bed};
  driver.play(script);

  const double endSec = 5.0 * participants + 85.0;
  bed.sim().runFor(Duration::seconds(endSec));

  std::vector<UserRow> rows;
  rows.reserve(static_cast<std::size_t>(participants));
  for (int i = 0; i < participants; ++i) {
    TestUser& user = bed.user(i);
    const double joinSec = 5.0 * i + 8.0;
    const auto from = TimePoint::epoch() + Duration::seconds(joinSec + 5);
    const auto to = TimePoint::epoch() + Duration::seconds(joinSec + 60);
    const MetricsSample m = user.headset->metrics().averageOver(from, to);
    // How many of the other participants' greetings reached this screen?
    int actsSeen = 0;
    for (int j = 0; j < participants; ++j) {
      if (j == i) continue;
      for (const std::uint64_t action : driver.actionsPerformed(j)) {
        if (user.headset->firstDisplayLocal(action)) ++actsSeen;
      }
    }
    UserRow row;
    row.downKbps = user.capture
                       ->meanRate(Channel::DataDown,
                                  static_cast<std::size_t>(joinSec + 5),
                                  static_cast<std::size_t>(joinSec + 60))
                       .toKbps();
    row.fps = m.fps;
    row.cpuPct = m.cpuUtilPct;
    row.actsSeen = actsSeen;
    row.staleRatio = user.client->visibleStaleRatio();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "recroom";
  const int participants = argc > 2 ? std::max(2, std::atoi(argv[2])) : 6;
  const int replicates = argc > 3 ? std::max(1, std::atoi(argv[3])) : 1;

  PlatformSpec spec = platforms::recRoom();
  for (const PlatformSpec& p : platforms::allFive()) {
    std::string lower = p.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    lower.erase(std::remove(lower.begin(), lower.end(), ' '), lower.end());
    if (lower == name) spec = p;
  }

  std::printf(
      "== AutoDriver crowd experiment: %d participants on %s (%d replicate%s)"
      " ==\n\n",
      participants, spec.name.c_str(), replicates, replicates == 1 ? "" : "s");

  std::vector<std::uint64_t> seeds;
  for (int r = 0; r < replicates; ++r) {
    seeds.push_back(2026 + static_cast<std::uint64_t>(r) * 101);
  }
  const auto sessions = runSeedSweep(seeds, [&](std::uint64_t seed) {
    return runCrowdSession(spec, participants, seed);
  });

  std::printf("%6s %12s %8s %8s %10s %12s\n", "user", "down Kbps", "FPS",
              "CPU %", "acts seen", "stale ratio");
  for (int i = 0; i < participants; ++i) {
    UserRow mean;
    for (const auto& session : sessions) {
      mean.downKbps += session[i].downKbps;
      mean.fps += session[i].fps;
      mean.cpuPct += session[i].cpuPct;
      mean.actsSeen += session[i].actsSeen;
      mean.staleRatio += session[i].staleRatio;
    }
    const auto n = static_cast<double>(sessions.size());
    std::printf("%6d %12.1f %8.1f %8.0f %10.1f %12.3f\n", i + 1,
                mean.downKbps / n, mean.fps / n, mean.cpuPct / n,
                mean.actsSeen / n, mean.staleRatio / n);
  }
  std::printf(
      "\nEvery row ran the same replayable script — the §9 recipe for\n"
      "crowd-sourced measurements without manual headset operation.\n");
  return 0;
}
