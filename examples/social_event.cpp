// A public social event that grows over time — the §6 scalability scenario
// as a runnable story. Users trickle into an event; we watch one attendee's
// downlink, frame rate and device load degrade as the relay fans out ever
// more avatar data.
//
//   ./social_event [platform] [maxUsers]

#include <cstdio>
#include <string>

#include "core/experiments.hpp"

using namespace msim;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "worlds";
  const int maxUsers = argc > 2 ? std::atoi(argv[2]) : 12;

  PlatformSpec spec = platforms::worlds();
  for (const PlatformSpec& p : platforms::allFive()) {
    std::string lower = p.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    lower.erase(std::remove(lower.begin(), lower.end(), ' '), lower.end());
    if (lower == name) spec = p;
  }

  std::printf("== social event on %s: %d attendees joining one by one ==\n\n",
              spec.name.c_str(), maxUsers);

  Testbed bed{7};
  bed.deploy(spec);
  for (int i = 0; i < maxUsers; ++i) bed.addUser();
  arrangeUsersForSweep(bed);  // everyone visible to user 0

  // Everyone launches at once; one join every 10 s from 5 s on. Once the
  // last user is in, user 0 turns 180° to show the viewport effect.
  const double tTurn = 5.0 + 10.0 * maxUsers;
  DriverScript script = launchThenJoinScript(
      maxUsers, Duration::zero(), Duration::seconds(5), Duration::seconds(10));
  script.snapTurn(Duration::seconds(tTurn), 0, 8);
  AutoDriver driver{bed};
  driver.play(script);

  TestUser& watcher = bed.user(0);
  std::printf("%8s %8s %12s %8s %8s %8s %8s\n", "time", "users", "down Kbps",
              "FPS", "CPU %", "GPU %", "mem GB");
  for (int i = 1; i <= maxUsers; ++i) {
    const double tEnd = 5.0 + 10.0 * i;
    bed.sim().run(TimePoint::epoch() + Duration::seconds(tEnd));
    const auto from = TimePoint::epoch() + Duration::seconds(tEnd - 8);
    const MetricsSample m =
        watcher.headset->metrics().averageOver(from, bed.sim().now());
    std::printf("%7.0fs %8d %12.1f %8.1f %8.0f %8.0f %8.2f\n", tEnd, i,
                watcher.capture
                    ->meanRate(Channel::DataDown, static_cast<std::size_t>(tEnd - 8),
                               static_cast<std::size_t>(tEnd - 1))
                    .toKbps(),
                m.fps, m.cpuUtilPct, m.gpuUtilPct, m.memoryGB);
  }

  std::printf(
      "\nThe linear downlink growth and the FPS/CPU climb are the paper's\n"
      "core scalability finding (§6): the server forwards every avatar's\n"
      "data to every attendee, unaggregated. Only AltspaceVR filters by\n"
      "viewport — try './social_event altspacevr %d' and then turn away:\n",
      maxUsers);

  // The viewport effect at the end: user 0 turned 180° at tTurn.
  bed.sim().runFor(Duration::seconds(15));
  std::printf("after turning away at %.0fs: downlink %.1f Kbps (%s)\n", tTurn,
              watcher.capture
                  ->meanRate(Channel::DataDown,
                             static_cast<std::size_t>(tTurn + 5),
                             static_cast<std::size_t>(tTurn + 14))
                  .toKbps(),
              spec.data.viewportFilter
                  ? "dropped — server-side viewport filtering"
                  : "unchanged — this platform forwards regardless");
  return 0;
}
