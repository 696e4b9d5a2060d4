// Extension: Horizon Workrooms scalability (§6.3's reference to the
// authors' prior work [14] — "Reality Check of Metaverse"). The relay
// architecture is the same, so the linear throughput scaling must show up
// in a meetings product too: "scalability is indeed a common problem".

#include "common.hpp"
#include "platform/extensions.hpp"

using namespace msim;

int main() {
  const int seeds = bench::seedCount(3);
  bench::header("Extension — Horizon-Workrooms-class meetings platform",
                "§6.3 / prior work [14]: the scalability problem is common "
                "to relay-based social VR (constants are estimates, not "
                "IMC'22-calibrated)");

  TablePrinter table{{"users", "down Mbps (±CI)", "FPS", "CPU %"}};
  std::vector<double> users;
  std::vector<double> tput;
  std::vector<SweepCell> cells;
  for (const int n : {2, 4, 8, 12, 16}) {
    cells.push_back({platforms::workrooms(), n, seeds, Duration::seconds(20)});
  }
  for (const SweepPoint& p : runUsersSweepCells(cells)) {
    users.push_back(p.users);
    tput.push_back(p.downMbps);
    table.addRow({std::to_string(p.users),
                  fmt(p.downMbps, 3) + " ±" + fmt(p.downMbpsCi, 3),
                  fmt(p.fps, 1), fmt(p.cpuPct, 0)});
  }
  table.print(std::cout);
  const LinearFit fit = linearFit(users, tput);
  std::printf("\nlinearity: slope %.3f Mbps/user, R^2 = %.3f — the same "
              "forward-everything scaling as the five social platforms.\n",
              fit.slope, fit.r2);
  return 0;
}
