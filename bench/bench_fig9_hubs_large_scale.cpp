// Fig. 9: the large-scale event on the authors' private Hubs server with up
// to 28 users — throughput keeps growing linearly; FPS drops ~32% from 15
// to 28 users.

#include "common.hpp"

using namespace msim;

int main() {
  const int seeds = bench::seedCount(3);
  const Duration window = bench::measureWindow();
  bench::header("Fig. 9 — private-Hubs large-scale event (15..28 users)",
                "Fig. 9, §6.2; " + std::to_string(seeds) + " runs/cell");

  const PlatformSpec spec = platforms::hubsPrivate();
  TablePrinter table{{"users", "down Mbps (±CI)", "FPS (±CI)"}};
  double fps15 = 0;
  double fps28 = 0;
  std::vector<double> users;
  std::vector<double> tput;
  std::vector<SweepCell> cells;
  for (const int n : {15, 20, 25, 28}) cells.push_back({spec, n, seeds, window});
  for (const SweepPoint& p : runUsersSweepCells(cells)) {
    if (p.users == 15) fps15 = p.fps;
    if (p.users == 28) fps28 = p.fps;
    users.push_back(p.users);
    tput.push_back(p.downMbps);
    table.addRow({std::to_string(p.users),
                  fmt(p.downMbps, 2) + " ±" + fmt(p.downMbpsCi, 2),
                  fmt(p.fps, 1) + " ±" + fmt(p.fpsCi, 1)});
  }
  table.print(std::cout);
  const LinearFit fit = linearFit(users, tput);
  std::printf("throughput stays linear to 28 users: slope %.3f Mbps/user, "
              "R^2 = %.3f\n",
              fit.slope, fit.r2);
  std::printf("FPS drop 15 -> 28 users: %.0f%% (paper: ~32%%)\n",
              100.0 * (fps15 - fps28) / fps15);
  return 0;
}
