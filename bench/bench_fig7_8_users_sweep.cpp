// Figs. 7 and 8: U1's downlink throughput and FPS (Fig. 7) and its CPU,
// GPU and memory (Fig. 8) vs number of users (1-15), with 95% confidence
// intervals — plus §6.2's 10-minute battery runs. The paper reads all of
// these off the same sessions, so one runUsersSweepCells call simulates the
// grid once and both figures are printed from its results.

#include "common.hpp"

using namespace msim;

int main() {
  const int seeds = bench::seedCount();
  const Duration window = bench::measureWindow();
  const std::vector<PlatformSpec> specs = platforms::allFive();
  const int userCounts[] = {1, 2, 3, 4, 5, 7, 10, 12, 15};
  const std::size_t counts = std::size(userCounts);

  // The platform x users grid (platform-major), then one 15-user 10-minute
  // battery cell per platform — all in one job list.
  std::vector<SweepCell> cells;
  for (const PlatformSpec& spec : specs) {
    for (const int n : userCounts) cells.push_back({spec, n, seeds, window});
  }
  for (const PlatformSpec& spec : specs) {
    cells.push_back({spec, 15, 1, Duration::minutes(10)});
  }
  const std::vector<SweepPoint> points = runUsersSweepCells(cells);
  const SweepPoint* grid = points.data();
  const SweepPoint* battery = grid + specs.size() * counts;

  bench::header("Fig. 7 — downlink throughput & FPS vs users (1..15)",
                "Fig. 7 (§6.1 controlled 1-5, §6.2 public events 7-15); " +
                    std::to_string(seeds) + " runs/cell");
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::printf("\n--- %s ---\n", specs[s].name.c_str());
    TablePrinter table{{"users", "down Mbps (±CI)", "FPS (±CI)", "FPS drop"}};
    const double fps1 = grid[s * counts].fps;
    std::vector<double> users;
    std::vector<double> tput;
    for (std::size_t k = 0; k < counts; ++k) {
      const SweepPoint& p = grid[s * counts + k];
      users.push_back(p.users);
      tput.push_back(p.downMbps);
      table.addRow({std::to_string(p.users),
                    fmt(p.downMbps, 3) + " ±" + fmt(p.downMbpsCi, 3),
                    fmt(p.fps, 1) + " ±" + fmt(p.fpsCi, 1),
                    fmt(100.0 * (fps1 - p.fps) / fps1, 0) + "%"});
    }
    table.print(std::cout);
    const LinearFit fit = linearFit(users, tput);
    std::printf("throughput linearity: slope %.3f Mbps/user, R^2 = %.3f\n",
                fit.slope, fit.r2);
  }
  std::printf(
      "\npaper checkpoints: downlink grows linearly with users on every\n"
      "platform (Worlds >4.5 Mbps at 15 — ~30 Mbps extrapolated at 100 users,\n"
      "beyond the FCC 25 Mbps broadband definition); FPS declines with users;\n"
      "Worlds has the smallest drop (~25%% at 15) and Hubs the largest\n"
      "(72 -> ~60 at 5 -> ~33 at 15, ~54%%).\n");

  bench::header("Fig. 8 — CPU/GPU utilization & memory vs users (1..15)",
                "Fig. 8, §6.2; " + std::to_string(seeds) + " runs/cell");
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::printf("\n--- %s ---\n", specs[s].name.c_str());
    TablePrinter table{{"users", "CPU % (±CI)", "GPU % (±CI)", "mem GB"}};
    for (std::size_t k = 0; k < counts; ++k) {
      const SweepPoint& p = grid[s * counts + k];
      table.addRow({std::to_string(p.users), fmt(p.cpuPct) + " ±" + fmt(p.cpuCi),
                    fmt(p.gpuPct) + " ±" + fmt(p.gpuCi), fmt(p.memGB, 2)});
    }
    table.print(std::cout);
    const SweepPoint& at1 = grid[s * counts];
    const SweepPoint& at15 = grid[s * counts + counts - 1];
    std::printf("growth 1 -> 15 users: CPU +%.0f pts, GPU +%.0f pts; "
                "memory at 15 users: %.2f GB\n",
                at15.cpuPct - at1.cpuPct, at15.gpuPct - at1.gpuPct, at15.memGB);
  }

  // §6.2 energy: <10% battery per 10 minutes even at 15 users.
  std::printf("\n--- §6.2 battery drain (10-minute event, 15 users) ---\n");
  for (std::size_t s = 0; s < specs.size(); ++s) {
    std::printf("%-12s battery used: %4.1f%% (paper: <10%%)\n",
                specs[s].name.c_str(), battery[s].batteryDropPct);
  }
  std::printf(
      "\npaper checkpoints: Hubs has the highest CPU (≈100%% at 15 users);\n"
      "AltspaceVR leans on the GPU (+25 GPU vs +15 CPU points from 1 to 15);\n"
      "other platforms grow CPU by ~20 points and GPU by 10-15; each remote\n"
      "avatar costs ~10 MB of memory; Worlds peaks near 2 GB (~33%% of the\n"
      "Quest 2's 6 GB); battery stays under 10%% per 10 minutes.\n");
  return 0;
}
