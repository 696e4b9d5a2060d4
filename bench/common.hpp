#pragma once

// Shared plumbing for the bench harness. Every bench binary regenerates one
// of the paper's tables or figures and prints the same rows/series, next to
// the paper's reported values where the paper gives numbers.
//
// Runtime knobs:
//   MSIM_SEEDS     repetitions per reported cell (default 5; the paper
//                  averaged "more than 20" — set 20+ for publication runs)
//   MSIM_MEASURE_S measurement window seconds for sweeps (default 30)
//   MSIM_CSV_DIR   directory for per-figure series CSVs (unset: none)

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "util/table.hpp"

namespace msim::bench {

/// Environment variable `name` read as a T, or `fallback` when unset. A set
/// value that is not a positive T ("abc", "0", "-3", "3x", "", "2.5" for a
/// count) prints a message naming the variable and exits with status 2.
template <typename T>
T envKnob(const char* name, T fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  const char* end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec == std::errc{} && ptr == end && v > 0 &&
      std::isfinite(static_cast<double>(v))) {
    return v;
  }
  std::fprintf(stderr, "%s must be a positive number, got '%s'\n", name, text);
  std::exit(2);
}

inline int seedCount(int fallback = 5) {
  return envKnob("MSIM_SEEDS", fallback);
}

inline Duration measureWindow(double fallbackSec = 30.0) {
  return Duration::seconds(envKnob("MSIM_MEASURE_S", fallbackSec));
}

inline void header(const std::string& title, const std::string& paperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paperRef.c_str());
  std::printf("================================================================\n");
}

/// Compact series rendering: value at every `step`-th second.
inline void printSeries(const std::string& label, const std::vector<double>& v,
                        std::size_t step = 10, const char* unit = "") {
  std::printf("%-18s", label.c_str());
  for (std::size_t i = 0; i < v.size(); i += step) {
    std::printf(" %7.1f", v[i]);
  }
  std::printf(" %s\n", unit);
}

inline void printSeriesHeader(const std::string& label, std::size_t n,
                              std::size_t step = 10) {
  std::printf("%-18s", label.c_str());
  for (std::size_t i = 0; i < n; i += step) {
    std::printf(" %6zus", i);
  }
  std::printf("\n");
}

/// "within x% of the paper" annotation.
inline std::string vsPaper(double measured, double paper) {
  if (paper == 0.0) return "-";
  const double pct = 100.0 * (measured - paper) / paper;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%+.0f%%", pct);
  return buf;
}

/// When MSIM_CSV_DIR is set, writes per-second series as
/// <dir>/<figure>.csv with a time column — plot-ready data for every
/// regenerated figure. Returns true if a file was written. A file that
/// cannot be opened, written or closed prints its path and exits with
/// status 2, as a malformed knob does.
inline bool writeSeriesCsv(const std::string& figure,
                           const std::vector<std::string>& columns,
                           const std::vector<std::vector<double>>& series) {
  const char* dir = std::getenv("MSIM_CSV_DIR");
  if (dir == nullptr || columns.size() != series.size() || series.empty()) {
    return false;
  }
  const std::string path = std::string{dir} + "/" + figure + ".csv";
  const auto fail = [&path] {
    std::fprintf(stderr, "MSIM_CSV_DIR: cannot write '%s'\n", path.c_str());
    std::exit(2);
  };
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) fail();
  std::fprintf(f, "t_sec");
  for (const auto& c : columns) std::fprintf(f, ",%s", c.c_str());
  std::fprintf(f, "\n");
  std::size_t n = 0;
  for (const auto& s : series) n = std::max(n, s.size());
  for (std::size_t t = 0; t < n; ++t) {
    std::fprintf(f, "%zu", t);
    for (const auto& s : series) {
      std::fprintf(f, ",%.3f", t < s.size() ? s[t] : 0.0);
    }
    std::fprintf(f, "\n");
  }
  const bool writeFailed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || writeFailed) fail();
  std::printf("[csv] wrote %s\n", path.c_str());
  return true;
}

}  // namespace msim::bench
