#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

// ---- host memory ----------------------------------------------------------

namespace {
double statusKb(const char* key) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  const std::string prefix = key;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0.0;
}
}  // namespace

double peakRssMb() { return statusKb("VmHWM:") / 1024.0; }
double currentRssKb() { return statusKb("VmRSS:"); }

// ---- statistics -----------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double rSquared(const std::vector<double>& x, const std::vector<double>& y) {
  const auto n = static_cast<double>(x.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return syy == 0.0 ? 1.0 : 0.0;
  return sxy * sxy / (sxx * syy);
}

std::vector<double> fastestPass(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> out;
  if (passes.empty()) return out;
  out = passes.front();
  for (const auto& pass : passes) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], pass.at(i));
    }
  }
  return out;
}

double PassTimes::run() const {
  double sum = 0.0;
  for (const double s : fastestPass(runS)) sum += s;
  return sum;
}

std::size_t PassTimes::slices() const {
  std::size_t n = 0;
  for (const auto& op : sliceMs.front()) n += op.size();
  return n;
}

void setEndToEnd(const PassTimes& t, Result& r) {
  double setup = 0.0;
  for (const double s : fastestPass(t.setupS)) setup += s;
  const std::size_t ops = t.sliceMs.front().size();
  double p50 = 0.0;
  double p90 = 0.0;
  for (std::size_t op = 0; op < ops; ++op) {
    std::vector<std::vector<double>> passes;
    for (const auto& pass : t.sliceMs) passes.push_back(pass.at(op));
    const std::vector<double> fastest = fastestPass(passes);
    p50 += percentile(fastest, 50.0) / static_cast<double>(ops);
    p90 += percentile(fastest, 90.0) / static_cast<double>(ops);
  }
  r.set("run_s", t.run());
  r.set("setup_s", setup);
  r.set("peak_rss_mb", peakRssMb());
  r.set("slice_ms.p50", p50);
  r.set("slice_ms.p90", p90);
  std::printf("fastest of %zu passes: %zu operations, %zu slices\n",
              t.runS.size(), t.runS.front().size(), t.slices());
}

std::uint64_t fold(std::uint64_t acc, std::uint64_t v) {
  std::uint64_t z = acc + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
