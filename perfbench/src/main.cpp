// perfbench: runs one workload of the repository benchmark and prints its
// metrics. Usage:
//
//   perfbench --workload <users_sweep|cluster_tier> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// With --trace 0 it times the workload and reports the end-to-end metrics;
// with --trace 1 it reports the per-layer metrics (and writes spans to
// --trace-out). Every line before the last is for people; the last line is
// one JSON object {correct, attempted, failed, metrics}. Exits 1 when any
// output check failed, 2 on bad arguments or a non-Release build.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using perfbench::MetricDef;

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <users_sweep|cluster_tier> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      opt.traceOut = val;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0) {
    usage();
    return 2;
  }

  const std::string buildType = PERFBENCH_BUILD_TYPE;
  bool release = buildType == "Release";
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 buildType.c_str());
    return 2;
  }

  perfbench::Result r;
  if (opt.workload == "users_sweep") {
    r = perfbench::runUsersSweep(opt);
  } else if (opt.workload == "cluster_tier") {
    r = perfbench::runClusterTier(opt);
  } else {
    usage();
    return 2;
  }
  perfbench::setTracing(false);

  const unsigned cores = std::thread::hardware_concurrency();
  const std::string model = cpuModel();
  std::printf("host: %u cores, cpu \"%s\", build %s\n", cores, model.c_str(),
              buildType.c_str());
  std::printf("workload: %s seed %" PRIu64 " seconds %.3g trace %d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("fingerprint: %016" PRIx64 "\n", r.fingerprint);
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("fail_ratio: %.6f (%" PRIu64 " of %" PRIu64 " operations)\n",
              perfbench::ratio(static_cast<double>(r.failed),
                               static_cast<double>(r.attempted)),
              r.failed, r.attempted);

  std::string metrics;
  auto emit = [&](const MetricDef& d) {
    const auto it = r.values.find(d.name);
    const double v = it != r.values.end() ? it->second : 0.0;
    std::printf("  %-34s %18.6f %s\n", d.name, v, d.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, number(v).c_str(), d.unit);
    metrics += buf;
  };
  if (opt.trace) {
    for (const MetricDef& d : perfbench::kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : perfbench::kEndToEnd) emit(d);
  }

  if (opt.trace && !opt.traceOut.empty()) {
    char ctx[512];
    std::snprintf(ctx, sizeof(ctx),
                  "{\"workload\": \"%s\", \"seed\": %" PRIu64
                  ", \"host_cores\": %u, \"cpu_model\": \"%s\", "
                  "\"build_type\": \"%s\", \"fingerprint\": \"%016" PRIx64
                  "\"}",
                  opt.workload.c_str(), opt.seed, cores,
                  jsonEscape(model).c_str(), buildType.c_str(), r.fingerprint);
    if (!perfbench::tracer().write(opt.traceOut, ctx)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.traceOut.c_str());
    }
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  return correct ? 0 : 1;
}
