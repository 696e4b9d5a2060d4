#pragma once

// Tracing support of the benchmark binary: spans around every call into the
// simulator (setup, run slice, extraction), kept in memory and written out at
// exit, plus a counting global operator new. Both stay off in the timed run:
// the untraced run measures the end-to-end metrics, a separate traced run the
// per-layer ones, and their difference is the tracing overhead.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name;
  double start;  // seconds since process start
  double end;
  int parent;    // index into the span list, -1 for a root
};

/// Process-wide span recorder. Disabled by default; open() returns -1 and
/// records nothing while off.
class Tracer {
 public:
  void setEnabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  int open(const char* name, int parent, WallClock::time_point at);
  void close(int id, WallClock::time_point at);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Total duration of the spans called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Writes the spans as JSON (host and run context first); false on error.
  bool write(const std::string& path, const std::string& context) const;

 private:
  bool enabled_{false};
  std::vector<SpanRecord> spans_;
};

[[nodiscard]] Tracer& tracer();

/// Times one call into the simulator and, when tracing, records it as a
/// span under `parent`.
class Timed {
 public:
  explicit Timed(const char* name, int parent = -1)
      : start_{WallClock::now()}, id_{tracer().open(name, parent, start_)} {}
  /// Closes the span; returns the elapsed wall seconds.
  double stop() {
    const WallClock::time_point end = WallClock::now();
    tracer().close(id_, end);
    return std::chrono::duration<double>(end - start_).count();
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  WallClock::time_point start_;
  int id_;
};

/// Heap allocations (global operator new calls) counted while counting is on.
void setAllocCounting(bool on);
[[nodiscard]] std::uint64_t allocCount();

/// Turns spans and allocation counting on or off together.
inline void setTracing(bool on) {
  tracer().setEnabled(on);
  setAllocCounting(on);
}

}  // namespace perfbench
