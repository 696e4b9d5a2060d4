#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::uint64_t> g_heapAllocs{0};
const perfbench::WallClock::time_point g_processStart =
    perfbench::WallClock::now();

void* countedMalloc(std::size_t n) noexcept {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Counting replacements for the global allocator (the pattern
// bench_simcore_perf uses); the counter is only touched while tracing. The
// nothrow forms are replaced too, so every form frees what it allocated.
void* operator new(std::size_t n) {
  if (void* p = countedMalloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedMalloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedMalloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void setAllocCounting(bool on) {
  g_countAllocs.store(on, std::memory_order_relaxed);
}

std::uint64_t allocCount() {
  return g_heapAllocs.load(std::memory_order_relaxed);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name, int parent, WallClock::time_point at) {
  if (!enabled_) return -1;
  const double s = std::chrono::duration<double>(at - g_processStart).count();
  spans_.push_back(SpanRecord{name, s, s, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id, WallClock::time_point at) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end =
      std::chrono::duration<double>(at - g_processStart).count();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) sum += s.end - s.start;
  }
  return sum;
}

bool Tracer::write(const std::string& path, const std::string& context) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"context\": " << context << ",\n \"spans\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d}%s\n",
                  s.name, s.start, s.end, s.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << " ]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
