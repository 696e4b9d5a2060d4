#include "pdes/pdes.hpp"

// detlint:allow-file(thread-order) the pool below is barrier-structured scaffolding: workers only pick WHICH core runs a partition's window, window contents are fixed by the EOT bounds before any worker moves, and pdes_test pins digests byte-identical across worker counts

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/hotpath.hpp"
#include "util/threadbudget.hpp"

namespace msim::pdes {

namespace {

// Saturating ceiling used for "no bound": far above any reachable
// simulated instant, low enough that adding a lookahead cannot overflow.
constexpr std::int64_t kInfNs = std::numeric_limits<std::int64_t>::max() / 4;

// splitmix64: decorrelates per-partition RNG streams from (seed, id) so
// partitions never share a stream even under adversarial seed choices.
std::uint64_t partitionSeed(std::uint64_t seed, std::uint32_t id) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (id + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

[[nodiscard]] std::int64_t clampInf(std::int64_t ns) {
  return ns > kInfNs ? kInfNs : ns;
}

// Cold contract-violation exit for Partition::send: formats into a stack
// buffer so the hot send() body has no allocation anywhere — not even on
// its throw edges (the logic_error copy happens only when the run is
// already dead, inside the exception machinery detlint doesn't see).
[[noreturn]] void throwSendViolation(const char* reason, std::uint32_t src,
                                     std::uint32_t dst, std::int64_t recvNs,
                                     std::int64_t boundNs) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pdes: send on link %u -> %u %s (recv %lldns, bound %lldns)",
                src, dst, reason, static_cast<long long>(recvNs),
                static_cast<long long>(boundNs));
  throw std::logic_error(buf);
}

}  // namespace

// ---------------------------------------------------------------- Partition

Partition::Partition(Engine& engine, std::uint32_t id, std::uint64_t seed)
    : engine_{engine},
      id_{id},
      sim_{std::make_unique<Simulator>(partitionSeed(seed, id))} {}

MSIM_HOT void Partition::send(std::uint32_t dst, TimePoint recvTime,
                              UniqueFunction fn) {
  const std::int64_t lookahead = engine_.lookaheadNs(id_, dst);
  if (lookahead < 0) {
    throwSendViolation("has no declared channel", id_, dst,
                       recvTime.toNanos(), -1);
  }
  const std::int64_t recvNs = recvTime.toNanos();
  const std::int64_t nowNs = sim_->now().toNanos();
  if (recvNs < nowNs + lookahead) {
    throwSendViolation("violates its lookahead contract", id_, dst, recvNs,
                       nowNs + lookahead);
  }
  const std::int64_t promiseNs =
      engine_.promiseNs_[static_cast<std::size_t>(id_) *
                             engine_.partitions_.size() +
                         dst];
  if (nowNs < promiseNs) {
    throwSendViolation(
        "breaks its promiseNoSendBefore floor — the neighbor's window may "
        "already have run past this instant",
        id_, dst, recvNs, promiseNs);
  }
  ChannelMessage m;
  m.dst = dst;
  m.recvTimeNs = recvNs;
  m.src = id_;
  m.srcSeq = sendSeq_++;
  m.fn = std::move(fn);
  outbox_.push_back(std::move(m));
}

void Partition::promiseNoSendBefore(std::uint32_t dst, TimePoint earliest) {
  engine_.notePromise(id_, dst, earliest);
}

// ------------------------------------------------------------------- Engine

namespace {

// The worker pool behind run()'s rounds and forEachPartition(). It sizes
// itself the one way both callers need: a pinned thread count, or a lease
// on the process ThreadBudget, never more workers than partitions. Workers
// park on a condition variable between jobs; each job they drain a shared
// atomic partition index, so load-balancing is dynamic (which worker runs
// which partition is scheduler-dependent) while results are not (every
// partition's job is fixed before the pool is released). The mutex/condvar
// pair is the barrier on both edges, and the index hand-out is an
// acquire/release chain headed by the job's release store, so every write
// made before a job happens-before any worker's read of it and every job's
// writes happen-before forEach() returns — TSan-clean by construction.
class Pool {
 public:
  using Job = std::function<void(std::uint32_t)>;

  Pool(unsigned pinned, std::uint32_t partitions)
      : lease_{ThreadBudget::process(), pinned > 0 ? 0 : partitions - 1},
        count_{partitions},
        workers_{std::clamp(pinned > 0 ? pinned : lease_.workers(), 1u,
                            partitions)},
        errors_(partitions) {
    threads_.reserve(workers_ - 1);
    for (unsigned t = 1; t < workers_; ++t) {
      threads_.emplace_back([this] { workerLoop(); });
    }
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Runs job(i) for every partition index i, across the pool plus the
  /// calling thread, and returns once all are done: the exception the job
  /// threw for the lowest index, or null when none threw.
  std::exception_ptr forEach(const Job& job) {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      job_ = &job;
      pending_ = count_;
      ++generation_;
      next_.store(0, std::memory_order_release);
    }
    cv_.notify_all();
    drain();
    {
      std::unique_lock<std::mutex> lock{mu_};
      doneCv_.wait(lock, [this] { return pending_ == 0; });
    }
    std::exception_ptr first;
    for (std::exception_ptr& e : errors_) {
      if (e && !first) first = e;
      e = nullptr;
    }
    return first;
  }

 private:
  void drain() {
    std::uint32_t done = 0;
    for (;;) {
      const std::uint32_t i = next_.fetch_add(1, std::memory_order_acquire);
      if (i >= count_) break;
      try {
        (*job_)(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      ++done;
    }
    if (done == 0) return;
    const std::lock_guard<std::mutex> lock{mu_};
    pending_ -= done;
    if (pending_ == 0) doneCv_.notify_one();
  }

  void workerLoop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock{mu_};
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      drain();
    }
  }

  ThreadBudget::Lease lease_;
  std::uint32_t count_;
  unsigned workers_;
  std::vector<std::exception_ptr> errors_;  // per partition, current job
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  const Job* job_{nullptr};
  std::uint64_t generation_{0};
  std::uint32_t pending_{0};
  bool stop_{false};
  std::atomic<std::uint32_t> next_{0};
};

}  // namespace

Engine::Engine(std::uint32_t partitions, std::uint64_t seed, EngineConfig cfg)
    : cfg_{cfg} {
  if (partitions == 0) {
    throw std::invalid_argument("pdes: need at least one partition");
  }
  partitions_.reserve(partitions);
  for (std::uint32_t i = 0; i < partitions; ++i) {
    partitions_.emplace_back(new Partition{*this, i, seed});
    if (cfg_.audit) partitions_.back()->sim().enableAudit(cfg_.recordTrail);
  }
  lookaheadNs_.assign(static_cast<std::size_t>(partitions) * partitions, -1);
  promiseNs_.assign(static_cast<std::size_t>(partitions) * partitions, 0);
  promisedAny_.assign(partitions, 0);
  eot_.assign(partitions, kInfNs);
  boundNs_.assign(partitions, kInfNs);
  eotBase_.assign(partitions, kInfNs);
  boundBaseNs_.assign(partitions, kInfNs);
  idleRounds_.assign(partitions, 0);
  injectionDigest_.assign(partitions, 0);
}

Engine::~Engine() = default;

void Engine::link(std::uint32_t src, std::uint32_t dst, Duration lookahead) {
  if (src >= partitionCount() || dst >= partitionCount() || src == dst) {
    throw std::invalid_argument("pdes: bad link endpoints");
  }
  const std::int64_t ns = lookahead.toNanos();
  if (ns <= 0) {
    throw std::invalid_argument(
        "pdes: link lookahead must be strictly positive — a zero-lookahead "
        "channel deadlocks conservative synchronization");
  }
  std::int64_t& cell =
      lookaheadNs_[static_cast<std::size_t>(src) * partitions_.size() + dst];
  if (cell < 0) links_.push_back(Link{src, dst, ns});
  for (Link& l : links_) {
    if (l.src == src && l.dst == dst) l.lookaheadNs = ns;
  }
  cell = ns;
}

Duration Engine::lookahead(std::uint32_t src, std::uint32_t dst) const {
  return Duration::nanos(lookaheadNs(src, dst));
}

void Engine::notePromise(std::uint32_t src, std::uint32_t dst,
                         TimePoint earliest) {
  if (lookaheadNs(src, dst) < 0) {
    throw std::logic_error("pdes: promise on undeclared link " +
                           std::to_string(src) + " -> " + std::to_string(dst));
  }
  std::int64_t& cell =
      promiseNs_[static_cast<std::size_t>(src) * partitions_.size() + dst];
  const std::int64_t ns = clampInf(earliest.toNanos());
  if (ns < cell) {
    // A promise is a floor the receiver may already have scheduled past;
    // weakening it retroactively would corrupt windows that are already
    // history. Catch the logic error loudly instead.
    throw std::logic_error(
        "pdes: retrograde promise on link " + std::to_string(src) + " -> " +
        std::to_string(dst) + " (" + std::to_string(ns) +
        "ns below the earlier floor " + std::to_string(cell) + "ns)");
  }
  cell = ns;
  // Per-source flag, written only by the owning partition's thread and read
  // between rounds (the barrier orders it) — a single shared bool here
  // would be a cross-partition data race.
  promisedAny_[src] = 1;
}

MSIM_HOT std::size_t Engine::deliverPending() {
  inboxScratch_.clear();
  for (auto& p : partitions_) {
    for (ChannelMessage& m : p->outbox_) inboxScratch_.push_back(std::move(m));
    p->outbox_.clear();
  }
  if (inboxScratch_.empty()) return 0;
  // Canonical merge order: every worker interleaving produces the same
  // injection sequence, hence the same destination-side schedule stamps and
  // the same same-instant tie-breaks.
  std::sort(inboxScratch_.begin(), inboxScratch_.end(),
            [](const ChannelMessage& a, const ChannelMessage& b) {
              if (a.dst != b.dst) return a.dst < b.dst;
              if (a.recvTimeNs != b.recvTimeNs) {
                return a.recvTimeNs < b.recvTimeNs;
              }
              if (a.src != b.src) return a.src < b.src;
              return a.srcSeq < b.srcSeq;
            });
  for (ChannelMessage& m : inboxScratch_) {
    Simulator& dst = partitions_[m.dst]->sim();
    if (m.recvTimeNs < dst.now().toNanos()) {
      // Unreachable while the bounds below are correct; a silent clamp here
      // would mask a synchronization bug as a subtle timing shift.
      throw std::logic_error("pdes: message arrived in its target's past");
    }
    if (cfg_.audit) {
      // Fold into the per-destination engine-side chain rather than
      // auditNote-ing into the sim's interleaved event chain: the fold
      // position is then canonical delivery order, not window structure,
      // so coalesced and uncoalesced runs stay byte-identical.
      std::uint64_t& chain = injectionDigest_[m.dst];
      chain = audit::combine(chain,
                             audit::combine(audit::combine(m.src, m.srcSeq),
                                            static_cast<std::uint64_t>(m.recvTimeNs)));
    }
    // Canonical (src, srcSeq) stamp: the injected event's audit identity is
    // a pure function of who sent it, never of which barrier injected it.
    dst.scheduleExternal(TimePoint::fromNanos(m.recvTimeNs),
                         audit::combine(m.src, m.srcSeq), std::move(m.fn));
  }
  const std::size_t delivered = inboxScratch_.size();
  inboxScratch_.clear();
  return delivered;
}

void Engine::relaxBounds(std::vector<std::int64_t>& eot,
                         std::vector<std::int64_t>& bound,
                         std::int64_t limitNs, bool usePromises) {
  // EOT fixed point: E_j = min(localNext_j, min over s->j (C_sj + L_sj))
  // where the per-channel output bound C_sj is E_s, raised to the link's
  // promised send floor when promises are honored: C_sj = max(E_s, P_sj).
  // Seed with local next-event lower bounds, then relax over the link
  // table until stable — Bellman-Ford on a graph of |partitions| nodes,
  // where positive lookaheads guarantee convergence (each pass can only
  // lower an E_j toward the global minimum plus accumulated lookaheads).
  // Promises only ever raise a channel's bound above the plain fixed
  // point, so the progress argument is untouched.
  const std::uint32_t count = partitionCount();
  for (std::uint32_t i = 0; i < count; ++i) {
    eot[i] = clampInf(partitions_[i]->sim().nextEventTimeLowerBound().toNanos());
  }
  const std::size_t stride = partitions_.size();
  auto channelEot = [&](const Link& l) {
    std::int64_t e = eot[l.src];
    if (usePromises) {
      const std::int64_t floor =
          promiseNs_[static_cast<std::size_t>(l.src) * stride + l.dst];
      if (floor > e) e = floor;
    }
    return e;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const Link& l : links_) {
      const std::int64_t viaLink = clampInf(channelEot(l) + l.lookaheadNs);
      if (viaLink < eot[l.dst]) {
        eot[l.dst] = viaLink;
        changed = true;
      }
    }
  }
  // bound_i: nothing can arrive at i before any incoming channel's output
  // bound plus that link's lookahead, so i may execute everything strictly
  // earlier. Partitions with no incoming links are bounded by the run
  // limit alone.
  for (std::uint32_t i = 0; i < count; ++i) bound[i] = kInfNs;
  for (const Link& l : links_) {
    bound[l.dst] = std::min(bound[l.dst], clampInf(channelEot(l) + l.lookaheadNs));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    // Execute events strictly below the bound, never past the run limit:
    // run(t) is inclusive of t, hence the -1.
    bound[i] = std::min(bound[i] - 1, limitNs);
  }
}

std::uint64_t Engine::computeBounds(std::int64_t limitNs) {
  bool promisesActive = false;
  if (cfg_.adaptiveWindows) {
    for (const char flagged : promisedAny_) {
      if (flagged != 0) {
        promisesActive = true;
        break;
      }
    }
  }
  relaxBounds(eot_, boundNs_, limitNs, promisesActive);
  if (!promisesActive) return 0;
  // Promise-free comparison pass: how many partitions did a promise let
  // run past the plain conservative horizon this round? This is the
  // coalescing win the counters expose; it costs a second relaxation only
  // while promises are active, and active promises shrink the round count
  // far more than the pass costs.
  relaxBounds(eotBase_, boundBaseNs_, limitNs, false);
  std::uint64_t coalesced = 0;
  const std::uint32_t count = partitionCount();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (boundNs_[i] > boundBaseNs_[i]) ++coalesced;
  }
  return coalesced;
}

RunReport Engine::run(TimePoint limit) {
  const std::int64_t limitNs = limit.toNanos();
  const std::uint32_t count = partitionCount();
  Pool pool{cfg_.threads, count};
  const Pool::Job runWindow = [this](std::uint32_t i) {
    Partition& p = *partitions_[i];
    p.executed_ = p.sim().run(TimePoint::fromNanos(boundNs_[i]));
  };
  RunReport report;
  report.workers = pool.workers();

  idleRounds_.assign(count, 0);
  std::uint64_t stalledRounds = 0;
  for (;;) {
    const std::size_t delivered = deliverPending();
    report.messagesDelivered += delivered;
    const std::uint64_t coalesced = computeBounds(limitNs);
    bool done = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      const TimePoint lb = partitions_[i]->sim().nextEventTimeLowerBound();
      if (lb.toNanos() <= limitNs) {
        done = false;
        break;
      }
    }
    if (done) break;
    report.coalescedWindows += coalesced;
    if (const std::exception_ptr failure = pool.forEach(runWindow)) {
      std::rethrow_exception(failure);
    }
    std::uint64_t executed = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t ran = partitions_[i]->executed_;
      if (ran == 0) ++idleRounds_[i];
      executed += ran;
    }
    report.eventsExecuted += executed;
    ++report.rounds;
    // Lookahead positivity guarantees progress (see computeBounds); if that
    // invariant is ever broken this trips instead of spinning forever.
    stalledRounds = executed == 0 && delivered == 0 ? stalledRounds + 1 : 0;
    if (stalledRounds > 100000) {
      throw std::runtime_error("pdes: synchronization stalled — no events, "
                               "no messages, no progress");
    }
  }

  // Align every clock exactly at the limit (run() with nothing due just
  // advances time), so repeated run() calls and post-run probes see one
  // consistent instant.
  for (auto& p : partitions_) p->sim().run(limit);

  if (report.rounds > 0) {
    report.idleFraction.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      report.idleFraction.push_back(static_cast<double>(idleRounds_[i]) /
                                    static_cast<double>(report.rounds));
    }
  }
  return report;
}

void Engine::forEachPartition(const std::function<void(Partition&)>& fn) {
  std::exception_ptr failure;
  {
    Pool pool{cfg_.threads, partitionCount()};
    failure = pool.forEach([&](std::uint32_t i) { fn(*partitions_[i]); });
  }  // every worker has joined
  if (failure) std::rethrow_exception(failure);
}

audit::RunFingerprint Engine::auditFingerprint() const {
  audit::RunFingerprint fp;
  if (!cfg_.audit) return fp;
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const Partition& p = *partitions_[i];
    // A partition's identity is its sim's event chain plus the canonical
    // injection chain of everything delivered to it.
    const std::uint64_t d =
        audit::combine(p.sim().auditDigest(), injectionDigest_[i]);
    digest = audit::combine(digest, d);
    fp.trail.push_back(d);
    fp.events += p.sim().executedEvents();
  }
  fp.digest = digest;
  return fp;
}

std::uint64_t Engine::auditDigest() const { return auditFingerprint().digest; }

}  // namespace msim::pdes
