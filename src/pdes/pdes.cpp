#include "pdes/pdes.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/hotpath.hpp"
#include "util/workerpool.hpp"

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

Engine::Engine(std::uint32_t partitions, std::uint64_t seed, EngineConfig cfg)
    : cfg_{cfg} {
  if (partitions == 0) {
    throw std::invalid_argument("pdes: need at least one partition");
  }
  partitions_.reserve(partitions);
  for (std::uint32_t i = 0; i < partitions; ++i) {
    partitions_.emplace_back(new Partition{*this, i, seed});
    if (cfg_.audit) partitions_.back()->sim().enableAudit();
  }
  lookaheadNs_.assign(static_cast<std::size_t>(partitions) * partitions, -1);
  promiseNs_.assign(static_cast<std::size_t>(partitions) * partitions, 0);
  promisedAny_.assign(partitions, 0);
  eot_.assign(partitions, kInfNs);
  boundNs_.assign(partitions, kInfNs);
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

std::uint64_t Engine::computeBounds(std::int64_t limitNs) {
  bool usePromises = false;
  if (cfg_.adaptiveWindows) {
    for (const char flagged : promisedAny_) {
      if (flagged != 0) {
        usePromises = true;
        break;
      }
    }
  }
  // EOT fixed point: E_j = min(localNext_j, min over s->j (C_sj + L_sj))
  // where the per-channel output bound C_sj is E_s, raised to the link's
  // promised send floor when promises are honored: C_sj = max(E_s, P_sj).
  // Seed with local next-event lower bounds, then relax over the link
  // table until stable — Bellman-Ford on a graph of |partitions| nodes,
  // where positive lookaheads guarantee convergence (each pass can only
  // lower an E_j toward the global minimum plus accumulated lookaheads).
  // The fixed point does not depend on the order links are relaxed in.
  // Promises only ever raise a channel's bound above the plain fixed
  // point, so the progress argument is untouched.
  const std::uint32_t count = partitionCount();
  for (std::uint32_t i = 0; i < count; ++i) {
    eot_[i] = clampInf(partitions_[i]->sim().nextEventTimeLowerBound().toNanos());
  }
  const std::size_t stride = partitions_.size();
  auto channelEot = [&](const Link& l) {
    std::int64_t e = eot_[l.src];
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
      if (viaLink < eot_[l.dst]) {
        eot_[l.dst] = viaLink;
        changed = true;
      }
    }
  }
  // bound_i: nothing can arrive at i before any incoming channel's output
  // bound plus that link's lookahead, so i may execute everything strictly
  // earlier, never past the run limit (run(t) is inclusive of t, hence the
  // -1). Partitions with no incoming links are bounded by the run limit
  // alone. A window counts as coalesced when a promise floor set its bound:
  // it beats min over s->i of (E_s + L_si) over the same E values.
  const auto exclusive = [limitNs](std::int64_t ns) {
    return std::min(ns - 1, limitNs);
  };
  for (std::uint32_t i = 0; i < count; ++i) boundNs_[i] = exclusive(kInfNs);
  std::uint64_t coalesced = 0;
  for (std::size_t k = 0; k < links_.size();) {
    const std::uint32_t dst = links_[k].dst;
    std::int64_t bound = kInfNs;
    std::int64_t plain = kInfNs;
    for (; k < links_.size() && links_[k].dst == dst; ++k) {
      const Link& l = links_[k];
      bound = std::min(bound, clampInf(channelEot(l) + l.lookaheadNs));
      plain = std::min(plain, clampInf(eot_[l.src] + l.lookaheadNs));
    }
    boundNs_[dst] = exclusive(bound);
    if (boundNs_[dst] > exclusive(plain)) ++coalesced;
  }
  return coalesced;
}

RunReport Engine::run(TimePoint limit) {
  const std::int64_t limitNs = limit.toNanos();
  const std::uint32_t count = partitionCount();
  WorkerPool pool{cfg_.threads, count};
  const WorkerPool::Job runWindow = [this](std::size_t i) {
    Partition& p = *partitions_[i];
    p.executed_ = p.sim().run(TimePoint::fromNanos(boundNs_[i]));
  };
  RunReport report;
  report.workers = pool.workers();
  // Sorted by (dst, src), the link table gives computeBounds each
  // partition's incoming links as one contiguous run.
  std::sort(links_.begin(), links_.end(), [](const Link& a, const Link& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  });

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
  WorkerPool::run(cfg_.threads, partitionCount(),
                  [&](std::size_t i) { fn(*partitions_[i]); });
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
