// The runtime half of the determinism verification layer: FNV digest
// chaining, the Simulator audit hook, RNG draw accounting, and the
// cross-thread-count sweep verifier. The headline tests run full testbed and
// cluster scenarios audited under MSIM_THREADS-style worker counts 1, 2, and
// 8 and require byte-identical fingerprints; the sensitivity tests show the
// digest actually moves when event order or content changes (so an
// unordered-iteration bug cannot hide).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/sweep.hpp"
#include "avatar/codec.hpp"
#include "cluster/manager.hpp"
#include "core/seedsweep.hpp"
#include "core/testbed.hpp"

namespace msim {
namespace {

using audit::Digest;
using audit::RunFingerprint;

// ------------------------------------------------------------------ digest

TEST(DigestTest, ChainIsOrderSensitive) {
  Digest a;
  a.mix(std::uint64_t{1});
  a.mix(std::uint64_t{2});
  Digest b;
  b.mix(std::uint64_t{2});
  b.mix(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());

  Digest c;
  c.mix(std::uint64_t{1});
  c.mix(std::uint64_t{2});
  EXPECT_EQ(a.value(), c.value());
}

TEST(DigestTest, StringAndResetBehave) {
  Digest a;
  a.mix("pose-update");
  const std::uint64_t first = a.value();
  a.reset();
  a.mix("pose-update");
  EXPECT_EQ(a.value(), first);
  a.mix("x");
  EXPECT_NE(a.value(), first);
}

TEST(DigestTest, FirstDivergenceFindsTheExactIndex) {
  const audit::Trail a{10, 20, 30, 40};
  audit::Trail b = a;
  EXPECT_EQ(audit::firstDivergence(a, b), audit::kNoDivergence);
  b[2] = 31;
  EXPECT_EQ(audit::firstDivergence(a, b), 2u);
  // Length mismatch with identical prefix: diverges at the shorter length.
  const audit::Trail c{10, 20};
  EXPECT_EQ(audit::firstDivergence(a, c), 2u);
  // Empty trails carry no per-event information.
  EXPECT_EQ(audit::firstDivergence({}, {}), audit::kNoDivergence);
}

// ----------------------------------------------------------- auditor hook

TEST(AuditorTest, TrailRecordsOneChainValuePerEvent) {
  audit::EventAuditor auditor{/*recordTrail=*/true};
  auditor.onEvent(1000, 1);
  auditor.onEvent(2000, 2);
  auditor.onEvent(2000, 3);
  EXPECT_EQ(auditor.eventCount(), 3u);
  ASSERT_EQ(auditor.trail().size(), 3u);
  EXPECT_EQ(auditor.trail().back(), auditor.digest());
  // The chain must distinguish same-time events by their audit stamps.
  audit::EventAuditor other{true};
  other.onEvent(1000, 1);
  other.onEvent(2000, 2);
  other.onEvent(2000, 4);  // same time, different stamp
  EXPECT_NE(other.digest(), auditor.digest());
}

TEST(SimulatorAuditTest, SameSeedSameDigestAndDisabledIsZero) {
  auto run = [](std::uint64_t seed, int extraEvents) {
    Simulator sim{seed};
    sim.enableAudit();
    for (int i = 0; i < 10 + extraEvents; ++i) {
      sim.scheduleAfter(Duration::millis(10 * (i + 1)), [&sim] {
        sim.auditNote(sim.rng().uniformInt(0, 1'000'000));
      });
    }
    sim.runFor(Duration::seconds(1));
    return sim.auditDigest();
  };
  EXPECT_EQ(run(7, 0), run(7, 0));
  EXPECT_NE(run(7, 0), run(8, 0));
  EXPECT_NE(run(7, 0), run(7, 1));  // one extra event moves the digest

  Simulator sim{7};
  EXPECT_FALSE(sim.auditEnabled());
  EXPECT_EQ(sim.auditDigest(), 0u);
}

TEST(SimulatorAuditTest, DigestCatchesIterationOrderChanges) {
  // The failure mode detlint exists to prevent, reproduced in miniature: two
  // runs identical except for the order a container is visited in. The
  // digest must separate them — this is what makes the audit layer able to
  // catch an unordered_map range-for that detlint missed.
  auto run = [](bool reversed) {
    Simulator sim{1};
    sim.enableAudit();
    const std::vector<std::uint64_t> ids{11, 22, 33};
    sim.scheduleAfter(Duration::millis(1), [&] {
      if (reversed) {
        for (auto it = ids.rbegin(); it != ids.rend(); ++it) sim.auditNote(*it);
      } else {
        for (const std::uint64_t id : ids) sim.auditNote(id);
      }
    });
    sim.runFor(Duration::millis(10));
    return sim.auditDigest();
  };
  EXPECT_NE(run(false), run(true));
}

TEST(SimulatorAuditTest, RngDrawCountersFoldIntoTheDigest) {
  Rng rng{42};
  EXPECT_EQ(rng.draws(), 0u);
  (void)rng.uniform(0.0, 1.0);
  (void)rng.uniformInt(1, 6);
  (void)rng.exponential(2.0);
  EXPECT_EQ(rng.draws(), 3u);
  rng.reseed(42);
  EXPECT_EQ(rng.draws(), 0u);

  // Two audited runs with identical event streams but different RNG use must
  // differ: the draw counter is part of auditDigest().
  auto run = [](bool extraDraw) {
    Simulator sim{5};
    sim.enableAudit();
    sim.scheduleAfter(Duration::millis(1), [&] {
      (void)sim.rng().uniform(0.0, 1.0);
      if (extraDraw) (void)sim.rng().uniform(0.0, 1.0);
    });
    sim.runFor(Duration::millis(10));
    return sim.auditDigest();
  };
  EXPECT_NE(run(false), run(true));
}

// ------------------------------------------- audited testbed seed sweep

/// The full-stack scenario from determinism_test, audited: launch, join,
/// avatar/voice streams, control downloads — fingerprinted by the kernel
/// hook rather than by hand-rolled trace hashing.
RunFingerprint auditedTestbedRun(std::uint64_t seed) {
  Testbed bed{seed};
  bed.sim().enableAudit(/*recordTrail=*/true);
  bed.deploy(platforms::vrchat());
  TestUserConfig cfg;
  cfg.muted = true;
  for (int i = 0; i < 3; ++i) bed.addUser(cfg);

  Simulator& sim = bed.sim();
  sim.schedule(TimePoint::epoch(), [&] {
    for (auto& u : bed.users()) u->client->launch();
  });
  for (int i = 0; i < 3; ++i) {
    sim.schedule(TimePoint::epoch() + Duration::seconds(2 + i),
                 [&, i] { bed.user(i).client->joinEvent(); });
  }
  sim.runFor(Duration::seconds(6));
  return sim.auditFingerprint();
}

TEST(AuditSweepTest, TestbedDigestsIdenticalAcrossThreadCounts) {
  const auto seeds = defaultSeeds(3);
  for (const unsigned threads : {2u, 8u}) {
    const auto report =
        audit::verifyThreadInvariance(seeds, auditedTestbedRun, 1, threads);
    EXPECT_TRUE(report.identical) << report.describe();
  }
}

TEST(AuditSweepTest, FingerprintIsNotDegenerate) {
  const auto a = auditedTestbedRun(1000);
  const auto b = auditedTestbedRun(8919);
  EXPECT_GT(a.events, 100u);  // the scenario genuinely dispatches events
  EXPECT_EQ(a.trail.size(), a.events);
  EXPECT_FALSE(a == b);  // different seeds produce different fingerprints
}

// --------------------------------------------- audited cluster seed sweep

RunFingerprint auditedClusterRun(std::uint64_t seed) {
  Simulator sim{seed};
  sim.enableAudit(/*recordTrail=*/true);
  cluster::ClusterConfig cfg;
  cfg.initialInstances = 3;
  cfg.capacity.cpuPerForwardUs = 200.0;
  cfg.capacity.cores = 1.0;
  DataSpec spec;
  spec.provisioningFactor = 1.0;
  cluster::InstanceManager mgr{sim, spec, cfg};

  mgr.setDeliverySink([&sim](std::uint32_t inst, std::uint64_t toUser,
                             const Message& m) {
    sim.auditNote((static_cast<std::uint64_t>(inst) << 48) ^ toUser);
    sim.auditNote(m.sequence);
  });

  const int users = 10;
  for (std::uint64_t u = 1; u <= users; ++u) {
    mgr.joinUser(u);
  }
  std::vector<std::uint64_t> seqs(users + 1, 0);
  std::vector<std::unique_ptr<PeriodicTask>> senders;
  for (std::uint64_t u = 1; u <= users; ++u) {
    senders.push_back(std::make_unique<PeriodicTask>(
        sim, Duration::millis(100), [&mgr, &seqs, u] {
          if (RelayRoom* room = mgr.roomOf(u)) {
            Message m;
            m.kind = avatarmsg::kPoseUpdate;
            m.size = ByteSize::bytes(220);
            m.senderId = u;
            m.sequence = ++seqs[u];
            room->broadcast(u, m);
          }
        }));
  }
  sim.schedule(TimePoint::epoch() + Duration::seconds(2),
               [&mgr] { mgr.drain(2); });
  sim.runFor(Duration::seconds(4));
  return sim.auditFingerprint();
}

TEST(AuditSweepTest, ClusterDigestsIdenticalAcrossThreadCounts) {
  const auto seeds = defaultSeeds(3);
  for (const unsigned threads : {2u, 8u}) {
    const auto report =
        audit::verifyThreadInvariance(seeds, auditedClusterRun, 1, threads);
    EXPECT_TRUE(report.identical) << report.describe();
  }
}

TEST(AuditSweepTest, DivergenceReportNamesSeedAndEvent) {
  // Feed the verifier a scenario that cannot diverge, then check the report
  // plumbing directly on synthetic fingerprints (a real divergence would be
  // a kernel bug, which other tests exist to catch).
  const audit::Trail a{1, 2, 3, 4};
  const audit::Trail b{1, 2, 9, 4};
  EXPECT_EQ(audit::firstDivergence(a, b), 2u);

  audit::ThreadInvarianceReport report;
  report.identical = false;
  report.threadsA = 1;
  report.threadsB = 8;
  report.seedIndex = 1;
  report.seed = 8919;
  report.firstEventIndex = 2;
  report.digestA = 0xabc;
  report.digestB = 0xdef;
  const std::string text = report.describe();
  EXPECT_NE(text.find("8919"), std::string::npos);
  EXPECT_NE(text.find("event 2"), std::string::npos);
  EXPECT_NE(text.find("8 threads"), std::string::npos);
}

}  // namespace
}  // namespace msim
