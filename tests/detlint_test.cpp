// Unit tests for detlint, the determinism static-analysis pass. These scan
// in-memory fixture snippets so the expected findings are explicit; the
// shipped tree itself is gated by the DetlintTreeClean CTest (which runs
// tools/run_detlint.sh over src/, tools/, bench/).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "detlint.hpp"

namespace {

using detlint::Finding;
using detlint::Rule;

std::vector<Finding> scan(std::string_view src,
                          const detlint::Options& opts = {}) {
  return detlint::scanSource(src, "fixture.cpp", opts);
}

bool hasFinding(const std::vector<Finding>& fs, Rule rule, int line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// ----------------------------------------------------------- R1 unordered

TEST(DetlintR1, FlagsUnorderedMapAndSet) {
  const auto fs = scan(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "std::unordered_set<long> s;\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(hasFinding(fs, Rule::UnorderedIter, 2));
  EXPECT_TRUE(hasFinding(fs, Rule::UnorderedIter, 3));
}

TEST(DetlintR1, IncludeLineAloneIsNotAFinding) {
  EXPECT_TRUE(scan("#include <unordered_map>\n#include <ctime>\n").empty());
}

TEST(DetlintR1, NamesInsideStringsAndCommentsAreIgnored) {
  const auto fs = scan(
      "const char* kDoc = \"prefer unordered_map here\";\n"
      "// unordered_map is mentioned but not used\n"
      "/* std::unordered_set<int> s; */\n"
      "char c = '\\\"'; int unordered_map_count = 0;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR1, OrderedContainersAreClean) {
  EXPECT_TRUE(
      scan("std::map<int, int> m;\nstd::set<long> s;\nmsim::FlatMap64<int> f;\n")
          .empty());
}

TEST(DetlintR1, TimerWheelLaneIdiomsAreClean) {
  // Representative of the simulator's event-queue idioms: occupancy
  // bitmaps, shift- and bit-width-derived indices, and pooled block chains.
  // None of it touches iteration-order-sensitive containers, ambient time,
  // or pointer keys, so detlint must stay quiet on the style the hot path
  // is written in.
  const auto fs = scan(
      "std::array<std::uint64_t, 16> bits{};\n"
      "std::size_t b = std::bit_width(std::uint64_t(timeNs ^ last));\n"
      "std::uint32_t lane = (timeNs >> shift) & 255u;\n"
      "bits[lane >> 6] |= 1ull << (lane & 63u);\n"
      "int gap = std::countr_zero(word >> bit);\n"
      "std::vector<Lane> lanes(levels * slots);\n"
      "for (std::uint32_t b = lanes[i].head; b != kNoBlock; b = next(b)) {}\n"
      "std::sort(run.begin(), run.end(), byTimeSeq);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR1, InterestGridSoAIdiomsAreClean) {
  // Representative of the interest layer's hot path: structure-of-arrays
  // columns indexed by dense slot, packed integer cell keys, row-major cell
  // scans, and sorted slot lists inside each cell. The visit order is a
  // pure function of positions and slot numbers — detlint must not mistake
  // the style for order-sensitive iteration.
  const auto fs = scan(
      "std::vector<double> posX_, posY_;\n"
      "std::vector<std::uint64_t> ids_;\n"
      "std::uint64_t key = (ux << 32) | uy;\n"
      "for (std::int64_t qy = qy0; qy <= qy1; ++qy) {\n"
      "  for (std::int64_t qx = qx0; qx <= qx1; ++qx) {\n"
      "    const std::uint32_t* cell = cells.find(packCell(qx, qy));\n"
      "  }\n"
      "}\n"
      "std::lower_bound(cell.slots.begin(), cell.slots.end(), slot);\n"
      "msim::FlatMap64<std::uint32_t> cells;\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------- R2 wall clock

TEST(DetlintR2, FlagsAmbientTimeAndEntropy) {
  const auto fs = scan(
      "std::random_device rd;\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "auto w = std::chrono::system_clock::now();\n"
      "long x = time(nullptr);\n"
      "int r = rand();\n"
      "std::srand(42);\n");
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 1));
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 2));
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 3));
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 4));
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 5));
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 6));
}

TEST(DetlintR2, MemberAndQualifiedLookalikesAreClean) {
  const auto fs = scan(
      "auto now = sim.time();\n"          // member call
      "auto t = bed->clock();\n"          // arrow member call
      "auto d = Duration::time(3);\n"     // non-std qualifier
      "int time = 3; int y = time + 1;\n"  // variable named time, no call
      "double r = rng.uniform(0.0, 1.0);\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR2, AllowlistedShimIsExempt) {
  detlint::Options opts;
  opts.wallClockAllowlist.push_back("fixture.cpp");
  EXPECT_TRUE(scan("std::random_device rd;\nint r = rand();\n", opts).empty());
}

// --------------------------------------------------------- R3 pointer key

TEST(DetlintR3, FlagsPointerKeyedContainers) {
  const auto fs = scan(
      "std::map<Room*, int> byRoom;\n"
      "std::set<const User*> users;\n"
      "std::map<std::shared_ptr<Room>, int> byHandle;\n"
      "std::map<uintptr_t, int> byAddr;\n");
  ASSERT_EQ(fs.size(), 4u);
  for (int line = 1; line <= 4; ++line) {
    EXPECT_TRUE(hasFinding(fs, Rule::PointerKey, line)) << line;
  }
}

TEST(DetlintR3, PointerValuesAndValueKeysAreClean) {
  const auto fs = scan(
      "std::map<std::uint64_t, Room*> rooms;\n"
      "std::map<TcpConnKey, TcpSocket*> conns;\n"
      "std::set<std::uint64_t> ids;\n"
      "bool lt = a < b;\n");  // '<' that is a comparison, not a template
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR3, FlagsPointerKeyedAvatarMaps) {
  // The anti-pattern the interest layer's SoA design exists to forbid:
  // bucketing avatars by object address. Address order varies run to run,
  // so any iteration (fan-out, digesting, cell membership) keyed this way
  // breaks cross-thread digest invariance. The sanctioned shape is a dense
  // slot index into column vectors plus integer cell keys.
  const auto fs = scan(
      "std::map<Avatar*, CellId> cellOf;\n"
      "std::map<const AvatarState*, std::uint32_t> slotOf;\n"
      "std::set<Avatar*> inView;\n");
  ASSERT_EQ(fs.size(), 3u);
  for (int line = 1; line <= 3; ++line) {
    EXPECT_TRUE(hasFinding(fs, Rule::PointerKey, line)) << line;
  }
}

// -------------------------------------------------------- R5 thread order

TEST(DetlintR5, FlagsThisThreadSleeps) {
  const auto fs = scan(
      "std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "std::this_thread::sleep_until(deadline);\n"
      "std::this_thread::yield();\n");
  // One finding per line: this_thread itself is the offender; the qualified
  // sleep_for/sleep_until are not double-reported.
  ASSERT_EQ(fs.size(), 3u);
  for (int line = 1; line <= 3; ++line) {
    EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, line)) << line;
  }
}

TEST(DetlintR5, FlagsBareSleepCalls) {
  const auto fs = scan(
      "sleep_for(backoff);\n"
      "sleep_until(wakeAt);\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, 1));
  EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, 2));
}

TEST(DetlintR5, FlagsStdMutexFamily) {
  const auto fs = scan(
      "std::mutex mu;\n"
      "std::lock_guard<std::mutex> lock{mu};\n"
      "std::shared_mutex rw;\n"
      "std::recursive_timed_mutex rt;\n");
  // Line 2 mentions std::mutex inside the lock_guard template argument, so
  // the mutex type itself is what trips the rule there too.
  ASSERT_EQ(fs.size(), 4u);
  for (int line = 1; line <= 4; ++line) {
    EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, line)) << line;
  }
}

TEST(DetlintR5, FlagsThreadIdBranching) {
  const auto fs = scan(
      "if (worker.get_id() == owner) { fastPath(); }\n"
      "auto id = std::this_thread::get_id();\n");
  // Line 2 reports this_thread once, not this_thread + get_id.
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, 1));
  EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, 2));
}

TEST(DetlintR5, LookalikesAreClean) {
  const auto fs = scan(
      "cv.wait_for(lock, timeout);\n"        // not a host sleep
      "net::mutex m;\n"                      // project-local type
      "MutexStats sleep_forensics;\n"        // substring, not a token
      "// std::mutex is discussed here\n"    // comment
      "const char* doc = \"sleep_for\";\n"   // string literal
      "int mutex = 3;\n");                   // unqualified identifier
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR5, PragmaSuppresses) {
  const auto fs = scan(
      "std::mutex mu;  // detlint:allow(thread-order) guards an "
      "order-independent dedup table\n"
      "// detlint:allow(thread-order) first-error capture; any racing\n"
      "// exception is a valid report.\n"
      "std::lock_guard<std::mutex> lock{mu};\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR5, SuppressionIsRuleScoped) {
  // A thread-order pragma must not hide a wall-clock finding on the line.
  const auto fs = scan(
      "// detlint:allow(thread-order) justified elsewhere\n"
      "std::mutex mu; int r = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, Rule::WallClock);
}

// --------------------------------------------------- pragmas and R4 hygiene

TEST(DetlintPragma, SameLineSuppression) {
  const auto fs = scan(
      "std::unordered_map<int, int> m;  // detlint:allow(unordered-iter) "
      "lookup only, never iterated\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintPragma, CommentAboveSuppressesNextCodeLine) {
  const auto fs = scan(
      "// detlint:allow(unordered-iter) dedup table; never iterated, so\n"
      "// order cannot leak into the simulation.\n"
      "std::unordered_map<int, int> m;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintPragma, SuppressionIsRuleScoped) {
  // An unordered-iter pragma must not hide a wall-clock finding.
  const auto fs = scan(
      "// detlint:allow(unordered-iter) justified elsewhere\n"
      "int r = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, Rule::WallClock);
}

TEST(DetlintPragma, FileScopeCoversWholeFile) {
  const auto fs = scan(
      "// detlint:allow-file(wall-clock) this tool reports real timings\n"
      "int a = rand();\n"
      "long b = time(nullptr);\n"
      "std::unordered_map<int, int> m;\n");
  ASSERT_EQ(fs.size(), 1u);  // the unordered_map is still flagged
  EXPECT_EQ(fs[0].rule, Rule::UnorderedIter);
}

TEST(DetlintPragma, MissingJustificationIsAFinding) {
  const auto fs = scan(
      "std::unordered_map<int, int> m;  // detlint:allow(unordered-iter)\n");
  // The pragma is malformed, so it reports R4 AND fails to suppress R1.
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(hasFinding(fs, Rule::Pragma, 1));
  EXPECT_TRUE(hasFinding(fs, Rule::UnorderedIter, 1));
}

TEST(DetlintPragma, UnknownRuleNameIsAFinding) {
  const auto fs = scan("// detlint:allow(no-such-rule) because reasons\nint x;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, Rule::Pragma);
  EXPECT_NE(fs[0].message.find("no-such-rule"), std::string::npos);
}

// ----------------------------------------------------- baseline + formats

TEST(DetlintBaseline, RoundTripSuppressesExactFindings) {
  const auto fs = scan("std::unordered_map<int, int> m;\nint r = rand();\n");
  ASSERT_EQ(fs.size(), 2u);

  const std::string path = ::testing::TempDir() + "detlint_baseline_test.txt";
  {
    std::ofstream out{path};
    // Baseline only the unordered_map finding.
    out << "# comment line\n" << fs[0].key() << "\n";
  }
  detlint::Baseline baseline;
  ASSERT_TRUE(baseline.load(path));
  EXPECT_EQ(baseline.size(), 1u);
  const auto remaining = detlint::applyBaseline(fs, baseline);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].rule, Rule::WallClock);
  std::remove(path.c_str());
}

TEST(DetlintBaseline, SerializeIsSortedAndCommented) {
  const auto fs = scan("int r = rand();\nstd::unordered_map<int, int> m;\n");
  const std::string text = detlint::Baseline::serialize(fs);
  EXPECT_NE(text.find("# detlint baseline"), std::string::npos);
  EXPECT_NE(text.find("fixture.cpp:1:wall-clock"), std::string::npos);
  EXPECT_NE(text.find("fixture.cpp:2:unordered-iter"), std::string::npos);
}

TEST(DetlintFormat, TextAndJsonAndExitCodes) {
  const auto clean = scan("int x = 1;\n");
  EXPECT_EQ(detlint::exitCodeFor(clean), 0);
  EXPECT_EQ(detlint::formatJson(clean), "[]\n");

  const auto fs = scan("std::unordered_map<int, int> m;\n");
  EXPECT_EQ(detlint::exitCodeFor(fs), 1);
  const std::string text = detlint::formatText(fs);
  EXPECT_NE(text.find("fixture.cpp:1: [unordered-iter]"), std::string::npos);
  const std::string json = detlint::formatJson(fs);
  EXPECT_NE(json.find("\"rule\": \"unordered-iter\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
}

TEST(DetlintLexer, RawStringsAndLineContinuationsAreHandled) {
  const auto fs = scan(
      "const char* q = R\"(std::unordered_map<int,int> decoy; rand();)\";\n"
      "#define LONG_MACRO \\\n"
      "  unordered_map\n"
      "std::unordered_map<int, int> real;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::UnorderedIter, 4));
}

// ------------------------------------------------- session-tier idioms

TEST(DetlintSessionIdioms, WallClockBackoffJitterIsFlagged) {
  // The classic nondeterministic reconnect: jitter derived from ambient
  // time. R2 must catch it in sim-visible code.
  const auto fs = scan(
      "auto seedNow = std::chrono::steady_clock::now();\n"
      "auto jitter = seedNow.time_since_epoch().count() % maxJitterNs;\n");
  EXPECT_TRUE(hasFinding(fs, Rule::WallClock, 1));
}

TEST(DetlintSessionIdioms, SleepBasedBackoffIsFlagged) {
  // Blocking the thread for the backoff delay trades sim time for thread
  // order; R5 must catch it.
  const auto fs = scan("std::this_thread::sleep_for(backoffDelay);\n");
  EXPECT_TRUE(hasFinding(fs, Rule::ThreadOrder, 1));
}

// ------------------------------------------------------ R6 hotpath-alloc

TEST(DetlintR6, DirectAllocationUnderHotRootIsFlagged) {
  const auto fs = scan(
      "MSIM_HOT void forward() {\n"
      "  auto* n = new Node;\n"
      "  use(n);\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, 2));
}

TEST(DetlintR6, AllocationTwoCallsBelowRootIsFlagged) {
  // The acceptance self-test: a `new` two calls below the annotated root
  // must be caught, and the finding must carry the full call chain.
  const auto fs = scan(
      "void leaf() { auto* n = new Node; use(n); }\n"
      "void mid() { leaf(); }\n"
      "// detlint:hotpath per-forward budget is zero allocations\n"
      "void root() { mid(); }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, 1));
  EXPECT_NE(fs[0].message.find("root -> mid -> leaf"), std::string::npos);
  EXPECT_NE(fs[0].message.find("'root'"), std::string::npos);
}

TEST(DetlintR6, UnreachableAllocationIsClean) {
  const auto fs = scan(
      "void coldSetup() { auto* n = new Node; use(n); }\n"
      "// detlint:hotpath steady path\n"
      "void root() { step(); }\n"
      "void step() {}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR6, NoRootMeansNoWalk) {
  EXPECT_TRUE(
      scan("void helper() { auto* n = new Node; use(n); }\n"
           "void caller() { helper(); }\n")
          .empty());
}

TEST(DetlintR6, AmortizedAppendIsClean) {
  // reserve/clear/resize/pop_back on the receiver anywhere in the file is
  // the pool-recycling idiom; the append amortizes to zero.
  const auto fs = scan(
      "void warmUp() { batch_.reserve(1024); }\n"
      "MSIM_HOT void forward() { batch_.push_back(e); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR6, UnreservedAppendIsFlagged) {
  const auto fs = scan("MSIM_HOT void forward() { log_.push_back(e); }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, 1));
  EXPECT_NE(fs[0].message.find("'log_'"), std::string::npos);
}

TEST(DetlintR6, AllocVocabularyIsCovered) {
  const auto fs = scan(
      "MSIM_HOT void forward() {\n"
      "  auto a = std::make_unique<Node>();\n"
      "  auto b = std::make_shared<Node>();\n"
      "  std::function<void()> f = cb;\n"
      "  std::string s = name;\n"
      "  auto t = std::to_string(42);\n"
      "  std::vector<int> v(n);\n"
      "}\n");
  for (int line = 2; line <= 7; ++line) {
    EXPECT_TRUE(hasFinding(fs, Rule::HotPathAlloc, line)) << line;
  }
}

TEST(DetlintR6, SuppressionAtAllocationSiteWorks) {
  const auto fs = scan(
      "void grow() {\n"
      "  // detlint:allow(hotpath-alloc) slab growth at a new high-water mark\n"
      "  chunks_.push_back(std::make_unique<Slot[]>(kChunk));\n"
      "}\n"
      "// detlint:hotpath steady path recycles the free list\n"
      "void root() { grow(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR6, UnattachedHotMarkIsAPragmaFinding) {
  const auto fs = scan(
      "// detlint:hotpath nothing below this is a definition\n"
      "int kTable = 3;\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::Pragma, 1));
  EXPECT_NE(fs[0].message.find("hotpath"), std::string::npos);
}

TEST(DetlintR6, BacktickedMentionIsDocumentationNotAMark) {
  EXPECT_TRUE(
      scan("// the `detlint:hotpath` comment form marks templates\n"
           "int kDoc = 1;\n")
          .empty());
}

// -------------------------------------------------------- R7 float order

TEST(DetlintR7, FlagsReduceAndExecutionPolicies) {
  const auto fs = scan(
      "double s = std::reduce(v.begin(), v.end());\n"
      "double t = std::transform_reduce(v.begin(), v.end(), 0.0, add, sq);\n"
      "std::sort(std::execution::par, v.begin(), v.end());\n");
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 1));
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 2));
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 3));
}

TEST(DetlintR7, FlagsFastMathAndOmpReductionPragmas) {
  const auto fs = scan(
      "#pragma GCC optimize(\"fast-math\")\n"
      "#pragma STDC FP_CONTRACT ON\n"
      "#pragma omp parallel for reduction(+ : sum)\n");
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 1));
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 2));
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 3));
}

TEST(DetlintR7, FlagsFloatAccumulationOverUnorderedContainer) {
  const auto fs = scan(
      "// detlint:allow-file(unordered-iter) fixture isolates R7\n"
      "std::unordered_map<int, double> weights;\n"
      "double sum = 0.0;\n"
      "void total() {\n"
      "  for (const auto& kv : weights) {\n"
      "    sum += kv.second;\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::FloatOrder, 6));
  EXPECT_NE(fs[0].message.find("'sum'"), std::string::npos);
}

TEST(DetlintR7, AccumulationOverOrderedContainerIsClean) {
  EXPECT_TRUE(
      scan("std::vector<double> weights;\n"
           "double sum = 0.0;\n"
           "void total() {\n"
           "  for (const auto& w : weights) sum += w;\n"
           "}\n")
          .empty());
}

TEST(DetlintR7, IntegerAccumulationOverUnorderedIsClean) {
  // Integer addition commutes; only float accumulators are order-sensitive.
  const auto fs = scan(
      "// detlint:allow-file(unordered-iter) fixture isolates R7\n"
      "std::unordered_map<int, long> counts;\n"
      "long n = 0;\n"
      "void total() {\n"
      "  for (const auto& kv : counts) n += kv.second;\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(DetlintR7, SuppressionWorks) {
  const auto fs = scan(
      "double s = 0.0;\n"
      "// detlint:allow(float-order) display-only total; never fed back\n"
      "void show() { s = std::reduce(v.begin(), v.end()); }\n");
  EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------- R8 iter invalidate

TEST(DetlintR8, FlagsEraseInsideOwnRangeFor) {
  const auto fs = scan(
      "void sweep() {\n"
      "  for (auto& s : sessions) {\n"
      "    if (s.dead) sessions.erase(it);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::IterInvalidate, 3));
  EXPECT_NE(fs[0].message.find("sessions.erase"), std::string::npos);
}

TEST(DetlintR8, FlagsAppendToRangedMemberThroughThis) {
  // `this->` is stripped from both the range expression and the receiver, so
  // the two spellings of the same member still match.
  const auto fs = scan(
      "void fanout() {\n"
      "  for (const auto& q : queue_) {\n"
      "    this->queue_.push_back(q);\n"
      "  }\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(hasFinding(fs, Rule::IterInvalidate, 3));
}

TEST(DetlintR8, MutatingADifferentContainerIsClean) {
  EXPECT_TRUE(
      scan("void collect() {\n"
           "  for (const auto& s : sessions) {\n"
           "    if (s.dead) dead.push_back(s.id);\n"
           "  }\n"
           "  for (auto id : dead) sessions.erase(id);\n"
           "}\n")
          .empty());
}

TEST(DetlintR8, ClassicIndexLoopIsOutOfScope) {
  // An index loop re-reads size() each iteration; it is not standing on
  // iterators, so R8 stays quiet (correct or not, it is a different bug).
  EXPECT_TRUE(
      scan("void grow() {\n"
           "  for (std::size_t i = 0; i < v.size(); ++i) v.push_back(v[i]);\n"
           "}\n")
          .empty());
}

TEST(DetlintR8, SuppressionWorks) {
  const auto fs = scan(
      "void compact() {\n"
      "  for (auto& s : sessions) {\n"
      "    // detlint:allow(iter-invalidate) breaks out of the loop on the\n"
      "    // same statement, so the dead iterator is never touched\n"
      "    if (s.dead) { sessions.erase(s.id); break; }\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

// --------------------------------------------- multi-file scan + parallel

TEST(DetlintScanSources, FindingsMergeInInputFileOrder) {
  const std::vector<detlint::SourceFile> files = {
      {"b.cpp", "int r = rand();\n"},
      {"a.cpp", "std::unordered_map<int, int> m;\nint s = rand();\n"},
  };
  const auto fs = detlint::scanSources(files);
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].file, "b.cpp");
  EXPECT_EQ(fs[1].file, "a.cpp");
  EXPECT_EQ(fs[1].line, 1);
  EXPECT_EQ(fs[2].file, "a.cpp");
  EXPECT_EQ(fs[2].line, 2);
}

TEST(DetlintScanSources, OutputIsIdenticalForAnyJobCount) {
  std::vector<detlint::SourceFile> files;
  for (int i = 0; i < 48; ++i) {
    std::string name = "f" + std::to_string(i) + ".cpp";
    std::string text = (i % 3 == 0) ? "int r = rand();\n"
                       : (i % 3 == 1)
                           ? "std::unordered_set<int> s;\nlong t = time(nullptr);\n"
                           : "int clean = 1;\n";
    files.push_back({std::move(name), std::move(text)});
  }
  detlint::Options serial;
  serial.jobs = 1;
  detlint::Options wide;
  wide.jobs = 8;
  const auto a = detlint::scanSources(files, serial);
  const auto b = detlint::scanSources(files, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key(), b[i].key()) << i;
    EXPECT_EQ(a[i].message, b[i].message) << i;
  }
}

// ----------------------------------------------- stale baseline + SARIF

TEST(DetlintBaseline, StaleKeysAreReported) {
  const auto fs = scan("int r = rand();\n");
  detlint::Baseline baseline;
  const std::string path = ::testing::TempDir() + "detlint_stale_test.txt";
  {
    std::ofstream out{path};
    out << "fixture.cpp:1:wall-clock\n"        // live
        << "fixture.cpp:9:unordered-iter\n";   // stale
  }
  ASSERT_TRUE(baseline.load(path));
  const auto stale = baseline.staleKeys(fs);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "fixture.cpp:9:unordered-iter");
  std::remove(path.c_str());
}

TEST(DetlintBaseline, SerializeKeysSortsAndDeduplicates) {
  const std::string text = detlint::Baseline::serializeKeys(
      {"b.cpp:2:wall-clock", "a.cpp:1:unordered-iter", "b.cpp:2:wall-clock"});
  const auto first = text.find("a.cpp:1:unordered-iter");
  const auto second = text.find("b.cpp:2:wall-clock");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(text.find("b.cpp:2:wall-clock", second + 1), std::string::npos);
}

TEST(DetlintFormat, SarifCarriesRulesAndResults) {
  const auto fs = scan("std::unordered_map<int, int> m;\nint r = rand();\n");
  const std::string sarif = detlint::formatSarif(fs);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"detlint\""), std::string::npos);
  // All eight rules are declared even when only two fire.
  for (const char* rule :
       {"unordered-iter", "wall-clock", "pointer-key", "pragma", "thread-order",
        "hotpath-alloc", "float-order", "iter-invalidate"}) {
    EXPECT_NE(sarif.find(std::string{"\"id\": \""} + rule + "\""),
              std::string::npos)
        << rule;
  }
  EXPECT_NE(sarif.find("\"ruleId\": \"unordered-iter\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"wall-clock\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"fixture.cpp\""), std::string::npos);
}

TEST(DetlintFormat, SarifWithNoFindingsIsStillValid) {
  const std::string sarif = detlint::formatSarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0"), std::string::npos);
}

TEST(DetlintSessionIdioms, SimRngJitterAndScheduledRetryAreClean) {
  // The shipped idiom (src/session/session.cpp): ceiling from plain Duration
  // arithmetic, jitter from the owning simulator's RNG, retry as a scheduled
  // event. detlint must stay quiet on it.
  const auto fs = scan(
      "Duration raw = cfg_.minReconnectDelay;\n"
      "for (std::uint32_t i = 0; i <= attempt; ++i) raw = raw * factor;\n"
      "const Duration jit =\n"
      "    minS + (raw - minS) * sim_.rng().uniform(0.0, 1.0);\n"
      "reconnectTimer_ = sim_.scheduleAfter(jit, [this] { beginAttempt(); });\n");
  EXPECT_TRUE(fs.empty());
}

}  // namespace
