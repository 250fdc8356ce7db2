// Golden fixtures: the outputs of seeded deployment runs and checker runs,
// frozen byte for byte under tests/fixtures/golden/. They were recorded
// while the string-keyed reference paths (map bindings in the shell,
// whole-trace scans in the checkers) still existed, and were then asserted
// equal to both the reference output and the compiled (slot-frame,
// indexed) output. The reference paths are gone; the fixtures keep their
// outputs, and every fixture is checked at 1 and 4 threads.
//
// The tests keep the names of the equivalence tests they replace; the
// "reference" they match is the reference output held in the fixture.
//
// Updating a fixture: there is no regenerate switch. On a mismatch the
// test writes the actual output to <build>/tests/golden_actual/ and names
// that file in the failure message. If the change is meant to alter the
// output, diff that file against the fixture, copy it over the fixture,
// and say in CHANGES.md why the output changed.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/streaming_checker.h"
#include "src/trace/valid_execution.h"
#include "tests/toolkit/deployment_runs.h"
#include "tests/trace/trace_generators.h"

namespace hcm {
namespace {

using testrun::RunReport;
using trace::testgen::GeneratedTrace;

constexpr size_t kThreadCounts[] = {1, 4};

std::string ReadFile(const std::string& path, bool* found) {
  std::ifstream in(path, std::ios::binary);
  *found = static_cast<bool>(in);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// 1-based line of the first difference between two texts.
size_t FirstDifferentLine(const std::string& a, const std::string& b) {
  size_t line = 1;
  for (size_t i = 0; i < a.size() && i < b.size() && a[i] == b[i]; ++i) {
    if (a[i] == '\n') ++line;
  }
  return line;
}

// Asserts `actual` equals fixture `name`. On a mismatch the actual output
// goes to <build>/tests/golden_actual/<label>.<name>; `label` tells the
// runs of one fixture apart.
void ExpectMatchesFixture(const std::string& name, const std::string& label,
                          const std::string& actual) {
  const std::string fixture_path = std::string(HCM_GOLDEN_DIR) + "/" + name;
  bool found = false;
  std::string expected = ReadFile(fixture_path, &found);
  if (found && expected == actual) return;
  std::filesystem::create_directories(HCM_GOLDEN_ACTUAL_DIR);
  const std::string actual_path =
      std::string(HCM_GOLDEN_ACTUAL_DIR) + "/" + label + "." + name;
  std::ofstream(actual_path, std::ios::binary) << actual;
  if (!found) {
    ADD_FAILURE() << "fixture " << fixture_path << " is missing; actual "
                  << label << " output written to " << actual_path;
  } else {
    ADD_FAILURE() << label << " output differs from fixture " << fixture_path
                  << " at line " << FirstDifferentLine(expected, actual)
                  << "; actual output written to " << actual_path;
  }
}

std::string Label(size_t threads) {
  return "threads" + std::to_string(threads);
}

toolkit::SystemOptions Options(size_t threads) {
  toolkit::SystemOptions opts;
  opts.num_threads = threads;
  return opts;
}

// Everything a deployment run must reproduce, in one text.
std::string Render(const RunReport& r) {
  std::string out = "messages " + std::to_string(r.messages) + "\n";
  out += "invalid keys:";
  for (const auto& key : r.invalid_keys) out += " " + key;
  out += "\n-- guarantee reports\n" + r.guarantee_report;
  out += "-- execution report\n" + r.execution_report;
  out += "-- " + r.dispatch_stats;
  out += "-- trace\n" + r.trace_bytes;
  return out;
}

// FNV-1a (64-bit) of `bytes`, as 16 hex digits and a newline.
std::string Fnv1aHex(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ull;
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx\n",
                static_cast<unsigned long long>(h));
  return buf;
}

// --- Deployments: E1 payroll and E9 Stanford at 1 and 4 threads ---

TEST(InternedEquivalence, PayrollCompiledPathMatchesReferencePath) {
  for (uint64_t seed : {7u, 21u}) {
    const std::string name = "payroll_seed" + std::to_string(seed) + ".txt";
    for (size_t threads : kThreadCounts) {
      ExpectMatchesFixture(name, Label(threads),
                           Render(testrun::RunPayroll(Options(threads), seed)));
    }
  }
}

TEST(InternedEquivalence, StanfordCompiledPathMatchesReferencePath) {
  for (uint64_t seed : {5u, 99u}) {
    const std::string name = "stanford_seed" + std::to_string(seed) + ".txt";
    for (size_t threads : kThreadCounts) {
      ExpectMatchesFixture(
          name, Label(threads),
          Render(testrun::RunStanford(Options(threads), seed)));
    }
  }
}

// Sanity: the deployment actually fires rules (the fixture comparison
// above would hold vacuously if nothing matched).
TEST(InternedEquivalence, CompiledPathDoesRealWork) {
  RunReport run = testrun::RunPayroll(Options(1), 7u);
  EXPECT_NE(run.dispatch_stats.find("matches=25"), std::string::npos)
      << run.dispatch_stats;
  EXPECT_NE(run.dispatch_stats.find("firings=25"), std::string::npos)
      << run.dispatch_stats;
  EXPECT_NE(run.guarantee_report.find("HOLDS"), std::string::npos);
  EXPECT_TRUE(run.invalid_keys.empty());
}

// --- The 105-lane Zipf topology: FNV-1a of its serialized trace ---

TEST(GoldenFixture, ZipfTraceHashMatchesFixture) {
  for (size_t threads : kThreadCounts) {
    ExpectMatchesFixture(
        "zipf_seed11.fnv1a", Label(threads),
        Fnv1aHex(testrun::RunZipf(Options(threads), 11u).trace_bytes));
  }
}

// --- Checkers over the large randomized trace (>= 110k events) ---

TEST(CheckEquivalenceTest, ValidExecutionIndexedMatchesReferenceByteForByte) {
  GeneratedTrace g = trace::testgen::GenerateCheckTrace(20260807);
  ASSERT_GE(g.trace.events.size(), 100000u);
  const std::string name = "check_seed20260807_valid_execution.txt";
  for (size_t threads : kThreadCounts) {
    trace::ValidExecutionOptions opts;
    opts.num_threads = threads;
    trace::ExecutionReport r = trace::CheckValidExecution(g.trace, g.rules,
                                                          opts);
    ExpectMatchesFixture(name, Label(threads), r.ToString());
    // The generator injected violations, so the comparison is not vacuous,
    // and the indexed run actually pruned work.
    EXPECT_FALSE(r.valid);
    EXPECT_GE(r.violations.size(), 10u);
    EXPECT_GT(r.stats.obligation_scans_avoided, 0u);
    EXPECT_GT(r.stats.write_events_indexed, 0u);
  }
}

TEST(CheckEquivalenceTest, GuaranteeIndexedMatchesReferenceByteForByte) {
  GeneratedTrace g = trace::testgen::GenerateCheckTrace(20260807);
  ASSERT_GE(g.trace.events.size(), 100000u);
  // The copy guarantee over the scripted GX -> GY stream: every GY value
  // must have been GX's value at some earlier-or-equal instant.
  auto guarantee =
      spec::ParseGuarantee("(GY = y)@t1 => (GX = y)@t2 & t2 <= t1");
  ASSERT_TRUE(guarantee.ok());
  const std::string name = "check_seed20260807_guarantee.txt";
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Millis(trace::testgen::kCheckRuleDeltaMs);
  for (size_t threads : kThreadCounts) {
    opts.num_threads = threads;
    auto r = trace::CheckGuarantee(g.trace, *guarantee, opts);
    ASSERT_TRUE(r.ok());
    ExpectMatchesFixture(name, Label(threads), r->ToString() + "\n");
    // The witness enumeration was non-trivial and the caches actually hit.
    EXPECT_GT(r->lhs_witnesses, 10u);
    EXPECT_GT(r->stats.sample_cache_hits, 0u);
    EXPECT_GT(r->stats.match_cache_hits, 0u);
  }
}

// --- The parallel checkers' reference comparisons ---

TEST(ParallelCheckTest, ParallelIndexedMatchesReferenceImpl) {
  GeneratedTrace g = trace::testgen::GenerateObligationTrace(
      41, 8000, /*violation_budget=*/5);
  const std::string name = "obligation_seed41_valid_execution.txt";
  for (size_t threads : kThreadCounts) {
    trace::ValidExecutionOptions opts;
    opts.num_threads = threads;
    ExpectMatchesFixture(
        name, Label(threads),
        trace::CheckValidExecution(g.trace, g.rules, opts).ToString());
  }
}

TEST(ParallelGuaranteeTest, ParallelIndexedMatchesReferenceImpl) {
  trace::Trace t = trace::testgen::GeneratePropagationTrace(
      41, 120, /*corrupt_every=*/9);
  const std::string name = "propagation_seed41_guarantee.txt";
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Seconds(5);
  for (size_t threads : kThreadCounts) {
    opts.num_threads = threads;
    auto r = trace::CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"),
                                   opts);
    ASSERT_TRUE(r.ok());
    ExpectMatchesFixture(name, Label(threads), r->ToString() + "\n");
  }
}


// --- Outage-aware valid-execution reports (crash/restart runs) ---
//
// E1 payroll with site B crashed mid-run. Each report is recorded from the
// offline checker and from the streaming checker, so the outage-deadline
// logic stays pinned to frozen text rather than to a comparison of the two
// checkers with each other.

struct OutageRun {
  trace::Trace trace;
  std::vector<rule::Rule> rules;
  std::vector<trace::SiteOutage> outages;
  std::string streaming_report;  // live checker, fed the outage by the System
};

std::vector<trace::SiteOutage> OutagesOf(toolkit::System& system) {
  std::vector<trace::SiteOutage> outages;
  for (const auto& w : system.failures().DownWindows()) {
    outages.push_back(trace::SiteOutage{w.site, w.from, w.to});
  }
  return outages;
}

// Payroll over `employees` rows with storage under `dir`, the suggested
// strategy installed and a streaming checker attached in tee mode. `body`
// drives the run and schedules the crash.
template <typename Body>
OutageRun RunWithCrash(const std::string& dir, int employees, size_t threads,
                       const Body& body) {
  std::filesystem::remove_all(dir);
  toolkit::SystemOptions opts = Options(threads);
  opts.storage.dir = dir;
  opts.storage.commit_interval = Duration::Millis(10);
  opts.storage.snapshot_period = Duration::Seconds(5);
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", employees, opts);
  toolkit::System& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  EXPECT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  OutageRun run;
  run.rules = testrun::InstalledRules({suggestions.at(0).strategy});
  trace::StreamingChecker checker(run.rules, {});
  EXPECT_EQ(system.AttachStreamingChecker(&checker), Status::OK());
  body(system);
  run.outages = OutagesOf(system);
  run.trace = system.FinishTrace();
  EXPECT_TRUE(checker.finished());
  run.streaming_report = checker.execution_report().ToString();
  std::filesystem::remove_all(dir);
  return run;
}

// Crash B at 6s, restart at 10.95s; a probe write lands 150ms before the
// crash, so its fire is held across the outage.
OutageRun RunCrashRecovery(size_t threads) {
  return RunWithCrash(
      ::testing::TempDir() + "/golden_crash_recovery_" + Label(threads), 6,
      threads, [](toolkit::System& system) {
        ASSERT_EQ(system.ScheduleCrash("B", TimePoint::FromMillis(6000),
                                       TimePoint::FromMillis(10950)),
                  Status::OK());
        Rng rng(7);
        auto write = [&](int lo, int hi) {
          int n = static_cast<int>(rng.UniformInt(1, 6));
          int salary = static_cast<int>(rng.UniformInt(50000, 90000));
          ASSERT_EQ(system.WorkloadWrite(
                        rule::ItemId{"salary1", {Value::Int(n)}},
                        Value::Int(salary)),
                    Status::OK());
          system.RunFor(Duration::Millis(rng.UniformInt(lo, hi)));
        };
        for (int u = 0; u < 8; ++u) write(50, 500);
        system.RunFor(TimePoint::FromMillis(5850) - system.executor().now());
        ASSERT_EQ(system.WorkloadWrite(
                      rule::ItemId{"salary1", {Value::Int(3)}},
                      Value::Int(99000)),
                  Status::OK());
        for (int u = 0; u < 12; ++u) write(200, 1500);
        system.RunFor(Duration::Minutes(2));
      });
}

// Crash B at 6s, restart at 12s, and cut the run at 11.95s: the held
// notify's unextended deadline (~11.87s) has passed, its extended one has
// not.
OutageRun RunMidOutageCutoff(size_t threads) {
  return RunWithCrash(
      ::testing::TempDir() + "/golden_outage_cutoff_" + Label(threads), 4,
      threads, [](toolkit::System& system) {
        ASSERT_EQ(system.ScheduleCrash("B", TimePoint::FromMillis(6000),
                                       TimePoint::FromMillis(12000)),
                  Status::OK());
        system.RunFor(Duration::Millis(5850));
        ASSERT_EQ(system.WorkloadWrite(
                      rule::ItemId{"salary1", {Value::Int(1)}},
                      Value::Int(70000)),
                  Status::OK());
        system.RunFor(TimePoint::FromMillis(11950) -
                      system.executor().now());
      });
}

// Feeds a finished trace to a fresh streaming checker, one watermark per
// new instant, and returns its report.
std::string StreamedReport(const trace::Trace& t,
                           const std::vector<rule::Rule>& rules,
                           const trace::ValidExecutionOptions& vopts) {
  trace::StreamingCheckOptions sopts;
  sopts.valid = vopts;
  trace::StreamingChecker checker(rules, {}, sopts);
  for (const auto& [item, value] : t.initial_values) {
    checker.OnInitialValue(item, value);
  }
  for (const auto& e : t.events) {
    checker.OnWatermark(e.time);
    checker.OnEvent(e);
  }
  checker.OnFinish(t.horizon);
  return checker.execution_report().ToString();
}

std::string OfflineReport(const OutageRun& run, bool with_outages,
                          size_t threads) {
  trace::ValidExecutionOptions vopts;
  if (with_outages) vopts.outages = run.outages;
  vopts.num_threads = threads;
  return trace::CheckValidExecution(run.trace, run.rules, vopts).ToString();
}

TEST(GoldenFixture, CrashRecoveryOutageAwareReport) {
  const std::string name = "outage_crash_recovery_valid_execution.txt";
  for (size_t threads : kThreadCounts) {
    OutageRun run = RunCrashRecovery(threads);
    ASSERT_FALSE(run.outages.empty());
    ExpectMatchesFixture(name, Label(threads) + ".offline",
                         OfflineReport(run, true, threads));
    ExpectMatchesFixture(name, Label(threads) + ".streaming",
                         run.streaming_report);
  }
}

TEST(GoldenFixture, MidOutageCutoffReportsWithAndWithoutOutages) {
  const std::string aware = "outage_cutoff_aware_valid_execution.txt";
  const std::string strict = "outage_cutoff_strict_valid_execution.txt";
  for (size_t threads : kThreadCounts) {
    OutageRun run = RunMidOutageCutoff(threads);
    ASSERT_EQ(run.outages.size(), 1u);
    ExpectMatchesFixture(aware, Label(threads) + ".offline",
                         OfflineReport(run, true, threads));
    ExpectMatchesFixture(aware, Label(threads) + ".streaming",
                         run.streaming_report);
    ExpectMatchesFixture(strict, Label(threads) + ".offline",
                         OfflineReport(run, false, threads));
    ExpectMatchesFixture(strict, Label(threads) + ".streaming",
                         StreamedReport(run.trace, run.rules, {}));
  }
}

}  // namespace
}  // namespace hcm
