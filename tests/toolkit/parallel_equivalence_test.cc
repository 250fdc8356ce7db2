// The acid test for sim::ParallelExecutor: a deployment run with default
// SystemOptions and with 0, 1, 2, 4 and 8 worker threads must produce
// byte-identical traces and byte-identical guarantee reports — so the
// default is the 1-thread lane run, and thread count never changes a
// result. Exercised over the E1 payroll deployment (two relational
// sites), the E9 Stanford deployment (whois + filestore + relational), and
// a 105-lane Zipf-skewed department topology that stresses the
// epoch-synchronized engine (hot lanes deep in supersteps while cold ones
// idle). The elision-soundness tests additionally pin the CALM claim: the
// schedule with monotone-rule fires delivered clamp-free is byte-identical
// to the fully clamped one-epoch-per-superstep schedule.

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/toolkit/deployment_runs.h"

namespace hcm {
namespace {

// Thread count of a run; nullopt keeps SystemOptions' default, the
// baseline every explicit thread count is compared against (0 is read as
// 1).
using Threads = std::optional<size_t>;
constexpr Threads kDefaultOptions = std::nullopt;
constexpr size_t kThreadCounts[] = {0, 1, 2, 4, 8};

toolkit::SystemOptions OptionsFor(Threads threads) {
  toolkit::SystemOptions opts;
  if (threads) opts.num_threads = *threads;
  return opts;
}

using testrun::RunReport;

void ExpectIdentical(const RunReport& reference, const RunReport& run,
                     size_t threads, uint64_t seed) {
  // Compare sizes first so a mismatch fails with a readable message
  // instead of dumping two multi-megabyte strings.
  ASSERT_EQ(reference.trace_bytes.size(), run.trace_bytes.size())
      << "trace size diverged at threads=" << threads << " seed=" << seed;
  EXPECT_TRUE(reference.trace_bytes == run.trace_bytes)
      << "trace bytes diverged at threads=" << threads << " seed=" << seed;
  EXPECT_EQ(reference.guarantee_report, run.guarantee_report)
      << "guarantee report diverged at threads=" << threads
      << " seed=" << seed;
  EXPECT_EQ(reference.dispatch_stats, run.dispatch_stats)
      << "dispatch stats diverged at threads=" << threads << " seed=" << seed;
  EXPECT_EQ(reference.execution_report, run.execution_report);
  EXPECT_EQ(reference.invalid_keys, run.invalid_keys);
  EXPECT_EQ(reference.messages, run.messages);
  EXPECT_EQ(reference.clamped, run.clamped);
  EXPECT_EQ(reference.elided, run.elided);
}

RunReport RunPayroll(Threads threads, uint64_t seed) {
  return testrun::RunPayroll(OptionsFor(threads), seed);
}

RunReport RunStanford(Threads threads, uint64_t seed) {
  return testrun::RunStanford(OptionsFor(threads), seed);
}

TEST(ParallelEquivalence, PayrollTraceAndGuaranteesMatchAnyThreadCount) {
  for (uint64_t seed : {7u, 21u}) {
    RunReport reference = RunPayroll(kDefaultOptions, seed);
    EXPECT_GT(reference.trace_bytes.size(), 0u);
    for (size_t threads : kThreadCounts) {
      RunReport run = RunPayroll(threads, seed);
      ExpectIdentical(reference, run, threads, seed);
    }
  }
}

TEST(ParallelEquivalence, StanfordTraceAndGuaranteesMatchAnyThreadCount) {
  for (uint64_t seed : {5u, 99u}) {
    RunReport reference = RunStanford(kDefaultOptions, seed);
    EXPECT_GT(reference.trace_bytes.size(), 0u);
    for (size_t threads : kThreadCounts) {
      RunReport run = RunStanford(threads, seed);
      ExpectIdentical(reference, run, threads, seed);
    }
  }
}

// Sanity: the guarantees must actually HOLD under the parallel engine, not
// merely agree between runs — window clamping or lost cross-site messages
// would show up here first.
TEST(ParallelEquivalence, GuaranteesHoldUnderParallelEngine) {
  RunReport run = RunStanford(4, 5u);
  EXPECT_NE(run.guarantee_report.find("HOLDS"), std::string::npos);
  EXPECT_EQ(run.guarantee_report.find("VIOLATED"), std::string::npos)
      << run.guarantee_report;
  EXPECT_TRUE(run.invalid_keys.empty());
}

// --- Zipf-skewed wide topology (testrun::RunZipf): 105 lanes ---

struct ZipfEngineOptions {
  bool elide = true;        // SystemOptions::elide_monotone_rules
  size_t max_epochs = 16;   // SystemOptions::max_epochs_per_superstep
};

RunReport RunZipf(Threads threads, uint64_t seed,
                  ZipfEngineOptions engine = {}) {
  toolkit::SystemOptions opts = OptionsFor(threads);
  opts.elide_monotone_rules = engine.elide;
  opts.max_epochs_per_superstep = engine.max_epochs;
  return testrun::RunZipf(opts, seed);
}

TEST(ParallelEquivalence, ZipfWideTopologyMatchesAnyThreadCount) {
  RunReport reference = RunZipf(kDefaultOptions, 11u);
  EXPECT_GT(reference.trace_bytes.size(), 0u);
  // The monotone relays must actually exercise the elided path, and the
  // skewed stream must exercise the clamp accounting.
  EXPECT_GT(reference.elided, 0u);
  for (size_t threads : kThreadCounts) {
    RunReport run = RunZipf(threads, 11u);
    ExpectIdentical(reference, run, threads, 11u);
  }
  EXPECT_EQ(reference.guarantee_report.find("VIOLATED"), std::string::npos)
      << reference.guarantee_report;
}

// --- CALM elision soundness ---
//
// The classifier's claim is semantic: delivering a monotone rule's fires
// without the synchronization-window clamp changes nothing observable.
// Pin it by running the same workload under (a) the elided schedule with
// full adaptive superstep depth, and (b) the fully coordinated schedule —
// elision off, one epoch per superstep, every cross-lane post subject to
// the clamp. Traces, guarantee reports, and invalidation sets must agree
// byte for byte. (Deliveries here all travel >= one lookahead of latency,
// so the clamp never actually moves a timestamp — which is exactly why the
// elided schedule can skip it soundly; the comparison would catch any
// divergence introduced by the relaxed delivery order.)
TEST(ParallelEquivalence, ElidedScheduleMatchesClampedSchedule) {
  for (size_t threads : {1u, 4u}) {
    RunReport elided = RunZipf(threads, 23u, {/*elide=*/true,
                                              /*max_epochs=*/16});
    RunReport clamped = RunZipf(threads, 23u, {/*elide=*/false,
                                               /*max_epochs=*/1});
    EXPECT_GT(elided.elided, 0u);
    EXPECT_EQ(clamped.elided, 0u);
    ASSERT_EQ(elided.trace_bytes.size(), clamped.trace_bytes.size())
        << "trace size diverged at threads=" << threads;
    EXPECT_TRUE(elided.trace_bytes == clamped.trace_bytes)
        << "elided schedule diverged from clamped at threads=" << threads;
    EXPECT_EQ(elided.guarantee_report, clamped.guarantee_report);
    EXPECT_EQ(elided.invalid_keys, clamped.invalid_keys);
    EXPECT_EQ(elided.messages, clamped.messages);
  }
}

}  // namespace
}  // namespace hcm
