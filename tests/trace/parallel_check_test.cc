// ValidExecutionOptions::num_threads fans the property checks out over a
// worker pool; the merged report must be byte-identical to a single-threaded
// run at any thread count — including the violation cap, which must keep
// exactly the violations a sequential scan would have materialized.

#include <gtest/gtest.h>

#include "src/trace/valid_execution.h"
#include "tests/trace/trace_generators.h"

namespace hcm::trace {
namespace {

using testgen::GeneratedTrace;

void ExpectSameReport(const ExecutionReport& reference,
                      const ExecutionReport& run, size_t threads) {
  EXPECT_EQ(reference.ToString(), run.ToString()) << "threads=" << threads;
  EXPECT_EQ(reference.DescribeCheckStats(), run.DescribeCheckStats())
      << "threads=" << threads;
  EXPECT_EQ(reference.valid, run.valid);
  EXPECT_EQ(reference.events_checked, run.events_checked);
  EXPECT_EQ(reference.obligations_checked, run.obligations_checked);
}

TEST(ParallelCheckTest, ValidTraceMatchesAtAnyThreadCount) {
  GeneratedTrace g = testgen::GenerateObligationTrace(
      11, 20000, /*violation_budget=*/0);
  ExecutionReport reference = CheckValidExecution(g.trace, g.rules);
  EXPECT_TRUE(reference.valid) << reference.ToString();
  for (size_t threads : {2u, 4u, 8u}) {
    ValidExecutionOptions options;
    options.num_threads = threads;
    ExpectSameReport(reference,
                     CheckValidExecution(g.trace, g.rules, options), threads);
  }
}

TEST(ParallelCheckTest, ViolatingTraceMatchesAtAnyThreadCount) {
  GeneratedTrace g = testgen::GenerateObligationTrace(
      23, 20000, /*violation_budget=*/8);
  ExecutionReport reference = CheckValidExecution(g.trace, g.rules);
  EXPECT_FALSE(reference.valid);
  // Budgets stay below the 50-violation cap, so every violation is
  // materialized and the full texts must agree.
  ASSERT_GE(reference.violations.size(), 10u);
  ASSERT_LT(reference.violations.size(), 50u);
  for (size_t threads : {2u, 4u, 8u}) {
    ValidExecutionOptions options;
    options.num_threads = threads;
    ExpectSameReport(reference,
                     CheckValidExecution(g.trace, g.rules, options), threads);
  }
}

// With more violations than the cap, the parallel merge must keep exactly
// the violations a sequential scan would have kept (the earliest by event
// order, phase by phase) and still count the rest toward invalidity.
TEST(ParallelCheckTest, ViolationCapKeepsSequentialPrefix) {
  GeneratedTrace g = testgen::GenerateObligationTrace(
      37, 20000, /*violation_budget=*/30);
  ValidExecutionOptions capped;
  capped.max_violations = 7;
  ExecutionReport reference = CheckValidExecution(g.trace, g.rules, capped);
  EXPECT_FALSE(reference.valid);
  ASSERT_EQ(reference.violations.size(), 7u);
  for (size_t threads : {2u, 4u, 8u}) {
    ValidExecutionOptions options = capped;
    options.num_threads = threads;
    ExpectSameReport(reference,
                     CheckValidExecution(g.trace, g.rules, options), threads);
  }
}

TEST(ParallelCheckTest, ZeroThreadsRunsInline) {
  GeneratedTrace g = testgen::GenerateObligationTrace(
      53, 2000, /*violation_budget=*/2);
  ValidExecutionOptions zero;
  zero.num_threads = 0;
  ExecutionReport a = CheckValidExecution(g.trace, g.rules, zero);
  ExecutionReport b = CheckValidExecution(g.trace, g.rules);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.DescribeCheckStats(), b.DescribeCheckStats());
}

// Two indexed runs over the large randomized trace must agree with
// themselves too (guards against iteration-order nondeterminism in the
// checker's hash maps).
TEST(CheckEquivalenceTest, IndexedRunsAreDeterministic) {
  GeneratedTrace g = testgen::GenerateCheckTrace(424242);
  ExecutionReport a = CheckValidExecution(g.trace, g.rules);
  ExecutionReport b = CheckValidExecution(g.trace, g.rules);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.DescribeCheckStats(), b.DescribeCheckStats());
}

}  // namespace
}  // namespace hcm::trace
