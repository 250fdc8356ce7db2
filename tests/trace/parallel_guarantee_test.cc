// GuaranteeCheckOptions::num_threads fans the per-witness existential
// search out over a worker pool. Violation verdicts and counterexamples
// are merged in witness order, so the report — including the capped
// counterexample list — must come out byte-identical to a single-threaded
// run at any thread count. (Cache-hit counters legitimately differ: each
// worker owns its own memo caches. ToString excludes stats, which is what
// makes the byte-identity contract checkable.)

#include <gtest/gtest.h>

#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"
#include "tests/trace/trace_generators.h"

namespace hcm::trace {
namespace {

using rule::ItemId;

void ExpectSameResult(const GuaranteeCheckResult& reference,
                      const GuaranteeCheckResult& run, size_t threads) {
  EXPECT_EQ(reference.ToString(), run.ToString()) << "threads=" << threads;
  EXPECT_EQ(reference.holds, run.holds);
  EXPECT_EQ(reference.truncated, run.truncated);
  EXPECT_EQ(reference.lhs_witnesses, run.lhs_witnesses);
  EXPECT_EQ(reference.violations, run.violations);
  ASSERT_EQ(reference.counterexamples.size(), run.counterexamples.size())
      << "threads=" << threads;
  for (size_t i = 0; i < reference.counterexamples.size(); ++i) {
    EXPECT_EQ(reference.counterexamples[i].ToString(),
              run.counterexamples[i].ToString())
        << "threads=" << threads << " counterexample " << i;
  }
}

TEST(ParallelGuaranteeTest, HoldingTraceMatchesAtAnyThreadCount) {
  Trace t =
      testgen::GeneratePropagationTrace(11, 300, /*corrupt_every=*/0);
  GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Seconds(5);
  auto reference =
      CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), opts);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(reference->holds) << reference->ToString();
  EXPECT_GT(reference->lhs_witnesses, 0u);
  for (size_t threads : {2u, 4u, 8u}) {
    GuaranteeCheckOptions popts = opts;
    popts.num_threads = threads;
    auto run = CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), popts);
    ASSERT_TRUE(run.ok());
    ExpectSameResult(*reference, *run, threads);
  }
}

TEST(ParallelGuaranteeTest, ViolatingTraceMatchesAtAnyThreadCount) {
  Trace t =
      testgen::GeneratePropagationTrace(23, 150, /*corrupt_every=*/7);
  GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Seconds(5);
  auto reference =
      CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), opts);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference->holds);
  EXPECT_GT(reference->violations, 0u);
  for (size_t threads : {2u, 4u, 8u}) {
    GuaranteeCheckOptions popts = opts;
    popts.num_threads = threads;
    auto run = CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), popts);
    ASSERT_TRUE(run.ok());
    ExpectSameResult(*reference, *run, threads);
  }
}

// The counterexample cap must keep exactly the sequential prefix: the
// first `max_counterexamples` violations in witness order, not whichever
// worker finished first.
TEST(ParallelGuaranteeTest, CounterexampleCapKeepsSequentialPrefix) {
  Trace t =
      testgen::GeneratePropagationTrace(37, 200, /*corrupt_every=*/5);
  GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Seconds(5);
  opts.max_counterexamples = 3;
  auto reference =
      CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->counterexamples.size(), 3u);
  ASSERT_GT(reference->violations, 3u);
  for (size_t threads : {2u, 4u, 8u}) {
    GuaranteeCheckOptions popts = opts;
    popts.num_threads = threads;
    auto run = CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), popts);
    ASSERT_TRUE(run.ok());
    ExpectSameResult(*reference, *run, threads);
  }
}

TEST(ParallelGuaranteeTest, ZeroThreadsBehavesAsOne) {
  Trace t =
      testgen::GeneratePropagationTrace(53, 100, /*corrupt_every=*/4);
  GuaranteeCheckOptions zero;
  zero.settle_margin = Duration::Seconds(5);
  zero.num_threads = 0;
  auto a = CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), zero);
  GuaranteeCheckOptions one = zero;
  one.num_threads = 1;
  auto b = CheckGuarantee(t, spec::YFollowsX("src(n)", "dst(n)"), one);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameResult(*a, *b, 0);
}

// Satellite guard: Finish moves the trace out; calling it again would
// silently hand back an empty trace that sails through every check, so the
// recorder aborts instead.
TEST(ParallelGuaranteeDeathTest, DoubleFinishAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TraceRecorder rec;
  rec.SetInitialValue(ItemId{"x", {}}, Value::Int(0));
  (void)rec.Finish(TimePoint::FromMillis(1000));
  EXPECT_DEATH((void)rec.Finish(TimePoint::FromMillis(2000)),
               "Finish called twice");
}

}  // namespace
}  // namespace hcm::trace
