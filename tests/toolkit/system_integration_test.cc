#include "src/toolkit/system.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/trace/guarantee_checker.h"
#include "src/trace/valid_execution.h"

namespace hcm::toolkit {
namespace {

using rule::ItemId;

constexpr const char* kRidSiteA = R"(
# San Francisco branch: Sybase-style personnel database.
ris relational
site A
param write_delay 100ms
param read_delay 50ms
param notify_delay 100ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
interface notify salary1(n) 1s
interface read salary1(n) 1s
)";

constexpr const char* kRidSiteAReadOnly = R"(
ris relational
site A
param read_delay 50ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface read salary1(n) 1s
)";

constexpr const char* kRidSiteB = R"(
# New York headquarters.
ris relational
site B
param write_delay 100ms
item salary2
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface write salary2(n) 2s
)";

class PayrollFixture : public ::testing::Test {
 protected:
  // Builds the two-site deployment of Section 4.2. `rid_a` selects the
  // interface site A offers.
  void Deploy(const char* rid_a) {
    auto db_a = system_.AddRelationalSite("A");
    ASSERT_TRUE(db_a.ok());
    auto db_b = system_.AddRelationalSite("B");
    ASSERT_TRUE(db_b.ok());
    for (auto* db : {*db_a, *db_b}) {
      ASSERT_TRUE(db->Execute("create table employees (empid int primary "
                              "key, name str, salary int)")
                      .ok());
      ASSERT_TRUE(
          db->Execute("insert into employees values (1, 'ann', 50000)").ok());
      ASSERT_TRUE(
          db->Execute("insert into employees values (2, 'bob', 60000)").ok());
    }
    db_a_ = *db_a;
    db_b_ = *db_b;
    ASSERT_TRUE(system_.ConfigureTranslator(rid_a).ok());
    ASSERT_TRUE(system_.ConfigureTranslator(kRidSiteB).ok());
    for (int n : {1, 2}) {
      ASSERT_TRUE(
          system_.DeclareInitial(ItemId{"salary1", {Value::Int(n)}}).ok());
      ASSERT_TRUE(
          system_.DeclareInitial(ItemId{"salary2", {Value::Int(n)}}).ok());
    }
    auto c = spec::MakeCopyConstraint("salary1(n)", "salary2(n)");
    ASSERT_TRUE(c.ok());
    constraint_ = *c;
  }

  Result<Value> SalaryAtB(int n) {
    return system_.WorkloadRead(ItemId{"salary2", {Value::Int(n)}});
  }

  System system_;
  ris::relational::Database* db_a_ = nullptr;
  ris::relational::Database* db_b_ = nullptr;
  spec::Constraint constraint_;
};

TEST_F(PayrollFixture, SuggesterOffersPropagationForNotifyPlusWrite) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok()) << suggestions.status().ToString();
  ASSERT_FALSE(suggestions->empty());
  EXPECT_EQ((*suggestions)[0].strategy.name, "update-propagation");
}

TEST_F(PayrollFixture, PropagationDeliversUpdatesEndToEnd) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_FALSE(suggestions->empty());
  ASSERT_TRUE(system_
                  .InstallStrategy("payroll", constraint_,
                                   (*suggestions)[0].strategy)
                  .ok());
  // A spontaneous raise at the San Francisco branch...
  ASSERT_TRUE(system_
                  .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(55000))
                  .ok());
  system_.RunFor(Duration::Seconds(30));
  // ...reaches headquarters.
  auto at_b = SalaryAtB(1);
  ASSERT_TRUE(at_b.ok());
  EXPECT_EQ(*at_b, Value::Int(55000));
  // Untouched employee unchanged.
  EXPECT_EQ(*SalaryAtB(2), Value::Int(60000));
}

TEST_F(PayrollFixture, PropagationSatisfiesAllFourGuarantees) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  const spec::StrategySpec& strategy = (*suggestions)[0].strategy;
  ASSERT_TRUE(system_.InstallStrategy("payroll", constraint_, strategy).ok());
  // A stream of raises across both employees.
  int64_t base = 50000;
  for (int i = 0; i < 10; ++i) {
    int n = 1 + (i % 2);
    ASSERT_TRUE(system_
                    .WorkloadWrite(ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(base + i * 100))
                    .ok());
    system_.RunFor(Duration::Seconds(5));
  }
  system_.RunFor(Duration::Seconds(60));
  trace::Trace t = system_.FinishTrace();
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Seconds(30);
  auto results = trace::CheckGuarantees(t, strategy.guarantees, opts);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 4u);
  for (const auto& [name, r] : *results) {
    EXPECT_TRUE(r.holds) << name << ": " << r.ToString();
    EXPECT_GT(r.lhs_witnesses, 0u) << name;
  }
}

TEST_F(PayrollFixture, PollingMissesIntraPeriodUpdates) {
  Deploy(kRidSiteAReadOnly);
  spec::SuggestOptions sopts;
  sopts.polling_period = Duration::Seconds(60);
  auto suggestions = system_.Suggest(constraint_, sopts);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_FALSE(suggestions->empty());
  const spec::StrategySpec& polling = (*suggestions)[0].strategy;
  EXPECT_EQ(polling.name, "polling");
  ASSERT_TRUE(system_.InstallStrategy("payroll", constraint_, polling).ok());
  // Two updates inside one polling interval: the middle value 51000 is
  // never seen by the poller.
  ASSERT_TRUE(system_
                  .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(51000))
                  .ok());
  system_.RunFor(Duration::Seconds(2));
  ASSERT_TRUE(system_
                  .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(52000))
                  .ok());
  system_.RunFor(Duration::Minutes(5));
  EXPECT_EQ(*SalaryAtB(1), Value::Int(52000));  // final value did arrive
  trace::Trace t = system_.FinishTrace();
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Minutes(2);
  // Guarantee (1) holds...
  auto yfx = trace::CheckGuarantee(
      t, spec::YFollowsX("salary1(n)", "salary2(n)"), opts);
  ASSERT_TRUE(yfx.ok());
  EXPECT_TRUE(yfx->holds) << yfx->ToString();
  // ...but guarantee (2) does not: 51000 was missed (Section 4.2.3).
  auto xly = trace::CheckGuarantee(
      t, spec::XLeadsY("salary1(n)", "salary2(n)"), opts);
  ASSERT_TRUE(xly.ok());
  EXPECT_FALSE(xly->holds);
}

TEST_F(PayrollFixture, ExecutionSatisfiesAppendixProperties) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  const spec::StrategySpec& strategy = (*suggestions)[0].strategy;
  ASSERT_TRUE(system_.InstallStrategy("payroll", constraint_, strategy).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(system_
                    .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                   Value::Int(50000 + i))
                    .ok());
    system_.RunFor(Duration::Seconds(10));
  }
  system_.RunFor(Duration::Minutes(1));
  trace::Trace t = system_.FinishTrace();
  // Collect the installed rules (ids were assigned by the System): rebuild
  // from the strategy with the known id sequence starting at 1.
  std::vector<rule::Rule> rules;
  int64_t id = 1;
  for (const auto& r : strategy.rules) {
    rules.push_back(r);
    rules.back().id = id++;
  }
  auto report = trace::CheckValidExecution(t, rules);
  EXPECT_TRUE(report.valid) << report.ToString();
  EXPECT_GT(report.obligations_checked, 0u);
}

TEST_F(PayrollFixture, PollingExecutionSatisfiesAppendixProperties) {
  // The polling strategy exercises P events, whole-base reads, and
  // interface-generated R events; the Appendix A.2 checker must accept the
  // resulting trace against the installed strategy rules.
  Deploy(kRidSiteAReadOnly);
  spec::SuggestOptions sopts;
  sopts.polling_period = Duration::Seconds(30);
  auto suggestions = system_.Suggest(constraint_, sopts);
  ASSERT_TRUE(suggestions.ok());
  const spec::StrategySpec& polling = (*suggestions)[0].strategy;
  ASSERT_TRUE(system_.InstallStrategy("payroll", constraint_, polling).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(system_
                    .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                   Value::Int(51000 + i))
                    .ok());
    system_.RunFor(Duration::Seconds(45));
  }
  system_.RunFor(Duration::Minutes(1));
  trace::Trace t = system_.FinishTrace();
  std::vector<rule::Rule> rules;
  int64_t id = 1;
  for (const auto& r : polling.rules) {
    rules.push_back(r);
    rules.back().id = id++;
  }
  auto report = trace::CheckValidExecution(t, rules);
  EXPECT_TRUE(report.valid) << report.ToString();
  EXPECT_GT(report.obligations_checked, 0u);
}

TEST_F(PayrollFixture, MetricFailureInvalidatesOnlyMetricGuarantees) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_TRUE(system_
                  .InstallStrategy("payroll", constraint_,
                                   (*suggestions)[0].strategy)
                  .ok());
  // Site B becomes slow from t=10s to t=60s.
  system_.failures().AddSlowdown("B", TimePoint::FromMillis(10000),
                                 TimePoint::FromMillis(60000),
                                 Duration::Seconds(30));
  system_.RunFor(Duration::Seconds(15));
  ASSERT_TRUE(system_
                  .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(70000))
                  .ok());
  system_.RunFor(Duration::Minutes(3));
  // Metric guarantee invalid, non-metric ones still valid.
  EXPECT_EQ(*system_.GuaranteeStatus("payroll/metric-y-follows-x"),
            GuaranteeValidity::kInvalid);
  EXPECT_EQ(*system_.GuaranteeStatus("payroll/y-follows-x"),
            GuaranteeValidity::kValid);
  EXPECT_EQ(*system_.GuaranteeStatus("payroll/x-leads-y"),
            GuaranteeValidity::kValid);
  // The update still arrives eventually (metric failure: delayed, not lost).
  EXPECT_EQ(*SalaryAtB(1), Value::Int(70000));
}

TEST_F(PayrollFixture, LogicalFailureInvalidatesEverythingUntilReset) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_TRUE(system_
                  .InstallStrategy("payroll", constraint_,
                                   (*suggestions)[0].strategy)
                  .ok());
  auto tr_b = system_.TranslatorAt("B");
  ASSERT_TRUE(tr_b.ok());
  (*tr_b)->set_crash_is_logical(true);
  // RIS-only crash: the CM processes at B keep running and observe it.
  system_.failures().AddOutage("B#ris", TimePoint::FromMillis(5000),
                               TimePoint::FromMillis(20000));
  system_.RunFor(Duration::Seconds(6));
  ASSERT_TRUE(system_
                  .WorkloadWrite(ItemId{"salary1", {Value::Int(1)}},
                                 Value::Int(70000))
                  .ok());
  system_.RunFor(Duration::Minutes(1));
  EXPECT_EQ(*system_.GuaranteeStatus("payroll/y-follows-x"),
            GuaranteeValidity::kInvalid);
  EXPECT_EQ(*system_.GuaranteeStatus("payroll/metric-y-follows-x"),
            GuaranteeValidity::kInvalid);
  // After the operator resets the site, guarantees are valid again.
  system_.guarantee_status().ResetSite("B", system_.executor().now());
  EXPECT_EQ(*system_.GuaranteeStatus("payroll/y-follows-x"),
            GuaranteeValidity::kValid);
}

// Counts what a sink attached straight to the recorder receives, and at
// each watermark how many recorded events are still waiting to be merged.
class CountingSink : public trace::TraceSink {
 public:
  explicit CountingSink(const trace::TraceRecorder* recorder)
      : recorder_(recorder) {}
  void OnEvent(const rule::Event&) override { ++delivered; }
  void OnWatermark(TimePoint) override {
    ++watermarks;
    max_pending = std::max(max_pending, recorder_->num_events() - delivered);
  }

  const trace::TraceRecorder* recorder_;
  size_t delivered = 0;
  size_t watermarks = 0;
  size_t max_pending = 0;
};

TEST_F(PayrollFixture, DrainSinkReceivesEventsDuringTheRun) {
  Deploy(kRidSiteA);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_TRUE(system_
                  .InstallStrategy("payroll", constraint_,
                                   (*suggestions)[0].strategy)
                  .ok());
  CountingSink sink(&system_.recorder());
  system_.recorder().AttachSink(&sink, /*drain=*/true);
  // 200 raises 3 s apart, all inside one RunFor: only the superstep
  // barriers can feed the sink before the run returns.
  constexpr int kRaises = 200;
  for (int i = 0; i < kRaises; ++i) {
    system_.executor().PostAt(
        "A", TimePoint::FromMillis(1000 + 3000 * i), [this, i] {
          EXPECT_TRUE(system_
                          .WorkloadWrite(
                              ItemId{"salary1", {Value::Int(1 + i % 2)}},
                              Value::Int(70000 + i))
                          .ok());
        });
  }
  system_.RunFor(Duration::Seconds(3 * kRaises + 30));
  size_t recorded = system_.recorder().num_events();
  EXPECT_GE(recorded, 4u * kRaises);  // Ws, N, WR, W per raise
  EXPECT_EQ(sink.delivered, recorded);
  EXPECT_GT(sink.watermarks, static_cast<size_t>(kRaises));
  // Merged at every barrier: a handful of events pending at most, never
  // the run's backlog.
  EXPECT_LT(sink.max_pending, 16u);
  trace::Trace t = system_.FinishTrace();
  EXPECT_TRUE(t.events.empty());  // drained
  EXPECT_EQ(sink.delivered, recorded);
}

TEST_F(PayrollFixture, InterfaceChangeScenario) {
  // Section 4.2.3's punchline: swapping site A's interface from notify to
  // read only requires re-running the suggestion step; the toolkit then
  // runs a polling strategy with weaker guarantees, with no change to the
  // databases.
  Deploy(kRidSiteAReadOnly);
  auto suggestions = system_.Suggest(constraint_);
  ASSERT_TRUE(suggestions.ok());
  ASSERT_EQ(suggestions->size(), 1u);
  EXPECT_EQ((*suggestions)[0].strategy.name, "polling");
  bool has_x_leads_y = false;
  for (const auto& g : (*suggestions)[0].strategy.guarantees) {
    if (g.name == "x-leads-y") has_x_leads_y = true;
  }
  EXPECT_FALSE(has_x_leads_y);
}

}  // namespace
}  // namespace hcm::toolkit
