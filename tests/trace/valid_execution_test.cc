#include "src/trace/valid_execution.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/rule/parser.h"
#include "src/trace/streaming_checker.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

// Everything a recorder delivers to its sink, kept so it can be played into
// a StreamingChecker built later, once a test has chosen its rules. The
// recorder feeds its sink only from SetInitialValue, AttachSink and Finish,
// so the played feed is exactly what an attached checker would have seen.
class FeedLog : public TraceSink {
 public:
  void OnInitialValue(const ItemId& item, const Value& value) override {
    steps_.push_back([item, value](TraceSink* s) {
      s->OnInitialValue(item, value);
    });
  }
  void OnEvent(const Event& event) override {
    steps_.push_back([event](TraceSink* s) { s->OnEvent(event); });
  }
  void OnWatermark(TimePoint w) override {
    steps_.push_back([w](TraceSink* s) { s->OnWatermark(w); });
  }
  void OnFinish(TimePoint horizon) override {
    steps_.push_back([horizon](TraceSink* s) { s->OnFinish(horizon); });
  }

  void PlayInto(TraceSink* sink) const {
    for (const auto& step : steps_) step(sink);
  }

 private:
  std::vector<std::function<void(TraceSink*)>> steps_;
};

// One checker's report on a test trace.
struct DriverReport {
  std::string driver;
  ExecutionReport report;
};

// Fixture around the propagation rule N(X, b) -> 5s WR(Y, b). Every case
// runs through both drivers of the property core: Check returns the
// offline CheckValidExecution report and the report of a StreamingChecker
// fed the same recording (rec_ has a tee-mode sink attached), and each
// case asserts on both.
class ValidExecutionTest : public ::testing::Test {
 protected:
  ValidExecutionTest() {
    auto r = rule::ParseRule("N(X, b) -> 5s WR(Y, b)");
    EXPECT_TRUE(r.ok());
    rule_ = *r;
    rule_.id = 1;
    rec_.AttachSink(&feed_, /*drain=*/false);
  }

  // `t` must be the trace `feed` recorded.
  static std::vector<DriverReport> Check(
      const Trace& t, const std::vector<rule::Rule>& rules,
      const FeedLog& feed, const ValidExecutionOptions& opts = {}) {
    std::vector<DriverReport> out;
    out.push_back({"offline", CheckValidExecution(t, rules, opts)});
    StreamingCheckOptions sopts;
    sopts.valid = opts;
    StreamingChecker streaming(rules, {}, sopts);
    feed.PlayInto(&streaming);
    EXPECT_TRUE(streaming.finished());
    out.push_back({"streaming", streaming.execution_report()});
    // Both drivers report through one core: the texts agree exactly.
    EXPECT_EQ(out[1].report.ToString(), out[0].report.ToString());
    return out;
  }

  std::vector<DriverReport> Check(const Trace& t,
                                  const std::vector<rule::Rule>& rules,
                                  const ValidExecutionOptions& opts = {}) {
    return Check(t, rules, feed_, opts);
  }

  Event Notify(int64_t ms, int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = EventKind::kNotify;
    e.item = ItemId{"X", {}};
    e.values = {Value::Int(v)};
    return e;
  }

  Event WriteRequest(int64_t ms, int64_t v, int64_t trigger_id) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "B";
    e.kind = EventKind::kWriteRequest;
    e.item = ItemId{"Y", {}};
    e.values = {Value::Int(v)};
    e.rule_id = 1;
    e.trigger_event_id = trigger_id;
    e.rhs_step = 0;
    return e;
  }

  rule::Rule rule_;
  FeedLog feed_;
  TraceRecorder rec_;
};

bool HasProperty(const ExecutionReport& report, int property) {
  for (const auto& v : report.violations) {
    if (v.property == property) return true;
  }
  return false;
}

TEST_F(ValidExecutionTest, CleanRunIsValid) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(1100, 7, n1));
  int64_t n2 = rec_.Record(Notify(2000, 9));
  rec_.Record(WriteRequest(3000, 9, n2));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
    EXPECT_EQ(report.obligations_checked, 2u);
  }
}

TEST_F(ValidExecutionTest, Property1OutOfOrderEvents) {
  // The recorder merges into time order, so build the trace directly. Only
  // the offline driver runs: the streaming checker's equivalence envelope
  // assumes a time-nondecreasing feed.
  Trace t;
  t.events = {Notify(2000, 1), Notify(100, 2)};  // goes back in time
  t.events[0].id = 0;
  t.events[1].id = 1;
  t.horizon = TimePoint::FromMillis(60000);
  auto report = CheckValidExecution(t, {});
  ASSERT_FALSE(report.valid);
  EXPECT_EQ(report.violations[0].property, 1);
}

TEST_F(ValidExecutionTest, Property2InconsistentOldValue) {
  Event w;
  w.time = TimePoint::FromMillis(100);
  w.site = "A";
  w.kind = EventKind::kWriteSpont;
  w.item = ItemId{"X", {}};
  w.values = {Value::Int(5), Value::Int(6)};  // claims old was 5
  rec_.Record(w);
  // Next spontaneous write claims old was 99, but the state says 6.
  Event w2 = w;
  w2.time = TimePoint::FromMillis(200);
  w2.values = {Value::Int(99), Value::Int(7)};
  rec_.Record(w2);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid) << report.ToString();
    EXPECT_EQ(report.violations[0].property, 2);
  }
}

TEST_F(ValidExecutionTest, Property4SpontaneousWithTrigger) {
  Event n = Notify(100, 1);
  n.trigger_event_id = 55;  // spontaneous events must not carry triggers
  rec_.Record(n);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 4);
  }
}

TEST_F(ValidExecutionTest, Property5UnknownRule) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  Event g = WriteRequest(1000, 7, n1);
  g.rule_id = 42;  // no such rule
  rec_.Record(g);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_TRUE(HasProperty(report, 5)) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property5ValueMismatch) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(1000, 999, n1));  // forwarded the wrong value
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_TRUE(HasProperty(report, 5)) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property5DeadlineMiss) {
  int64_t n1 = rec_.Record(Notify(100, 7));
  rec_.Record(WriteRequest(100 + 5001, 7, n1));  // 1ms past the 5s delta
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_TRUE(HasProperty(report, 5)) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property6MissedObligation) {
  rec_.Record(Notify(100, 7));  // never acted upon
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 6);
  }
}

TEST_F(ValidExecutionTest, Property6ObligationNotYetDueIsSkipped) {
  rec_.Record(Notify(100, 7));
  // Horizon before the 5s deadline: the run simply ended first.
  Trace t = rec_.Finish(TimePoint::FromMillis(2000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
    EXPECT_EQ(report.obligations_checked, 0u);
  }
}

TEST_F(ValidExecutionTest, Property6OutagesExtendDeadlineToFixedPoint) {
  rec_.Record(Notify(100, 7));  // the WR never fires
  Trace t = rec_.Finish(TimePoint::FromMillis(17000));
  // The step's site is unknown to the trace, so every outage covers the
  // rule. Listed out of order: the first pass reaches only [1s, 8s), whose
  // restart plus a fresh 5s delta (13s) reaches into [12.5s, 14s); the
  // second pass extends to 19s, past the 17s horizon, so the obligation is
  // skipped.
  auto outage = [](int64_t from_ms, int64_t to_ms) {
    return SiteOutage{"B", TimePoint::FromMillis(from_ms),
                      TimePoint::FromMillis(to_ms)};
  };
  ValidExecutionOptions opts;
  opts.outages = {outage(12500, 14000), outage(1000, 8000)};
  for (const auto& [driver, report] : Check(t, {rule_}, opts)) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
    EXPECT_EQ(report.obligations_checked, 0u);
  }
  // The first outage alone moves the deadline to 13s, before the horizon:
  // the missed obligation is reported.
  opts.outages = {outage(1000, 8000)};
  for (const auto& [driver, report] : Check(t, {rule_}, opts)) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.obligations_checked, 1u);
    EXPECT_EQ(report.violations[0].property, 6);
  }
}

TEST_F(ValidExecutionTest, Property6ProhibitionViolated) {
  auto forbid = rule::ParseRule("Ws(X, b) -> 0s F");
  ASSERT_TRUE(forbid.ok());
  forbid->id = 2;
  Event w;
  w.time = TimePoint::FromMillis(100);
  w.site = "A";
  w.kind = EventKind::kWriteSpont;
  w.item = ItemId{"X", {}};
  w.values = {Value::Null(), Value::Int(1)};
  rec_.Record(w);
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {*forbid})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_EQ(report.violations[0].property, 6);
    EXPECT_NE(report.violations[0].message.find("prohibition"),
              std::string::npos);
  }
}

TEST_F(ValidExecutionTest, Property6ConditionalStepMaySkip) {
  // Rule with a guarded step: only forward when CachedX differs.
  auto r = rule::ParseRule("N(X, b) -> 5s CachedX != b ? WR(Y, b)");
  ASSERT_TRUE(r.ok());
  r->id = 3;
  // CachedX = 7 throughout (initial value), notification carries 7:
  // the condition is false, so not firing is legitimate.
  rec_.SetInitialValue(ItemId{"CachedX", {}}, Value::Int(7));
  rec_.Record(Notify(100, 7));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {*r})) {
    SCOPED_TRACE(driver);
    EXPECT_TRUE(report.valid) << report.ToString();
  }
  // A notification with a different value must fire. Finish moved the
  // trace out of rec_, so rebuild the scenario on a fresh recorder.
  FeedLog feed2;
  TraceRecorder rec2;
  rec2.AttachSink(&feed2, /*drain=*/false);
  rec2.SetInitialValue(ItemId{"CachedX", {}}, Value::Int(7));
  rec2.Record(Notify(10000, 8));
  Trace t2 = rec2.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t2, {*r}, feed2)) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(report.valid);
    EXPECT_NE(report.ToString().find("condition held throughout"),
              std::string::npos)
        << report.ToString();
  }
}

TEST_F(ValidExecutionTest, Property7OutOfOrderProcessing) {
  int64_t n1 = rec_.Record(Notify(100, 1));
  int64_t n2 = rec_.Record(Notify(200, 2));
  // Second notification processed before the first: FIFO violation.
  rec_.Record(WriteRequest(1000, 2, n2));
  rec_.Record(WriteRequest(2000, 1, n1));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    ASSERT_FALSE(report.valid);
    EXPECT_TRUE(HasProperty(report, 7)) << report.ToString();
  }
}

TEST_F(ValidExecutionTest, ReportToStringMentionsProperties) {
  rec_.Record(Notify(100, 7));
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_})) {
    SCOPED_TRACE(driver);
    std::string s = report.ToString();
    EXPECT_NE(s.find("INVALID"), std::string::npos);
    EXPECT_NE(s.find("property 6"), std::string::npos);
  }
}

TEST_F(ValidExecutionTest, ViolationCapRespected) {
  ValidExecutionOptions opts;
  opts.max_violations = 2;
  for (int i = 0; i < 10; ++i) {
    rec_.Record(Notify(100 + i, 7));  // ten missed obligations
  }
  Trace t = rec_.Finish(TimePoint::FromMillis(60000));
  for (const auto& [driver, report] : Check(t, {rule_}, opts)) {
    SCOPED_TRACE(driver);
    EXPECT_FALSE(report.valid);
    EXPECT_EQ(report.violations.size(), 2u);
  }
}

}  // namespace
}  // namespace hcm::trace
