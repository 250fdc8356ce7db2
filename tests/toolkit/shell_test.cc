// Unit tests for the CM-Shell's engine mechanics, driven through a minimal
// hand-assembled deployment (no translators).

#include "src/toolkit/shell.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/rule/parser.h"
#include "src/toolkit/system.h"

namespace hcm::toolkit {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  ShellTest()
      : network_(&executor_, sim::NetworkConfig{}),
        shell_("S", &executor_, &network_, &recorder_, &registry_,
               &guarantees_) {
    EXPECT_TRUE(shell_.Initialize().ok());
    EXPECT_TRUE(registry_.RegisterPrivateItem("Cache", "S").ok());
    EXPECT_TRUE(registry_.RegisterPrivateItem("Count", "S").ok());
  }

  // Delivers an N event to the shell as its translator would.
  void DeliverNotify(const std::string& base, int64_t value) {
    rule::Event n;
    n.kind = rule::EventKind::kNotify;
    n.item = rule::ItemId{base, {}};
    n.values = {Value::Int(value)};
    ASSERT_TRUE(network_
                    .Send({TranslatorEndpoint("S"), "S", "event",
                           EventMessage{std::move(n)}})
                    .ok());
  }

  rule::Rule InstalledRule(const std::string& text, int64_t id) {
    auto r = rule::ParseRule(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    r->id = id;
    EXPECT_TRUE(shell_.AddLhsRule(*r, "S").ok());
    EXPECT_TRUE(shell_.AddRhsRule(*r).ok());
    return *r;
  }

  sim::ParallelExecutor executor_;
  sim::Network network_;
  trace::TraceRecorder recorder_;
  ItemRegistry registry_;
  GuaranteeStatusRegistry guarantees_;
  Shell shell_;
};

TEST_F(ShellTest, PrivateDataDefaultsToNull) {
  EXPECT_TRUE(shell_.ReadPrivate(rule::ItemId{"Cache", {}}).is_null());
  auto aux = shell_.ReadAuxiliary(rule::ItemId{"Cache", {}});
  ASSERT_TRUE(aux.ok());
  EXPECT_TRUE(aux->is_null());
}

TEST_F(ShellTest, WritePrivateRecordsEvent) {
  shell_.WritePrivate(rule::ItemId{"Cache", {}}, Value::Int(5), 7, 3, 0);
  EXPECT_EQ(shell_.ReadPrivate(rule::ItemId{"Cache", {}}), Value::Int(5));
  ASSERT_EQ(recorder_.num_events(), 1u);
  trace::Trace t = recorder_.trace();
  const auto& e = t.events[0];
  EXPECT_EQ(e.kind, rule::EventKind::kWrite);
  EXPECT_EQ(e.rule_id, 7);
  EXPECT_EQ(e.trigger_event_id, 3);
}

TEST_F(ShellTest, RuleFiresAndCountsFirings) {
  InstalledRule("cache: N(X, b) -> 5s W(Cache, b)", 1);
  DeliverNotify("X", 42);
  executor_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(shell_.ReadPrivate(rule::ItemId{"Cache", {}}), Value::Int(42));
  EXPECT_EQ(shell_.firings(), 1u);
}

TEST_F(ShellTest, ConditionGuardsStep) {
  InstalledRule("guarded: N(X, b) -> 5s Cache != b ? W(Count, b), "
                "W(Cache, b)",
                1);
  DeliverNotify("X", 42);
  executor_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(shell_.ReadPrivate(rule::ItemId{"Count", {}}), Value::Int(42));
  // Same value again: the guarded step is skipped, the cache write not.
  DeliverNotify("X", 42);
  executor_.RunFor(Duration::Seconds(10));
  // Count unchanged (still one W event for it in the trace).
  size_t count_writes = 0;
  for (const auto& e : recorder_.trace().events) {
    if (e.kind == rule::EventKind::kWrite && e.item.base == "Count") {
      ++count_writes;
    }
  }
  EXPECT_EQ(count_writes, 1u);
  EXPECT_EQ(shell_.firings(), 2u);
}

TEST_F(ShellTest, NowVariableBindsFiringTime) {
  InstalledRule("stamp: N(X, b) -> 5s W(Cache, now)", 1);
  executor_.RunFor(Duration::Seconds(3));
  DeliverNotify("X", 1);
  executor_.RunFor(Duration::Seconds(10));
  Value stamped = shell_.ReadPrivate(rule::ItemId{"Cache", {}});
  ASSERT_TRUE(stamped.is_int());
  EXPECT_GE(stamped.AsInt(), 3000);
  EXPECT_LE(stamped.AsInt(), 13000);
}

TEST_F(ShellTest, WriteOnNonPrivateItemIsRejected) {
  ASSERT_TRUE(registry_.RegisterDatabaseItem("DbItem", "S").ok());
  InstalledRule("bad: N(X, b) -> 5s W(DbItem, b)", 1);
  DeliverNotify("X", 9);
  executor_.RunFor(Duration::Seconds(10));
  // No W event was recorded for the database item (strategies must use WR).
  for (const auto& e : recorder_.trace().events) {
    EXPECT_FALSE(e.kind == rule::EventKind::kWrite &&
                 e.item.base == "DbItem");
  }
}

TEST_F(ShellTest, PeriodicRuleTicksAndRecordsPEvents) {
  auto r = rule::ParseRule("tick: P(2) -> 1s W(Count, 1)");
  ASSERT_TRUE(r.ok());
  r->id = 1;
  ASSERT_TRUE(shell_.AddLhsRule(*r, "S").ok());
  ASSERT_TRUE(shell_.AddRhsRule(*r).ok());
  ASSERT_TRUE(shell_.StartPeriodicRule(*r).ok());
  executor_.RunFor(Duration::Seconds(7));
  size_t p_events = 0;
  for (const auto& e : recorder_.trace().events) {
    if (e.kind == rule::EventKind::kPeriodic) ++p_events;
  }
  EXPECT_EQ(p_events, 3u);  // t=2,4,6
  EXPECT_EQ(shell_.firings(), 3u);
}

TEST_F(ShellTest, StartPeriodicRejectsNonPeriodicOrBadPeriod) {
  auto r = rule::ParseRule("x: N(X, b) -> 5s W(Cache, b)");
  ASSERT_TRUE(r.ok());
  r->id = 1;
  EXPECT_FALSE(shell_.StartPeriodicRule(*r).ok());
  auto p = rule::ParseRule("p: P(p) -> 1s W(Cache, 1)");
  ASSERT_TRUE(p.ok());
  p->id = 2;
  EXPECT_FALSE(shell_.StartPeriodicRule(*p).ok());  // variable period
}

TEST_F(ShellTest, AddPeriodicTaskRepeats) {
  int runs = 0;
  shell_.AddPeriodicTask(Duration::Seconds(5), [&] { ++runs; });
  executor_.RunFor(Duration::Seconds(21));
  EXPECT_EQ(runs, 4);  // t=5,10,15,20
}

// A periodic task's closure must be released once its chain ends: after
// the shell crashes (the stale tick runs once and stops) and when the
// System owning the shell is destroyed with a tick still pending.
TEST_F(ShellTest, PeriodicTaskClosureReleasedAfterCrash) {
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  shell_.AddPeriodicTask(Duration::Seconds(1), [sentinel] { ++*sentinel; });
  sentinel.reset();
  executor_.RunFor(Duration::Millis(3500));
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(*watch.lock(), 3);
  shell_.Crash();
  executor_.RunFor(Duration::Seconds(2));
  EXPECT_TRUE(watch.expired());
}

TEST(ShellLifetimeTest, PeriodicTaskClosureReleasedWithSystem) {
  auto sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> watch = sentinel;
  {
    System system;
    ASSERT_TRUE(system.RegisterPrivateItem("Cache", "A").ok());
    auto shell = system.ShellAt("A");
    ASSERT_TRUE(shell.ok());
    (*shell)->AddPeriodicTask(Duration::Seconds(1),
                              [sentinel] { ++*sentinel; });
    sentinel.reset();
    system.RunFor(Duration::Millis(2500));
    ASSERT_FALSE(watch.expired());
    EXPECT_EQ(*watch.lock(), 2);
  }
  EXPECT_TRUE(watch.expired());
}

TEST_F(ShellTest, DispatchStatsCountCandidatesAndMatches) {
  InstalledRule("r1: N(X, b) -> 5s W(Cache, b)", 1);
  InstalledRule("r2: N(Y, b) -> 5s W(Cache, b)", 2);
  InstalledRule("r3: N(Z, b) -> 5s W(Cache, b)", 3);
  DeliverNotify("X", 1);
  DeliverNotify("Y", 2);
  DeliverNotify("Unmatched", 3);
  executor_.RunFor(Duration::Seconds(10));
  Shell::DispatchStats stats = shell_.dispatch_stats();
  EXPECT_EQ(stats.installed_lhs_rules, 3u);
  EXPECT_EQ(stats.index_buckets, 3u);
  // 3 N events + the W(Cache) events generated by the two firings also run
  // through MatchEvent; only the N events produce candidates.
  EXPECT_GE(stats.events_matched, 3u);
  EXPECT_EQ(stats.candidates_considered, 2u);  // X and Y buckets, one each
  EXPECT_EQ(stats.lhs_matches, 2u);
  EXPECT_EQ(stats.firings, 2u);
  EXPECT_GT(stats.scans_avoided, 0u);
}

TEST_F(ShellTest, RhsRuleReplacedBetweenFireAndStepUsesNewBody) {
  rule::Rule v1 = InstalledRule("v1: N(X, b) -> 5s W(Cache, b)", 1);
  // Deliver the fire directly (local latency 1ms); the first RHS step then
  // runs step_delay (5ms) later. Replace the rule body in that window: the
  // step must re-look-up the rule by id and execute the replacement, not a
  // stale snapshot of the old body. The fire carries a frame laid out by
  // the rule's own slot map, as an LHS shell would send it.
  v1.Compile();
  FireMessage fire;
  fire.rule_id = 1;
  fire.trigger_event_id = 0;
  fire.trigger_time = executor_.now();
  fire.frame.Resize(v1.slots.size());
  fire.frame.Set(static_cast<uint16_t>(v1.slots.Find("b")), Value::Int(42));
  ASSERT_TRUE(network_.Send({"S", "S", "fire", fire}).ok());
  executor_.ScheduleAt(TimePoint::FromMillis(3), [this] {
    auto r2 = rule::ParseRule("v2: N(X, b) -> 5s W(Count, b)");
    ASSERT_TRUE(r2.ok());
    r2->id = 1;
    ASSERT_TRUE(shell_.AddRhsRule(*r2).ok());
  });
  executor_.RunFor(Duration::Seconds(10));
  EXPECT_TRUE(shell_.ReadPrivate(rule::ItemId{"Cache", {}}).is_null());
  EXPECT_EQ(shell_.ReadPrivate(rule::ItemId{"Count", {}}), Value::Int(42));
}

TEST_F(ShellTest, RulesWithoutIdsRejected) {
  auto r = rule::ParseRule("x: N(X, b) -> 5s W(Cache, b)");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(shell_.AddLhsRule(*r, "S").ok());
  EXPECT_FALSE(shell_.AddRhsRule(*r).ok());
}

TEST_F(ShellTest, ProhibitionRulesNotExecutable) {
  auto r = rule::ParseRule("nsw: Ws(X, b) -> 0s F");
  ASSERT_TRUE(r.ok());
  r->id = 1;
  EXPECT_FALSE(shell_.AddLhsRule(*r, "S").ok());
}

}  // namespace
}  // namespace hcm::toolkit
