#include "src/rule/rule_index.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/rule/parser.h"

namespace hcm::rule {
namespace {

EventTemplate Tpl(const std::string& text) {
  auto t = ParseTemplate(text);
  EXPECT_TRUE(t.ok()) << text << ": " << t.status().ToString();
  return *t;
}

Event NotifyEvent(const std::string& base, int arg, int value) {
  Event e;
  e.kind = EventKind::kNotify;
  e.site = "A";
  e.item = ItemId{base, {Value::Int(arg)}};
  e.values = {Value::Int(value)};
  return e;
}

TEST(RuleIndexTest, ExactBucketHitsOnlyMatchingBase) {
  RuleIndex index;
  index.Add(Tpl("N(salary1(n), b)"), 0);
  index.Add(Tpl("N(salary2(n), b)"), 1);
  index.Add(Tpl("N(phone(n), b)"), 2);
  std::vector<size_t> out;
  index.Lookup(NotifyEvent("salary2", 7, 10), &out);
  EXPECT_EQ(out, (std::vector<size_t>{1}));
  index.Lookup(NotifyEvent("unknown", 7, 10), &out);
  EXPECT_TRUE(out.empty());
}

TEST(RuleIndexTest, KindMismatchMisses) {
  RuleIndex index;
  index.Add(Tpl("WR(salary1(n), b)"), 0);
  std::vector<size_t> out;
  // Same base, different kind: the WR bucket must not be consulted.
  index.Lookup(NotifyEvent("salary1", 7, 10), &out);
  EXPECT_TRUE(out.empty());
}

TEST(RuleIndexTest, PeriodicTemplatesLiveInWildcardBucket) {
  RuleIndex index;
  index.Add(Tpl("P(60)"), 0);
  index.Add(Tpl("N(salary1(n), b)"), 1);
  Event p;
  p.kind = EventKind::kPeriodic;
  p.values = {Value::Int(60000)};
  std::vector<size_t> out;
  index.Lookup(p, &out);
  EXPECT_EQ(out, (std::vector<size_t>{0}));
  RuleIndexStats stats = index.stats();
  EXPECT_EQ(stats.rules, 2u);
  EXPECT_EQ(stats.wildcard_rules, 1u);
  EXPECT_EQ(stats.exact_buckets, 1u);
}

TEST(RuleIndexTest, ParameterizedItemsShareTheirBaseBucket) {
  RuleIndex index;
  index.Add(Tpl("N(salary1(n), b)"), 0);   // open parameter
  index.Add(Tpl("N(salary1(17), b)"), 1);  // ground argument
  index.Add(Tpl("N(salary1(*), b)"), 2);   // wildcard argument
  std::vector<size_t> out;
  index.Lookup(NotifyEvent("salary1", 17, 5), &out);
  // All three are candidates (argument-level unification is the matcher's
  // job, not the index's), in insertion order.
  EXPECT_EQ(out, (std::vector<size_t>{0, 1, 2}));
}

TEST(RuleIndexTest, MergePreservesInsertionOrderAcrossBuckets) {
  RuleIndex index;
  index.Add(Tpl("N(x(n), b)"), 0);
  index.Add(Tpl("P(10)"), 1);  // wildcard bucket, between the two exacts
  index.Add(Tpl("N(x(*), b)"), 2);
  Event e = NotifyEvent("x", 1, 1);
  std::vector<size_t> out;
  index.Lookup(e, &out);
  // P cannot match an N event, but order among returned handles must be
  // insertion order; only the N bucket applies here.
  EXPECT_EQ(out, (std::vector<size_t>{0, 2}));

  // For an event kind with both exact and wildcard residents the runs
  // interleave by handle. (No item-less N exists, so exercise the merge
  // through the stats of a P event against multiple P templates.)
  index.Add(Tpl("P(20)"), 3);
  Event p;
  p.kind = EventKind::kPeriodic;
  p.values = {Value::Int(10000)};
  index.Lookup(p, &out);
  EXPECT_EQ(out, (std::vector<size_t>{1, 3}));
}

TEST(RuleIndexTest, StatsCountCandidatesAndAvoidedScans) {
  RuleIndex index;
  for (size_t i = 0; i < 10; ++i) {
    index.Add(Tpl("N(item" + std::to_string(i) + "(n), b)"), i);
  }
  std::vector<size_t> out;
  index.Lookup(NotifyEvent("item3", 1, 1), &out);
  RuleIndexStats stats = index.stats();
  EXPECT_EQ(stats.events_dispatched, 1u);
  EXPECT_EQ(stats.candidates_returned, 1u);
  EXPECT_EQ(stats.scans_avoided, 9u);
  EXPECT_DOUBLE_EQ(stats.CandidatesPerEvent(), 1.0);
  index.ResetTrafficStats();
  EXPECT_EQ(index.stats().events_dispatched, 0u);
}

// The acceptance test: on a randomized event stream, indexed dispatch must
// select exactly the rules the old full linear scan selects, in the same
// order.
TEST(RuleIndexTest, EquivalenceWithLinearScanOnRandomStream) {
  Rng rng(20260807);
  std::vector<EventTemplate> templates;
  RuleIndex index;
  const int kBases = 20;
  // A mixed population: ground args, open parameters, wildcard args,
  // different kinds, plus periodic (item-less) templates.
  for (int i = 0; i < 200; ++i) {
    std::string base = "item" + std::to_string(rng.UniformInt(0, kBases - 1));
    EventTemplate tpl;
    switch (rng.UniformInt(0, 4)) {
      case 0:
        tpl = Tpl("N(" + base + "(n), b)");
        break;
      case 1:
        tpl = Tpl("N(" + base + "(" +
                  std::to_string(rng.UniformInt(0, 5)) + "), b)");
        break;
      case 2:
        tpl = Tpl("Ws(" + base + "(*), a, b)");
        break;
      case 3:
        tpl = Tpl("WR(" + base + "(n), b)");
        break;
      default:
        tpl = Tpl("P(" + std::to_string(10 * (1 + rng.UniformInt(0, 5))) +
                  ")");
        break;
    }
    SlotMap slots;  // each template's variables get slots from 0
    tpl.Compile(&slots);
    index.Add(tpl, templates.size());
    templates.push_back(tpl);
  }
  BindingFrame frame(4);

  auto random_event = [&]() {
    Event e;
    e.site = "A";
    switch (rng.UniformInt(0, 3)) {
      case 0:
        e.kind = EventKind::kNotify;
        e.values = {Value::Int(rng.UniformInt(0, 100))};
        break;
      case 1:
        e.kind = EventKind::kWriteSpont;
        e.values = {Value::Int(rng.UniformInt(0, 100)),
                    Value::Int(rng.UniformInt(0, 100))};
        break;
      case 2:
        e.kind = EventKind::kWriteRequest;
        e.values = {Value::Int(rng.UniformInt(0, 100))};
        break;
      default:
        e.kind = EventKind::kPeriodic;
        e.values = {
            Value::Int(10000 * (1 + rng.UniformInt(0, 5)))};
        return e;
    }
    e.item = ItemId{"item" + std::to_string(rng.UniformInt(0, kBases - 1)),
                    {Value::Int(rng.UniformInt(0, 5))}};
    return e;
  };

  std::vector<size_t> candidates;
  for (int i = 0; i < 10000; ++i) {
    Event e = random_event();
    // Old path: full linear scan.
    std::vector<size_t> linear_fired;
    for (size_t t = 0; t < templates.size(); ++t) {
      frame.Clear();
      if (templates[t].MatchesCompiled(e, &frame)) linear_fired.push_back(t);
    }
    // New path: index lookup, then the same unification.
    std::vector<size_t> indexed_fired;
    index.Lookup(e, &candidates);
    for (size_t t : candidates) {
      frame.Clear();
      if (templates[t].MatchesCompiled(e, &frame)) indexed_fired.push_back(t);
    }
    ASSERT_EQ(indexed_fired, linear_fired)
        << "dispatch divergence on event " << e.ToString();
  }
  // The index must have pruned aggressively: candidates handed back are a
  // small fraction of rules × events.
  RuleIndexStats stats = index.stats();
  EXPECT_EQ(stats.events_dispatched, 10000u);
  EXPECT_LT(stats.CandidatesPerEvent(),
            static_cast<double>(templates.size()) / 4);
  EXPECT_GT(stats.scans_avoided, 0u);
}

}  // namespace
}  // namespace hcm::rule
