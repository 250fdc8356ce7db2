#include "src/rule/binding.h"

#include <gtest/gtest.h>

#include "src/rule/parser.h"
#include "src/rule/rule.h"

namespace hcm::rule {
namespace {

Event MakeNotify(const std::string& base, std::vector<Value> args, Value v) {
  Event e;
  e.time = TimePoint::FromMillis(1000);
  e.site = "A";
  e.kind = EventKind::kNotify;
  e.item = ItemId{base, std::move(args)};
  e.values = {std::move(v)};
  return e;
}

TEST(SlotMapTest, AssignsSlotsInFirstSightOrder) {
  SlotMap slots;
  EXPECT_EQ(slots.SlotFor("n"), 0);
  EXPECT_EQ(slots.SlotFor("b"), 1);
  EXPECT_EQ(slots.SlotFor("n"), 0);  // idempotent
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots.name(0), "n");
  EXPECT_EQ(slots.name(1), "b");
  EXPECT_EQ(slots.Find("b"), 1);
  EXPECT_EQ(slots.Find("zz"), -1);
}

TEST(BindingFrameTest, SetGetAndJournal) {
  BindingFrame frame(3);
  EXPECT_EQ(frame.size(), 3u);
  EXPECT_FALSE(frame.IsBound(0));
  frame.Set(1, Value::Int(7));
  frame.Set(0, Value::Str("x"));
  EXPECT_TRUE(frame.IsBound(1));
  EXPECT_EQ(frame.Get(1), Value::Int(7));
  EXPECT_EQ(frame.num_bound(), 2u);
  // Binding order, not slot order.
  EXPECT_EQ(frame.bound_slots(), (std::vector<uint16_t>{1, 0}));
  // Re-binding overwrites without a second journal entry.
  frame.Set(1, Value::Int(8));
  EXPECT_EQ(frame.Get(1), Value::Int(8));
  EXPECT_EQ(frame.num_bound(), 2u);
}

TEST(BindingFrameTest, RollbackUnbindsPastTheMark) {
  BindingFrame frame(4);
  frame.Set(0, Value::Int(1));
  size_t mark = frame.mark();
  frame.Set(2, Value::Int(2));
  frame.Set(3, Value::Int(3));
  frame.Rollback(mark);
  EXPECT_TRUE(frame.IsBound(0));
  EXPECT_FALSE(frame.IsBound(2));
  EXPECT_FALSE(frame.IsBound(3));
  EXPECT_EQ(frame.num_bound(), 1u);
  frame.Clear();
  EXPECT_FALSE(frame.IsBound(0));
  EXPECT_EQ(frame.num_bound(), 0u);
}

TEST(BindingFrameTest, ToMapRendersThroughSlotNames) {
  SlotMap slots;
  uint16_t n = slots.SlotFor("n");
  uint16_t b = slots.SlotFor("b");
  BindingFrame frame(slots.size());
  frame.Set(b, Value::Int(900));
  frame.Set(n, Value::Int(17));
  auto map = frame.ToMap(slots);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at("n"), Value::Int(17));
  EXPECT_EQ(map.at("b"), Value::Int(900));
}

// The contract that lets a FireMessage carry a raw frame between shells:
// two independently parsed+compiled copies of the same rule text assign
// identical slots to every variable.
TEST(RuleCompileTest, IndependentCopiesAgreeOnSlots) {
  const char* text =
      "N(salary1(n), b) & b > 100 -> 5s Cx != b ? WR(salary2(n), b), W(Cx, b)";
  auto r1 = ParseRule(text);
  auto r2 = ParseRule(text);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());
  r1->Compile();
  r2->Compile();
  EXPECT_TRUE(r1->compiled);
  ASSERT_EQ(r1->slots.size(), r2->slots.size());
  for (uint16_t s = 0; s < r1->slots.size(); ++s) {
    EXPECT_EQ(r1->slots.name(s), r2->slots.name(s)) << "slot " << s;
  }
  EXPECT_EQ(r1->now_slot, r2->now_slot);
}

TEST(RuleCompileTest, CompiledMatchAgreesWithReferenceMatch) {
  auto r = ParseRule("N(salary1(n), b) -> 5s WR(salary2(n), b)");
  ASSERT_TRUE(r.ok());
  r->Compile();
  BindingFrame frame(r->slots.size());

  Event hit = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  Binding binding;
  ASSERT_TRUE(r->lhs.Matches(hit, &binding));
  ASSERT_TRUE(r->lhs.MatchesCompiled(hit, &frame));
  // Same variables, same values, via the slot map.
  EXPECT_EQ(frame.ToMap(r->slots), binding);
}

TEST(RuleCompileTest, FailedCompiledMatchRollsBackTheFrame) {
  auto r = ParseRule("N(salary1(n), n) -> 5s WR(salary2(n), n)");
  ASSERT_TRUE(r.ok());
  r->Compile();
  BindingFrame frame(r->slots.size());

  // Repeated variable n must unify: item arg 17 vs payload 900 fails, and
  // the failed attempt must leave no bindings behind.
  Event miss = MakeNotify("salary1", {Value::Int(17)}, Value::Int(900));
  Binding reference;
  EXPECT_FALSE(r->lhs.Matches(miss, &reference));
  EXPECT_FALSE(r->lhs.MatchesCompiled(miss, &frame));
  EXPECT_EQ(frame.num_bound(), 0u);

  // The same frame is then reusable for a matching event.
  Event hit = MakeNotify("salary1", {Value::Int(17)}, Value::Int(17));
  EXPECT_TRUE(r->lhs.MatchesCompiled(hit, &frame));
  EXPECT_EQ(frame.Get(static_cast<uint16_t>(r->slots.Find("n"))),
            Value::Int(17));
}

TEST(RuleCompileTest, WrongBaseOrKindRejectedByBothPaths) {
  auto r = ParseRule("N(salary1(n), b) -> 5s WR(salary2(n), b)");
  ASSERT_TRUE(r.ok());
  r->Compile();
  BindingFrame frame(r->slots.size());

  Event wrong_base = MakeNotify("salary9", {Value::Int(1)}, Value::Int(2));
  Binding binding;
  EXPECT_FALSE(r->lhs.Matches(wrong_base, &binding));
  EXPECT_FALSE(r->lhs.MatchesCompiled(wrong_base, &frame));

  Event wrong_kind = MakeNotify("salary1", {Value::Int(1)}, Value::Int(2));
  wrong_kind.kind = EventKind::kWrite;
  EXPECT_FALSE(r->lhs.Matches(wrong_kind, &binding));
  EXPECT_FALSE(r->lhs.MatchesCompiled(wrong_kind, &frame));
  EXPECT_EQ(frame.num_bound(), 0u);
}

}  // namespace
}  // namespace hcm::rule
