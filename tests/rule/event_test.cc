#include "src/rule/event.h"

#include <gtest/gtest.h>

#include "src/rule/parser.h"

namespace hcm::rule {
namespace {

Event MakeNotify(const std::string& site, const std::string& base,
                 std::vector<Value> item_args, Value v) {
  Event e;
  e.time = TimePoint::FromMillis(1000);
  e.site = site;
  e.kind = EventKind::kNotify;
  e.item = ItemId{base, std::move(item_args)};
  e.values = {std::move(v)};
  return e;
}

TEST(EventKindTest, NamesRoundTrip) {
  for (EventKind k :
       {EventKind::kWriteSpont, EventKind::kWrite, EventKind::kWriteRequest,
        EventKind::kReadRequest, EventKind::kRead, EventKind::kNotify,
        EventKind::kPeriodic, EventKind::kInsert, EventKind::kDelete,
        EventKind::kFalse}) {
    auto parsed = ParseEventKind(EventKindName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(ParseEventKind("XX").ok());
}

TEST(EventKindTest, Arity) {
  EXPECT_EQ(EventPayloadArity(EventKind::kWriteSpont), 2u);
  EXPECT_EQ(EventPayloadArity(EventKind::kWrite), 1u);
  EXPECT_EQ(EventPayloadArity(EventKind::kReadRequest), 0u);
  EXPECT_EQ(EventPayloadArity(EventKind::kPeriodic), 1u);
  EXPECT_FALSE(EventKindHasItem(EventKind::kPeriodic));
  EXPECT_FALSE(EventKindHasItem(EventKind::kFalse));
  EXPECT_TRUE(EventKindHasItem(EventKind::kNotify));
}

TEST(EventTest, AccessorsAndToString) {
  Event e;
  e.time = TimePoint::FromMillis(1000);
  e.site = "SF";
  e.kind = EventKind::kWriteSpont;
  e.item = ItemId{"salary1", {Value::Int(17)}};
  e.values = {Value::Int(100), Value::Int(150)};
  EXPECT_EQ(e.old_value(), Value::Int(100));
  EXPECT_EQ(e.written_value(), Value::Int(150));
  EXPECT_TRUE(e.spontaneous());
  EXPECT_EQ(e.ToString(), "t=1.000s @SF Ws(salary1(17), 100, 150)");
}

// A parsed template compiled against its own slot map, with a frame sized
// for it.
struct CompiledTemplate {
  EventTemplate tpl;
  SlotMap slots;
  BindingFrame frame;

  bool Match(const Event& e) { return tpl.MatchesCompiled(e, &frame); }
  uint16_t Slot(const std::string& var) const {
    return static_cast<uint16_t>(slots.Find(var));
  }
  const Value& Get(const std::string& var) const {
    return frame.Get(Slot(var));
  }
};

CompiledTemplate Compile(const std::string& text) {
  auto tpl = ParseTemplate(text);
  EXPECT_TRUE(tpl.ok()) << text << ": " << tpl.status().ToString();
  CompiledTemplate c{*tpl, {}, {}};
  c.tpl.Compile(&c.slots);
  c.frame.Resize(c.slots.size());
  return c;
}

TEST(EventTemplateTest, MatchBindsVariables) {
  CompiledTemplate c = Compile("N(salary1(n), b)");
  Event e = MakeNotify("A", "salary1", {Value::Int(17)}, Value::Int(900));
  ASSERT_TRUE(c.Match(e));
  EXPECT_EQ(c.Get("n"), Value::Int(17));
  EXPECT_EQ(c.Get("b"), Value::Int(900));
}

TEST(EventTemplateTest, MismatchesLeaveBindingUntouched) {
  CompiledTemplate c = Compile("N(salary1(n), b)");
  // Wrong kind.
  Event w = MakeNotify("A", "salary1", {Value::Int(1)}, Value::Int(2));
  w.kind = EventKind::kWrite;
  EXPECT_FALSE(c.Match(w));
  // Wrong item base.
  Event other = MakeNotify("A", "salary9", {Value::Int(1)}, Value::Int(2));
  EXPECT_FALSE(c.Match(other));
  // Right item, wrong payload arity: the item binding is rolled back.
  Event short_payload = MakeNotify("A", "salary1", {Value::Int(1)},
                                   Value::Int(2));
  short_payload.values.clear();
  EXPECT_FALSE(c.Match(short_payload));
  EXPECT_EQ(c.frame.num_bound(), 0u);
}

TEST(EventTemplateTest, ExistingBindingConstrainsMatch) {
  CompiledTemplate c = Compile("N(salary1(n), b)");
  Event e = MakeNotify("A", "salary1", {Value::Int(17)}, Value::Int(900));
  c.frame.Set(c.Slot("n"), Value::Int(99));
  EXPECT_FALSE(c.Match(e));
  c.frame.Set(c.Slot("n"), Value::Int(17));
  EXPECT_TRUE(c.Match(e));
}

TEST(EventTemplateTest, SitePinRestrictsMatch) {
  CompiledTemplate c = Compile("N(X, b)@A");
  Event at_a = MakeNotify("A", "X", {}, Value::Int(1));
  Event at_b = MakeNotify("B", "X", {}, Value::Int(1));
  EXPECT_TRUE(c.Match(at_a));
  c.frame.Clear();
  EXPECT_FALSE(c.Match(at_b));
}

TEST(EventTemplateTest, WsShorthandNormalizes) {
  CompiledTemplate c = Compile("Ws(X, b)");
  EXPECT_EQ(c.tpl.values.size(), 2u);
  EXPECT_TRUE(c.tpl.values[0].is_wildcard());
  Event e;
  e.kind = EventKind::kWriteSpont;
  e.site = "A";
  e.item = ItemId{"X", {}};
  e.values = {Value::Int(1), Value::Int(2)};
  ASSERT_TRUE(c.Match(e));
  EXPECT_EQ(c.Get("b"), Value::Int(2));
}

TEST(EventTemplateTest, FalseTemplateNeverMatches) {
  CompiledTemplate c = Compile("F");
  Event e = MakeNotify("A", "X", {}, Value::Int(1));
  EXPECT_FALSE(c.Match(e));
  e.kind = EventKind::kFalse;
  EXPECT_FALSE(c.Match(e));
}

TEST(EventTemplateTest, InstantiateGroundsEvent) {
  auto tpl = ParseTemplate("WR(salary2(n), b)");
  ASSERT_TRUE(tpl.ok());
  SlotMap slots;
  tpl->Compile(&slots);
  const uint16_t n = static_cast<uint16_t>(slots.Find("n"));
  const uint16_t b = static_cast<uint16_t>(slots.Find("b"));
  BindingFrame frame(slots.size());
  frame.Set(n, Value::Int(17));
  frame.Set(b, Value::Int(900));
  auto event = tpl->InstantiateCompiled(frame);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->kind, EventKind::kWriteRequest);
  EXPECT_EQ(event->item.ToString(), "salary2(17)");
  EXPECT_EQ(event->values[0], Value::Int(900));
  // Unbound variable.
  BindingFrame partial(slots.size());
  partial.Set(n, Value::Int(1));
  EXPECT_FALSE(tpl->InstantiateCompiled(partial).ok());
}

TEST(EventTemplateTest, PeriodicTemplateMatchesPeriod) {
  CompiledTemplate c = Compile("P(300)");
  Event p;
  p.kind = EventKind::kPeriodic;
  p.site = "A";
  p.values = {Value::Int(300000)};  // canonical: period in ms
  EXPECT_TRUE(c.Match(p));
  Event p2 = p;
  p2.values = {Value::Int(60000)};
  EXPECT_FALSE(c.Match(p2));
}

TEST(EventTemplateTest, ToStringRoundTripsThroughParser) {
  for (const char* text :
       {"N(salary1(n), b)", "Ws(X, *, b)", "WR(Y, 5)", "RR(X)",
        "P(60000ms)", "INS(project(i))", "DEL(salary(i))", "F",
        "R(X, v)@B"}) {
    auto tpl = ParseTemplate(text);
    ASSERT_TRUE(tpl.ok()) << text << ": " << tpl.status().ToString();
    auto reparsed = ParseTemplate(tpl->ToString());
    ASSERT_TRUE(reparsed.ok()) << tpl->ToString();
    EXPECT_EQ(*reparsed, *tpl) << text;
  }
}

}  // namespace
}  // namespace hcm::rule
