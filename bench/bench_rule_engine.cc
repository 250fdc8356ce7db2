// Experiment E8 (Sections 4.1/7.2): toolkit mechanics microbenchmarks.
// The paper argues the CM-Shell is a lightweight general-purpose rule
// engine configured from text files. These google-benchmark measurements
// quantify the costs that make that plausible: template matching,
// unification-heavy matching with parameters, rule parsing, end-to-end
// event routing through shells and translators, and guarantee checking.

#include <benchmark/benchmark.h>

#include "src/common/symbols.h"
#include "src/rule/binding.h"
#include "src/rule/parser.h"
#include "src/rule/rule_index.h"
#include "src/toolkit/system.h"
#include "src/trace/guarantee_checker.h"

namespace hcm {
namespace {

rule::Event MakeNotifyEvent(int n, int v) {
  rule::Event e;
  e.time = TimePoint::FromMillis(1000);
  e.site = "A";
  e.kind = rule::EventKind::kNotify;
  e.item = rule::ItemId{"salary1", {Value::Int(n)}};
  e.values = {Value::Int(v)};
  return e;
}

// One template compiled against its own slots, matched through a reused
// frame as the shell does.
void MatchOneTemplate(benchmark::State& state, const std::string& text) {
  auto tpl = *rule::ParseTemplate(text);
  rule::SlotMap slots;
  tpl.Compile(&slots);
  rule::BindingFrame frame(slots.size());
  rule::Event e = MakeNotifyEvent(17, 900);
  for (auto _ : state) {
    frame.Clear();
    benchmark::DoNotOptimize(tpl.MatchesCompiled(e, &frame));
  }
}

void BM_TemplateMatchHit(benchmark::State& state) {
  MatchOneTemplate(state, "N(salary1(n), b)");
}
BENCHMARK(BM_TemplateMatchHit);

void BM_TemplateMatchMissOnKind(benchmark::State& state) {
  MatchOneTemplate(state, "WR(salary1(n), b)");
}
BENCHMARK(BM_TemplateMatchMissOnKind);

void BM_MatchAgainstRuleSet(benchmark::State& state) {
  // A shell's LHS scan over a growing installed-rule population.
  const int num_rules = static_cast<int>(state.range(0));
  std::vector<rule::Rule> rules;
  size_t max_slots = 0;
  for (int i = 0; i < num_rules; ++i) {
    rules.push_back(*rule::ParseRule(
        "N(item" + std::to_string(i) + "(n), b) -> 5s WR(copy" +
        std::to_string(i) + "(n), b)"));
    rules.back().Compile();
    max_slots = std::max(max_slots, rules.back().slots.size());
  }
  rule::BindingFrame frame(max_slots);
  rule::Event e;
  e.kind = rule::EventKind::kNotify;
  e.site = "A";
  e.item = rule::ItemId{"item" + std::to_string(num_rules / 2),
                        {Value::Int(3)}};
  e.values = {Value::Int(42)};
  for (auto _ : state) {
    int matches = 0;
    for (const auto& r : rules) {
      frame.Clear();
      if (r.lhs.MatchesCompiled(e, &frame)) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * num_rules);
}
BENCHMARK(BM_MatchAgainstRuleSet)->Arg(4)->Arg(32)->Arg(256);

// A template population shaped like a large installed strategy set: one
// N-template per distinct item base, plus ~1% periodic (wildcard-bucket)
// templates that every P event must consider. All compiled against
// `slots`.
std::vector<rule::EventTemplate> MakeDispatchTemplates(int num_rules,
                                                       rule::SlotMap* slots) {
  std::vector<rule::EventTemplate> templates;
  templates.reserve(num_rules);
  for (int i = 0; i < num_rules; ++i) {
    if (i % 100 == 99) {
      templates.push_back(*rule::ParseTemplate(
          "P(" + std::to_string(10 * (1 + i % 7)) + ")"));
    } else {
      templates.push_back(*rule::ParseTemplate(
          "N(item" + std::to_string(i) + "(n), b)"));
    }
    templates.back().Compile(slots);
  }
  return templates;
}

// No index: every installed rule is visited for every event, O(rules) per
// event.
void BM_LinearDispatch(benchmark::State& state) {
  const int num_rules = static_cast<int>(state.range(0));
  rule::SlotMap slots;
  auto templates = MakeDispatchTemplates(num_rules, &slots);
  rule::BindingFrame frame(slots.size());
  rule::Event e = MakeNotifyEvent(3, 42);
  e.item = rule::ItemId{"item" + std::to_string(num_rules / 2),
                        {Value::Int(3)}};
  for (auto _ : state) {
    int matches = 0;
    for (const auto& tpl : templates) {
      frame.Clear();
      if (tpl.MatchesCompiled(e, &frame)) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearDispatch)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// What Shell::MatchEvent runs: a (kind, item-base) RuleIndex lookup prunes
// the candidate set to the one bucket the event can hit, O(candidates) per
// event, and candidates are matched through compiled slots against one
// reusable BindingFrame.
void BM_CompiledDispatch(benchmark::State& state) {
  const int num_rules = static_cast<int>(state.range(0));
  rule::SlotMap slots;
  auto templates = MakeDispatchTemplates(num_rules, &slots);
  rule::RuleIndex index;
  for (size_t i = 0; i < templates.size(); ++i) index.Add(templates[i], i);
  rule::BindingFrame frame(slots.size());
  rule::Event e = MakeNotifyEvent(3, 42);
  e.item = rule::ItemId{"item" + std::to_string(num_rules / 2),
                        {Value::Int(3)}};
  e.base_sym = Symbols().Intern(e.item.base);  // as the shell's intake does
  std::vector<size_t> candidates;
  for (auto _ : state) {
    int matches = 0;
    index.Lookup(e, &candidates);
    for (size_t pos : candidates) {
      frame.Clear();
      if (templates[pos].MatchesCompiled(e, &frame)) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["candidates/event"] = index.stats().CandidatesPerEvent();
}
BENCHMARK(BM_CompiledDispatch)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Worst case for the index: a periodic event must still visit the whole
// wildcard bucket (all P templates).
void BM_IndexedDispatchWildcardEvent(benchmark::State& state) {
  const int num_rules = static_cast<int>(state.range(0));
  rule::SlotMap slots;
  auto templates = MakeDispatchTemplates(num_rules, &slots);
  rule::RuleIndex index;
  for (size_t i = 0; i < templates.size(); ++i) index.Add(templates[i], i);
  rule::BindingFrame frame(slots.size());
  rule::Event e;
  e.kind = rule::EventKind::kPeriodic;
  e.values = {Value::Int(10000)};
  std::vector<size_t> candidates;
  for (auto _ : state) {
    int matches = 0;
    index.Lookup(e, &candidates);
    for (size_t pos : candidates) {
      frame.Clear();
      if (templates[pos].MatchesCompiled(e, &frame)) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedDispatchWildcardEvent)->Arg(1000);

void BM_ConditionEval(benchmark::State& state) {
  auto cond = *rule::ParseExpr("abs(b - a) > a * 0.1 and b != 0");
  rule::Binding binding{{"a", Value::Int(100)}, {"b", Value::Int(120)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cond->EvalBool(binding, rule::NullDataReader));
  }
}
BENCHMARK(BM_ConditionEval);

void BM_ParseRule(benchmark::State& state) {
  const std::string text =
      "cached: N(salary1(n), b) -> 5s Cx != b ? WR(salary2(n), b), W(Cx, b)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(rule::ParseRule(text));
  }
}
BENCHMARK(BM_ParseRule);

void BM_ParseRid(benchmark::State& state) {
  const std::string rid = R"(
ris relational
site A
param write_delay 100ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
interface notify salary1(n) 1s
interface read salary1(n) 1s
)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(toolkit::ParseRid(rid));
  }
}
BENCHMARK(BM_ParseRid);

// End-to-end: one spontaneous write driven through trigger -> notify ->
// shell match -> fire -> write request -> native write, in virtual time.
void BM_EndToEndPropagation(benchmark::State& state) {
  toolkit::System system;
  for (const char* site : {"A", "B"}) {
    auto* db = *system.AddRelationalSite(site);
    db->Execute(
        "create table employees (empid int primary key, salary int)");
    db->Execute("insert into employees values (1, 50000)");
  }
  system.ConfigureTranslator(R"(
ris relational
site A
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
interface notify salary1(n) 1s
)");
  system.ConfigureTranslator(R"(
ris relational
site B
item salary2
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface write salary2(n) 2s
)");
  auto constraint = *spec::MakeCopyConstraint("salary1(n)", "salary2(n)");
  auto strategy = *spec::MakeUpdatePropagationStrategy(
      "salary1(n)", "salary2(n)", Duration::Seconds(5), Duration::Seconds(9));
  system.InstallStrategy("payroll", constraint, strategy);
  int64_t salary = 50000;
  for (auto _ : state) {
    system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(1)}},
                         Value::Int(++salary));
    system.RunFor(Duration::Seconds(10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndPropagation);

void BM_GuaranteeCheckYFollowsX(benchmark::State& state) {
  // Checker throughput over a synthetic clean-propagation trace.
  const int updates = static_cast<int>(state.range(0));
  trace::TraceRecorder rec;
  rule::ItemId x{"X", {}};
  rule::ItemId y{"Y", {}};
  rec.SetInitialValue(x, Value::Int(0));
  rec.SetInitialValue(y, Value::Int(0));
  for (int i = 1; i <= updates; ++i) {
    rule::Event ws;
    ws.time = TimePoint::FromMillis(i * 1000);
    ws.site = "A";
    ws.kind = rule::EventKind::kWriteSpont;
    ws.item = x;
    ws.values = {Value::Int(i - 1), Value::Int(i)};
    rec.Record(ws);
    rule::Event w;
    w.time = TimePoint::FromMillis(i * 1000 + 200);
    w.site = "B";
    w.kind = rule::EventKind::kWrite;
    w.item = y;
    w.values = {Value::Int(i)};
    rec.Record(w);
  }
  trace::Trace t = rec.Finish(TimePoint::FromMillis((updates + 10) * 1000));
  spec::Guarantee g = spec::YFollowsX("X", "Y");
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::CheckGuarantee(t, g));
  }
  state.SetItemsProcessed(state.iterations() * updates);
}
BENCHMARK(BM_GuaranteeCheckYFollowsX)->Arg(50)->Arg(200);

}  // namespace
}  // namespace hcm

BENCHMARK_MAIN();
