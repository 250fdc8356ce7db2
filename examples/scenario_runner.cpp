// scenario_runner — drive the toolkit from a declarative scenario file.
//
// Usage:  ./build/examples/scenario_runner [--threads=N] [scenario-file]
// With no scenario file, runs the embedded payroll scenario below.
// --threads=N runs it with N engine workers (default 1); the trace, and so
// every 'check', is the same at any N. Each 'check' also prints the
// executor's superstep/clamp/elision stats.
//
// Scenario format ('#' comments):
//   relational-site <name>          open a relational source
//     sql <statement>               seed it
//   whois-site <name>               open a whois source
//     query <request>               seed it
//   rid-begin ... rid-end           a CM-RID block (see docs/RID_FORMAT.md)
//   declare-initial <item>          record an item's value as initial state
//   constraint <key> copy <x> <y>   declare a copy constraint
//   install <key>                   install the first suggested strategy
//   at <duration> write <item> <value>   schedule a spontaneous write
//   run <duration>                  advance virtual time
//   check <key> settle <duration>   verify the installed guarantees
//   save-trace <path>               archive the trace (trace_inspector
//                                   reads it back)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/string_util.h"
#include "src/rule/lexer.h"
#include "src/rule/parser.h"
#include "src/toolkit/system.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/trace_io.h"

using namespace hcm;

namespace {

constexpr const char* kDefaultScenario = R"(
# The Section 4.2 payroll scenario, as a scenario file.
relational-site A
  sql create table employees (empid int primary key, name str, salary int)
  sql insert into employees values (1, 'ann', 50000)
  sql insert into employees values (2, 'bob', 60000)
relational-site B
  sql create table employees (empid int primary key, name str, salary int)
  sql insert into employees values (1, 'ann', 50000)
  sql insert into employees values (2, 'bob', 60000)
rid-begin
ris relational
site A
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
interface notify salary1(n) 1s
rid-end
rid-begin
ris relational
site B
item salary2
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface write salary2(n) 2s
rid-end
declare-initial salary1(1)
declare-initial salary1(2)
declare-initial salary2(1)
declare-initial salary2(2)
constraint payroll copy salary1(n) salary2(n)
install payroll
at 10s write salary1(1) 52000
at 40s write salary1(2) 61000
at 70s write salary1(1) 54000
run 3m
check payroll settle 30s
)";

// Parses an item like "salary1(1)" with ground arguments.
Result<rule::ItemId> ParseGroundItem(const std::string& text) {
  HCM_ASSIGN_OR_RETURN(rule::EventTemplate probe,
                       rule::ParseTemplate("RR(" + text + ")"));
  return probe.item.Ground(rule::Binding{});
}

class ScenarioRunner {
 public:
  explicit ScenarioRunner(toolkit::SystemOptions options = {})
      : system_(std::move(options)) {}

  Status Run(const std::string& text) {
    std::vector<std::string> lines = StrSplit(text, '\n');
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string line = StrTrim(lines[i]);
      if (line.empty() || line[0] == '#') continue;
      HCM_RETURN_IF_ERROR(Dispatch(line, lines, &i));
    }
    return Status::OK();
  }

  bool all_guarantees_hold() const { return all_hold_; }

 private:
  Status Dispatch(const std::string& line,
                  const std::vector<std::string>& lines, size_t* i) {
    std::vector<std::string> parts = StrSplitTrim(line, ' ');
    const std::string& cmd = parts[0];
    auto rest_after = [&](size_t n) {
      std::vector<std::string> tail(parts.begin() + n, parts.end());
      return StrJoin(tail, " ");
    };
    if (cmd == "relational-site") {
      HCM_ASSIGN_OR_RETURN(current_db_, system_.AddRelationalSite(parts.at(1)));
      current_whois_ = nullptr;
      return Status::OK();
    }
    if (cmd == "whois-site") {
      HCM_ASSIGN_OR_RETURN(current_whois_, system_.AddWhoisSite(parts.at(1)));
      current_db_ = nullptr;
      return Status::OK();
    }
    if (cmd == "sql") {
      if (current_db_ == nullptr) {
        return Status::FailedPrecondition("'sql' outside a relational site");
      }
      return current_db_->Execute(rest_after(1)).status();
    }
    if (cmd == "query") {
      if (current_whois_ == nullptr) {
        return Status::FailedPrecondition("'query' outside a whois site");
      }
      current_whois_->Query(rest_after(1));
      return Status::OK();
    }
    if (cmd == "rid-begin") {
      std::string rid;
      while (++*i < lines.size() && StrTrim(lines[*i]) != "rid-end") {
        rid += lines[*i] + "\n";
      }
      return system_.ConfigureTranslator(rid);
    }
    if (cmd == "declare-initial") {
      HCM_ASSIGN_OR_RETURN(rule::ItemId item, ParseGroundItem(parts.at(1)));
      return system_.DeclareInitial(item);
    }
    if (cmd == "constraint") {
      if (parts.at(2) != "copy") {
        return Status::Unimplemented("only copy constraints in scenarios");
      }
      HCM_ASSIGN_OR_RETURN(spec::Constraint c,
                           spec::MakeCopyConstraint(parts.at(3), parts.at(4)));
      constraints_[parts.at(1)] = c;
      return Status::OK();
    }
    if (cmd == "install") {
      auto it = constraints_.find(parts.at(1));
      if (it == constraints_.end()) {
        return Status::NotFound("unknown constraint " + parts.at(1));
      }
      HCM_ASSIGN_OR_RETURN(auto suggestions, system_.Suggest(it->second));
      if (suggestions.empty()) {
        return Status::FailedPrecondition("no applicable strategy for " +
                                          parts.at(1));
      }
      std::printf("install %s -> %s (%zu guarantees)\n",
                  parts.at(1).c_str(), suggestions[0].strategy.name.c_str(),
                  suggestions[0].strategy.guarantees.size());
      strategies_[parts.at(1)] = suggestions[0].strategy;
      return system_.InstallStrategy(parts.at(1), it->second,
                                     suggestions[0].strategy);
    }
    if (cmd == "at") {
      HCM_ASSIGN_OR_RETURN(Duration when,
                           rule::ParseDurationText(parts.at(1)));
      if (parts.at(2) != "write") {
        return Status::Unimplemented("only 'at ... write' is supported");
      }
      HCM_ASSIGN_OR_RETURN(rule::ItemId item, ParseGroundItem(parts.at(3)));
      HCM_ASSIGN_OR_RETURN(Value value, Value::Parse(parts.at(4)));
      system_.executor().ScheduleAt(
          TimePoint::Origin() + when, [this, item, value]() {
            Status s = system_.WorkloadWrite(item, value);
            std::printf("  %s write %s <- %s%s\n",
                        system_.executor().now().ToString().c_str(),
                        item.ToString().c_str(), value.ToString().c_str(),
                        s.ok() ? "" : (" FAILED: " + s.ToString()).c_str());
          });
      return Status::OK();
    }
    if (cmd == "run") {
      HCM_ASSIGN_OR_RETURN(Duration d, rule::ParseDurationText(parts.at(1)));
      system_.RunFor(d);
      return Status::OK();
    }
    if (cmd == "check") {
      HCM_ASSIGN_OR_RETURN(Duration settle,
                           rule::ParseDurationText(parts.at(3)));
      auto it = strategies_.find(parts.at(1));
      if (it == strategies_.end()) {
        return Status::NotFound("nothing installed under " + parts.at(1));
      }
      trace::Trace t = system_.recorder().trace();
      t.horizon = system_.executor().now();
      trace::GuaranteeCheckOptions opts;
      opts.settle_margin = settle;
      HCM_ASSIGN_OR_RETURN(
          auto results,
          trace::CheckGuarantees(t, it->second.guarantees, opts));
      std::printf("check %s (%zu events):\n", parts.at(1).c_str(),
                  t.events.size());
      for (const auto& [name, r] : results) {
        std::printf("  %-24s %s\n", name.c_str(), r.ToString().c_str());
        all_hold_ = all_hold_ && r.holds;
      }
      std::printf("%s", system_.DescribeDispatchStats().c_str());
      std::printf("%s", system_.DescribeExecutorStats().c_str());
      std::printf("%s", system_.DescribeStorageStats().c_str());
      return Status::OK();
    }
    if (cmd == "save-trace") {
      trace::Trace t = system_.recorder().trace();
      t.horizon = system_.executor().now();
      HCM_RETURN_IF_ERROR(trace::SaveTraceFile(t, parts.at(1)));
      std::printf("trace saved to %s (%zu events)\n", parts.at(1).c_str(),
                  t.events.size());
      return Status::OK();
    }
    return Status::InvalidArgument("unknown scenario command: " + cmd);
  }

  toolkit::System system_;
  ris::relational::Database* current_db_ = nullptr;
  ris::whois::WhoisServer* current_whois_ = nullptr;
  std::map<std::string, spec::Constraint> constraints_;
  std::map<std::string, spec::StrategySpec> strategies_;
  bool all_hold_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDefaultScenario;
  toolkit::SystemOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Worker threads of the site-sharded engine.
      options.num_threads = static_cast<size_t>(std::atol(argv[i] + 10));
      continue;
    }
    std::ifstream in(argv[i]);
    if (!in) {
      std::printf("cannot open %s\n", argv[i]);
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  ScenarioRunner runner(options);
  Status s = runner.Run(text);
  if (!s.ok()) {
    std::printf("scenario failed: %s\n", s.ToString().c_str());
    return 2;
  }
  return runner.all_guarantees_hold() ? 0 : 1;
}
