#ifndef HCM_TESTS_TOOLKIT_DEPLOYMENT_RUNS_H_
#define HCM_TESTS_TOOLKIT_DEPLOYMENT_RUNS_H_

// Seeded end-to-end deployment runs shared by the parallel-equivalence
// suite and the golden fixtures: the E1 payroll deployment (two relational
// sites), the E9 Stanford deployment (whois + filestore + relational) and
// a 105-lane Zipf-skewed department topology. Each run renders everything
// two runs must agree on to bytes (RunReport).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/trace/trace_io.h"
#include "src/trace/valid_execution.h"

namespace hcm::testrun {

struct RunReport {
  std::string trace_bytes;        // SerializeTrace of the finished trace
  std::string guarantee_report;   // GuaranteeCheckResult text, one per line
  std::string dispatch_stats;     // DescribeDispatchStats
  std::string execution_report;   // CheckValidExecution ToString
  std::vector<std::string> invalid_keys;
  uint64_t messages = 0;
  // Engine counters — themselves deterministic functions of the
  // simulation, so thread counts must agree on them too.
  uint64_t clamped = 0;
  uint64_t elided = 0;
};

// The rule program InstallStrategy distributed, reconstructed the same way
// it assigns ids: install order, skipping prohibitions, ids from 1.
inline std::vector<rule::Rule> InstalledRules(
    const std::vector<spec::StrategySpec>& strategies) {
  std::vector<rule::Rule> rules;
  int64_t next_id = 1;
  for (const auto& s : strategies) {
    for (rule::Rule r : s.rules) {
      if (r.forbids()) continue;
      r.id = next_id++;
      rules.push_back(std::move(r));
    }
  }
  return rules;
}

// Finishes the run and fills every report field. `rules` may be empty
// (no valid-execution check); `copies` lists the (x, y) pairs whose
// y-follows-x and x-leads-y guarantees are checked.
inline RunReport Finish(
    toolkit::System& system, const std::vector<rule::Rule>& rules,
    const std::vector<std::pair<std::string, std::string>>& copies,
    size_t check_threads) {
  RunReport report;
  report.messages = system.network().total_messages_sent();
  report.dispatch_stats = system.DescribeDispatchStats();
  report.clamped = system.executor().clamped_cross_posts();
  report.elided = system.executor().elided_cross_posts();
  trace::Trace t = system.FinishTrace();
  report.trace_bytes = trace::SerializeTrace(t);
  if (!rules.empty()) {
    trace::ValidExecutionOptions vopts;
    vopts.num_threads = check_threads;
    report.execution_report =
        trace::CheckValidExecution(t, rules, vopts).ToString();
  }
  trace::GuaranteeCheckOptions check;
  check.settle_margin = Duration::Minutes(1);
  for (const auto& [x, y] : copies) {
    for (auto make : {spec::YFollowsX, spec::XLeadsY}) {
      auto result = trace::CheckGuarantee(t, make(x, y), check);
      EXPECT_TRUE(result.ok());
      report.guarantee_report += result->ToString() + "\n";
    }
  }
  report.invalid_keys = system.guarantee_status().InvalidKeys();
  return report;
}

// --- E1: payroll copy constraint across two relational sites ---

inline RunReport RunPayroll(const toolkit::SystemOptions& opts,
                            uint64_t seed) {
  auto d = bench::PayrollDeployment::Create(
      "interface notify salary1(n) 1s\n", /*num_employees=*/6, opts);
  auto& system = *d.system;
  auto suggestions = *system.Suggest(d.constraint);
  EXPECT_EQ(system.InstallStrategy("payroll", d.constraint,
                                   suggestions.at(0).strategy),
            Status::OK());

  Rng rng(seed);
  for (int u = 0; u < 25; ++u) {
    int n = static_cast<int>(rng.UniformInt(1, 6));
    int salary = static_cast<int>(rng.UniformInt(50000, 90000));
    EXPECT_EQ(system.WorkloadWrite(rule::ItemId{"salary1", {Value::Int(n)}},
                                   Value::Int(salary)),
              Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(50, 2000)));
  }
  system.RunFor(Duration::Minutes(2));
  return Finish(system, InstalledRules({suggestions.at(0).strategy}),
                {{"salary1(n)", "salary2(n)"}}, opts.num_threads);
}

// --- E9: Stanford deployment (whois + filestore + relational) ---

constexpr const char* kRidWhois = R"(
ris whois
site WHOIS
param notify_delay 200ms
item phone
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone(n) 1s
)";

constexpr const char* kRidLookup = R"(
ris filestore
site LOOKUP
item CsdPhone
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone(n) 2s
)";

constexpr const char* kRidGroup = R"(
ris relational
site GROUP
item GroupPhone
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone(n) 2s
)";

inline RunReport RunStanford(const toolkit::SystemOptions& opts,
                             uint64_t seed) {
  constexpr int kStaff = 8;
  toolkit::System system(opts);
  auto* whois = *system.AddWhoisSite("WHOIS");
  auto* lookup = *system.AddFileSite("LOOKUP");
  auto* group = *system.AddRelationalSite("GROUP");
  group->Execute("create table members (login str primary key, phone str)");
  for (int i = 0; i < kStaff; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
    group->Execute("insert into members values ('" + login + "', '000-0000')");
  }
  EXPECT_EQ(system.ConfigureTranslator(kRidWhois), Status::OK());
  EXPECT_EQ(system.ConfigureTranslator(kRidLookup), Status::OK());
  EXPECT_EQ(system.ConfigureTranslator(kRidGroup), Status::OK());
  for (int i = 0; i < kStaff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone", {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone", {login}});
    system.DeclareInitial(rule::ItemId{"GroupPhone", {login}});
  }
  std::vector<spec::StrategySpec> installed;
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    EXPECT_EQ(system.InstallStrategy(std::string("c/") + copy, constraint,
                                     suggestions.at(0).strategy),
              Status::OK());
    installed.push_back(suggestions.at(0).strategy);
  }

  Rng rng(seed);
  for (int u = 0; u < 20; ++u) {
    int i = static_cast<int>(rng.Index(kStaff));
    std::string number = std::to_string(rng.UniformInt(200, 999)) + "-" +
                         std::to_string(rng.UniformInt(1000, 9999));
    EXPECT_EQ(
        system.WorkloadWrite(
            rule::ItemId{"phone", {Value::Str("user" + std::to_string(i))}},
            Value::Str(number)),
        Status::OK());
    system.RunFor(Duration::Millis(rng.UniformInt(200, 5000)));
  }
  system.RunFor(Duration::Minutes(2));
  return Finish(system, InstalledRules(installed),
                {{"phone(n)", "CsdPhone(n)"}, {"phone(n)", "GroupPhone(n)"}},
                opts.num_threads);
}

// --- Zipf-skewed wide topology: 35 departments x 3 sites = 105 lanes ---
//
// Department d owns WHOIS<d> (whois source of phone<d>), LOOKUP<d>
// (filestore copy CsdPhone<d>), and MON<d> (shell-only monitor whose relay
// rule is monotone, so its fires take the elided clamp-free path). The
// update stream is Zipf-distributed over departments: dept 0 sees ~an
// order of magnitude more traffic than the tail, so a few lanes run deep
// epoch chains while most sit idle — the regime where per-lane epoch
// synchronization, channel batching, and adaptive superstep depth earn
// their keep and where scheduling bugs would diverge first.

constexpr int kZipfDepts = 35;

inline std::string Subst(std::string text, const std::string& dept) {
  size_t pos;
  while ((pos = text.find('@')) != std::string::npos) {
    text.replace(pos, 1, dept);
  }
  return text;
}

inline void BuildZipfDept(toolkit::System& system, int dept) {
  std::string d = std::to_string(dept);
  auto* whois = *system.AddWhoisSite("WHOIS" + d);
  auto* lookup = *system.AddFileSite("LOOKUP" + d);
  for (int i = 0; i < 2; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
  }
  ASSERT_EQ(system.ConfigureTranslator(Subst(R"(
ris whois
site WHOIS@
param notify_delay 200ms
item phone@
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone@(n) 1s
)", d)), Status::OK());
  ASSERT_EQ(system.ConfigureTranslator(Subst(R"(
ris filestore
site LOOKUP@
item CsdPhone@
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone@(n) 2s
)", d)), Status::OK());
  for (int i = 0; i < 2; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone" + d, {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone" + d, {login}});
  }
  auto constraint =
      *spec::MakeCopyConstraint("phone" + d + "(n)", "CsdPhone" + d + "(n)");
  auto suggestions = *system.Suggest(constraint);
  ASSERT_EQ(system.InstallStrategy("c/" + d, constraint,
                                   suggestions.at(0).strategy),
            Status::OK());
  // The monotone relay: classified by rule::ClassifyMonotone at install
  // time, its fires are delivered without the window clamp.
  ASSERT_EQ(system.RegisterPrivateItem("Relay" + d, "MON" + d), Status::OK());
  spec::StrategySpec relay;
  relay.name = "relay" + d;
  relay.rules = *rule::ParseRuleSet(
      Subst("relay@: N(phone@(n), b) -> 2s W(Relay@(n), b)", d));
  auto relay_constraint =
      *spec::MakeCopyConstraint("phone" + d + "(n)", "Relay" + d + "(n)");
  ASSERT_EQ(system.InstallStrategy("relay/" + d, relay_constraint, relay),
            Status::OK());
}

inline RunReport RunZipf(const toolkit::SystemOptions& opts, uint64_t seed) {
  toolkit::System system(opts);
  for (int d = 0; d < kZipfDepts; ++d) {
    BuildZipfDept(system, d);
  }

  // Warm-up: one update per department early on, so every cross-lane
  // channel the workload uses exists before supersteps deepen (new-channel
  // first contact is the one place the engine may clamp to the superstep
  // horizon, and the soundness comparison needs both schedules past it).
  for (int d = 0; d < kZipfDepts; ++d) {
    system.executor().PostAt(
        "WHOIS" + std::to_string(d),
        TimePoint::FromMillis(100 + 25 * d), [&system, d] {
          system.WorkloadWrite(
              rule::ItemId{"phone" + std::to_string(d),
                           {Value::Str("user0")}},
              Value::Str("555-0000"));
        });
  }

  // Zipf-skewed measured stream: department weight 1/(d+1).
  std::vector<double> cumulative(kZipfDepts);
  double total = 0;
  for (int d = 0; d < kZipfDepts; ++d) {
    total += 1.0 / (d + 1);
    cumulative[d] = total;
  }
  struct Update {
    int dept;
    int user;
    std::string number;
  };
  std::vector<Update> workload;
  Rng rng(seed);
  for (int u = 0; u < 150; ++u) {
    double pick = total * static_cast<double>(rng.UniformInt(0, 1000000)) /
                  1000001.0;
    int dept = 0;
    while (dept < kZipfDepts - 1 && cumulative[dept] <= pick) ++dept;
    workload.push_back(Update{
        dept, static_cast<int>(rng.Index(2)),
        std::to_string(rng.UniformInt(200, 999)) + "-" +
            std::to_string(rng.UniformInt(1000, 9999))});
  }
  for (size_t u = 0; u < workload.size(); ++u) {
    const Update& up = workload[u];
    system.executor().PostAt(
        "WHOIS" + std::to_string(up.dept),
        TimePoint::FromMillis(2000 + 200 * u), [&system, &up] {
          system.WorkloadWrite(
              rule::ItemId{"phone" + std::to_string(up.dept),
                           {Value::Str("user" + std::to_string(up.user))}},
              Value::Str(up.number));
        });
  }
  system.RunFor(Duration::Millis(2000 + 200 * 150) + Duration::Minutes(2));
  EXPECT_GE(system.executor().num_lanes(), 105u);

  // Spot-check guarantees at the hot head, the middle, and the cold tail.
  std::vector<std::pair<std::string, std::string>> copies;
  for (int d : {0, 1, kZipfDepts / 2, kZipfDepts - 1}) {
    copies.emplace_back("phone" + std::to_string(d) + "(n)",
                        "CsdPhone" + std::to_string(d) + "(n)");
  }
  return Finish(system, /*rules=*/{}, copies, opts.num_threads);
}

}  // namespace hcm::testrun

#endif  // HCM_TESTS_TOOLKIT_DEPLOYMENT_RUNS_H_
