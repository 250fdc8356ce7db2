#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/sim/parallel_executor.h"
#include "src/storage/site_store.h"
#include "src/toolkit/system.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/streaming_checker.h"
#include "src/trace/valid_execution.h"
#include "tracer.h"

namespace hcm::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t Mix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t MixInt(uint64_t h, int64_t v) { return Mix(h, &v, sizeof(v)); }

uint64_t MixStr(uint64_t h, const std::string& s) {
  h = MixInt(h, static_cast<int64_t>(s.size()));
  return Mix(h, s.data(), s.size());
}

uint64_t MixValue(uint64_t h, const Value& v) {
  h = MixInt(h, static_cast<int64_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      return h;
    case ValueKind::kBool:
      return MixInt(h, v.AsBool() ? 1 : 0);
    case ValueKind::kInt:
      return MixInt(h, v.AsInt());
    case ValueKind::kReal: {
      double d = v.AsReal();
      return Mix(h, &d, sizeof(d));
    }
    case ValueKind::kStr:
      return MixStr(h, v.AsStr());
  }
  return h;
}

// A copy constraint as the observer sees it: writes of `source` must reach
// every item in `copies` (same arguments, same value).
struct Route {
  std::string source;
  std::vector<std::string> copies;
};

// The benchmark's own TraceSink: fingerprints the canonical event stream,
// measures propagation lag in one pass, and forwards every callback to an
// optional next sink (the streaming checker), timing the forwarded calls.
//
// Lag: each spontaneous source write opens a pending entry keyed by (route,
// item args, value); a copy write with the same key closes the oldest open
// entry that copy has not reached yet. When every copy is reached the lag
// is the last copy write's time minus the source write's time.
class Observer : public trace::TraceSink {
 public:
  Observer(const std::vector<Route>& routes, trace::TraceSink* next)
      : next_(next) {
    for (size_t r = 0; r < routes.size(); ++r) {
      roles_[routes[r].source] = Role{static_cast<uint32_t>(r), -1};
      for (size_t c = 0; c < routes[r].copies.size(); ++c) {
        roles_[routes[r].copies[c]] =
            Role{static_cast<uint32_t>(r), static_cast<int>(c)};
      }
      full_mask_.push_back((1u << routes[r].copies.size()) - 1);
    }
  }

  void OnInitialValue(const rule::ItemId& item, const Value& value) override {
    if (next_ == nullptr) return;
    ScopedSpan span(Layer::kTraceStreamSink);
    next_->OnInitialValue(item, value);
  }

  void OnEvent(const rule::Event& event) override {
    {
      ScopedSpan span(Layer::kObserve);
      Observe(event);
    }
    if (next_ == nullptr) return;
    ScopedSpan span(Layer::kTraceStreamSink);
    next_->OnEvent(event);
  }

  void OnWatermark(TimePoint watermark) override {
    if (next_ == nullptr) return;
    ScopedSpan span(Layer::kTraceStreamSink);
    next_->OnWatermark(watermark);
  }

  void OnFinish(TimePoint horizon) override {
    if (next_ == nullptr) return;
    {
      ScopedSpan span(Layer::kTraceStreamSink);
      next_->OnFinish(horizon);
    }
    finished_at_ = Clock::now();
  }

  // When the forwarded OnFinish returned: the streaming verdict is known.
  Clock::time_point finished_at() const { return finished_at_; }

  // Moves the fingerprint and lag figures into `r`.
  void Harvest(IterationResult* r) {
    r->fingerprint = fingerprint_;
    r->events = events_;
    r->source_updates = source_writes_;
    r->delivered = lag_ms_.size();
    r->lag_ms = std::move(lag_ms_);
  }

 private:
  struct Role {
    uint32_t route;
    int copy;  // -1 = the route's source
  };
  struct Pending {
    std::vector<Value> args;
    Value value;
    TimePoint written;
    TimePoint last;
    uint32_t reached = 0;
  };

  void Observe(const rule::Event& e) {
    uint64_t h = MixInt(fingerprint_, e.id);
    h = MixInt(h, e.time.millis());
    h = MixStr(h, e.site);
    h = MixInt(h, static_cast<int64_t>(e.kind));
    h = MixStr(h, e.item.base);
    for (const Value& v : e.item.args) h = MixValue(h, v);
    for (const Value& v : e.values) h = MixValue(h, v);
    h = MixInt(h, e.rule_id);
    h = MixInt(h, e.trigger_event_id);
    fingerprint_ = MixInt(h, e.rhs_step);
    ++events_;

    bool source_write = e.kind == rule::EventKind::kWriteSpont;
    if (!source_write && e.kind != rule::EventKind::kWrite) return;
    auto it = roles_.find(e.item.base);
    if (it == roles_.end()) return;
    const Role& role = it->second;
    if (source_write != (role.copy < 0)) return;
    const Value& value = e.written_value();
    uint64_t key = MixInt(kFnvBasis, role.route);
    for (const Value& v : e.item.args) key = MixValue(key, v);
    key = MixValue(key, value);
    if (source_write) {
      // A write of the value the source already holds changes nothing, so
      // there is nothing to propagate (the relational trigger, for one,
      // does not fire for it).
      if (e.old_value() == value) return;
      ++source_writes_;
      pending_[key].push_back(Pending{e.item.args, value, e.time, e.time, 0});
      return;
    }
    auto p = pending_.find(key);
    if (p == pending_.end()) return;
    uint32_t bit = 1u << role.copy;
    std::vector<Pending>& open = p->second;
    for (size_t i = 0; i < open.size(); ++i) {
      Pending& entry = open[i];
      if ((entry.reached & bit) != 0 || entry.args != e.item.args ||
          entry.value != value) {
        continue;
      }
      entry.reached |= bit;
      entry.last = std::max(entry.last, e.time);
      if (entry.reached == full_mask_[role.route]) {
        lag_ms_.push_back((entry.last - entry.written).millis());
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
        if (open.empty()) pending_.erase(p);
      }
      return;
    }
  }

  trace::TraceSink* next_;
  std::unordered_map<std::string, Role> roles_;
  std::vector<uint32_t> full_mask_;
  std::unordered_map<uint64_t, std::vector<Pending>> pending_;
  Clock::time_point finished_at_;
  uint64_t fingerprint_ = kFnvBasis;
  size_t events_ = 0;
  size_t source_writes_ = 0;
  std::vector<int64_t> lag_ms_;
};

// One spontaneous write of the pre-drawn input.
struct Update {
  TimePoint at;
  std::string site;
  rule::ItemId item;
  Value value;
};

void Require(const Status& s, const std::string& what,
             std::vector<std::string>* failures) {
  if (!s.ok()) failures->push_back(what + ": " + s.ToString());
}

// Rules as the System installs them: ids assigned in install order from 1,
// forbid rules skipped (they install as vetoes, not obligations).
void AppendInstalledRules(const spec::StrategySpec& strategy,
                          std::vector<rule::Rule>* rules) {
  for (rule::Rule r : strategy.rules) {
    if (r.forbids()) continue;
    r.id = static_cast<int64_t>(rules->size()) + 1;
    rules->push_back(std::move(r));
  }
}

// Posts every update at its pre-drawn instant on its source site's lane.
void ScheduleUpdates(toolkit::System& system, const std::vector<Update>& input,
                     std::atomic<size_t>* failed_writes) {
  ScopedSpan span(Layer::kSimSchedule);
  for (const Update& u : input) {
    system.executor().PostAt(u.site, u.at, [&system, &u, failed_writes] {
      ScopedSpan write(Layer::kRisAppWrite);
      if (!system.WorkloadWrite(u.item, u.value).ok()) {
        failed_writes->fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
}

void RunUntil(toolkit::System& system, TimePoint until) {
  ScopedSpan span(Layer::kSimRun);
  if (until > system.executor().now()) {
    system.RunFor(until - system.executor().now());
  }
}

void AddDispatchCounters(toolkit::System& system, size_t updates,
                         IterationResult* r) {
  toolkit::Shell::DispatchStats d = system.AggregateDispatchStats();
  double n = static_cast<double>(updates);
  r->counters["toolkit.firings_per_update"] =
      static_cast<double>(d.firings) / n;
  r->counters["rule.candidates_per_event"] =
      d.events_matched == 0 ? 0.0
                            : static_cast<double>(d.candidates_considered) /
                                  static_cast<double>(d.events_matched);
  r->counters["sim.messages_per_update"] =
      static_cast<double>(system.network().total_messages_sent()) / n;
}

// ---------------------------------------------------------------------------
// E1 payroll: relational sites A and B, salary1(n) at A copied to
// salary2(n) at B by the suggested notify -> write strategy.

constexpr const char* kPayrollRidA = R"(
ris relational
site A
param notify_delay 100ms
param read_delay 50ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
interface notify salary1(n) 1s
)";

constexpr const char* kPayrollRidB = R"(
ris relational
site B
param write_delay 100ms
item salary2
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface write salary2(n) 2s
)";

struct Payroll {
  std::unique_ptr<toolkit::System> system;
  spec::StrategySpec strategy;
  std::vector<rule::Rule> rules;
};

// Builds the deployment; setup failures land in `failures`.
Payroll BuildPayroll(const toolkit::SystemOptions& opts, int employees,
                     std::vector<std::string>* failures) {
  Payroll p;
  {
    ScopedSpan span(Layer::kToolkitConfigure);
    p.system = std::make_unique<toolkit::System>(opts);
  }
  toolkit::System& sys = *p.system;
  {
    ScopedSpan span(Layer::kRisSeed);
    for (const char* site : {"A", "B"}) {
      auto db = sys.AddRelationalSite(site);
      if (!db.ok()) {
        Require(db.status(), std::string("add site ") + site, failures);
        return p;
      }
      Require((*db)->Execute("create table employees (empid int primary "
                             "key, name str, salary int)")
                  .status(),
              "create table", failures);
      for (int n = 1; n <= employees; ++n) {
        Require((*db)->Execute("insert into employees values (" +
                               std::to_string(n) + ", 'emp', 50000)")
                    .status(),
                "seed row", failures);
      }
    }
  }
  {
    ScopedSpan span(Layer::kToolkitConfigure);
    Require(sys.ConfigureTranslator(kPayrollRidA), "configure A", failures);
    Require(sys.ConfigureTranslator(kPayrollRidB), "configure B", failures);
    for (int n = 1; n <= employees; ++n) {
      Require(sys.DeclareInitial(rule::ItemId{"salary1", {Value::Int(n)}}),
              "declare salary1", failures);
      Require(sys.DeclareInitial(rule::ItemId{"salary2", {Value::Int(n)}}),
              "declare salary2", failures);
    }
  }
  spec::Constraint constraint;
  {
    ScopedSpan span(Layer::kSpecSuggest);
    auto c = spec::MakeCopyConstraint("salary1(n)", "salary2(n)");
    if (!c.ok()) {
      Require(c.status(), "constraint", failures);
      return p;
    }
    auto suggestions = sys.Suggest(*c);
    if (!suggestions.ok() || suggestions->empty()) {
      failures->push_back("suggest: no strategy for payroll");
      return p;
    }
    constraint = *c;
    p.strategy = suggestions->front().strategy;
  }
  {
    ScopedSpan span(Layer::kToolkitInstall);
    Require(sys.InstallStrategy("payroll", constraint, p.strategy),
            "install strategy", failures);
  }
  AppendInstalledRules(p.strategy, &p.rules);
  return p;
}

// `updates` writes over `employees` rows, salaries uniform in [50000,
// 90000]. Gaps are kMinGapMs plus an exponential draw, `gap_ms` on average.
// The floor matters: sim time is whole milliseconds, and a source value
// that holds for under 2 ms offers y-strictly-follows-x no two distinct
// instants t3 < t4, so the checker would report a violation the paper's
// continuous-time proof rules out.
constexpr double kMinGapMs = 10;

std::vector<Update> PayrollInput(uint64_t seed, int employees, int updates,
                                 double gap_ms) {
  Rng rng(seed);
  std::vector<Update> input;
  input.reserve(static_cast<size_t>(updates));
  double t = 0;
  for (int u = 0; u < updates; ++u) {
    t += kMinGapMs + rng.Exponential(gap_ms - kMinGapMs);
    int n = static_cast<int>(rng.UniformInt(1, employees));
    int64_t salary = rng.UniformInt(50000, 90000);
    input.push_back(Update{TimePoint::FromMillis(static_cast<int64_t>(t)), "A",
                           rule::ItemId{"salary1", {Value::Int(n)}},
                           Value::Int(salary)});
  }
  return input;
}

const std::vector<Route> kPayrollRoutes = {{"salary1", {"salary2"}}};

// Settle time after the last update: every obligation's deadline passes
// and the guarantee checker's settle margin is covered.
constexpr Duration kSettle = Duration::Minutes(2);

void CheckDelivery(const IterationResult& r, size_t failed_writes,
                   std::vector<std::string>* failures) {
  if (failed_writes > 0) {
    failures->push_back(std::to_string(failed_writes) +
                        " workload writes failed");
  }
  if (r.delivered != r.source_updates) {
    failures->push_back("delivered_update_frac < 1: " +
                        std::to_string(r.delivered) + " of " +
                        std::to_string(r.source_updates) +
                        " updates reached every copy");
  }
}

void CheckReport(const trace::ExecutionReport& report,
                 std::vector<std::string>* failures) {
  if (!report.valid) {
    std::string what = "trace is not a valid execution";
    if (!report.violations.empty()) {
      what += ": " + report.violations.front().ToString();
    }
    failures->push_back(what);
  }
}

// payroll_verdict: a small payroll run on the classic engine whose cost is
// almost all offline checking — CheckValidExecution plus every guarantee
// the suggester offers for notify -> write.
class PayrollVerdict : public Workload {
 public:
  static constexpr int kEmployees = 8;
  static constexpr int kUpdates = 40;
  static constexpr double kGapMs = 100;

  explicit PayrollVerdict(const RunContext& ctx)
      : ctx_(ctx),
        input_(PayrollInput(ctx.seed, kEmployees, kUpdates, kGapMs)) {}

  std::string name() const override { return "payroll_verdict"; }
  std::string Describe() const override {
    return "E1 payroll, classic engine (num_threads=0), " +
           std::to_string(kEmployees) + " employees, " +
           std::to_string(kUpdates) + " updates at exponential gaps of mean " +
           std::to_string(static_cast<int>(kGapMs)) +
           " ms; offline CheckValidExecution + every suggested guarantee; "
           "storage off";
  }
  size_t updates() const override { return input_.size(); }

  IterationResult RunIteration() override {
    IterationResult r;
    std::atomic<size_t> failed_writes{0};
    Observer observer(kPayrollRoutes, nullptr);
    toolkit::SystemOptions opts;
    opts.seed = ctx_.seed;
    opts.network.seed = ctx_.seed;

    auto t0 = Clock::now();
    Payroll p;
    {
      ScopedSpan phase(Layer::kSetupPhase);
      p = BuildPayroll(opts, kEmployees, &r.failures);
      if (p.system != nullptr) {
        p.system->recorder().AttachSink(&observer, /*drain=*/false);
      }
    }
    auto t1 = Clock::now();
    r.setup_s = Seconds(t0, t1);
    if (!r.failures.empty()) return r;
    toolkit::System& sys = *p.system;
    {
      ScopedSpan phase(Layer::kRunPhase);
      ScheduleUpdates(sys, input_, &failed_writes);
      RunUntil(sys, input_.back().at + kSettle);
    }
    auto t2 = Clock::now();
    r.run_s = Seconds(t1, t2);
    trace::ExecutionReport report;
    std::vector<std::pair<std::string, trace::GuaranteeCheckResult>> checks;
    trace::Trace t;  // freed after the timed phases
    {
      ScopedSpan phase(Layer::kVerdictPhase);
      {
        ScopedSpan span(Layer::kTraceFinish);
        t = sys.FinishTrace();
      }
      {
        ScopedSpan span(Layer::kTraceValidCheck);
        report = trace::CheckValidExecution(t, p.rules);
      }
      trace::GuaranteeCheckOptions gopts;
      gopts.settle_margin = Duration::Minutes(1);
      for (const spec::Guarantee& g : p.strategy.guarantees) {
        ScopedSpan span(Layer::kTraceGuaranteeCheck);
        auto result = trace::CheckGuarantee(t, g, gopts);
        if (!result.ok()) {
          r.failures.push_back("guarantee " + g.name + ": " +
                               result.status().ToString());
          continue;
        }
        checks.emplace_back(g.name, std::move(*result));
      }
    }
    r.verdict_s = Seconds(t2, Clock::now());

    observer.Harvest(&r);
    CheckReport(report, &r.failures);
    CheckDelivery(r, failed_writes.load(), &r.failures);
    if (p.strategy.guarantees.size() != 4) {
      r.failures.push_back("expected the four notify->write guarantees, got " +
                           std::to_string(p.strategy.guarantees.size()));
    }
    uint64_t atom_evals = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (const auto& [name, result] : checks) {
      if (!result.holds) {
        r.failures.push_back("guarantee " + name + " does not hold: " +
                             result.ToString());
      }
      atom_evals += result.stats.atom_evals;
      hits += result.stats.sample_cache_hits;
      misses += result.stats.sample_cache_misses;
    }
    r.counters["trace.guarantee_atom_evals"] = static_cast<double>(atom_evals);
    r.counters["trace.sample_cache_hit_ratio"] =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
    AddDispatchCounters(sys, input_.size(), &r);
    return r;
  }

 private:
  RunContext ctx_;
  std::vector<Update> input_;
};

// payroll_durable: a large payroll run with storage on, checkpoints at a
// fixed sim period and clean crash/restart cycles of the copy site B, each
// shorter than B's largest rule deadline (so each is a metric failure).
class PayrollDurable : public Workload {
 public:
  static constexpr int kEmployees = 32;
  static constexpr int kUpdates = 20000;
  static constexpr double kGapMs = 50;
  static constexpr Duration kCheckpointPeriod = Duration::Seconds(10);
  static constexpr Duration kCrashPeriod = Duration::Seconds(100);
  static constexpr Duration kCrashOffset = Duration::Millis(3500);
  static constexpr Duration kOutage = Duration::Millis(500);

  explicit PayrollDurable(const RunContext& ctx)
      : ctx_(ctx),
        input_(PayrollInput(ctx.seed, kEmployees, kUpdates, kGapMs)),
        dir_(ctx.work_dir + "/payroll_durable") {
    for (TimePoint c = TimePoint::FromMillis(0) + kCrashPeriod + kCrashOffset;
         c + kOutage < input_.back().at; c = c + kCrashPeriod) {
      crashes_.push_back({c, c + kOutage});
    }
  }

  std::string name() const override { return "payroll_durable"; }
  std::string Describe() const override {
    return "E1 payroll, classic engine (num_threads=0), " +
           std::to_string(kEmployees) + " employees, " +
           std::to_string(kUpdates) + " updates at exponential gaps of mean " +
           std::to_string(static_cast<int>(kGapMs)) +
           " ms; storage at " + dir_ +
           " (fflush without fsync, 50 ms group commit), CheckpointStorage "
           "every 10 s sim, " + std::to_string(crashes_.size()) +
           " clean 500 ms crashes of B; outage-aware CheckValidExecution";
  }
  size_t updates() const override { return input_.size(); }

  IterationResult RunIteration() override {
    IterationResult r;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::atomic<size_t> failed_writes{0};
    Observer observer(kPayrollRoutes, nullptr);
    toolkit::SystemOptions opts;
    opts.seed = ctx_.seed;
    opts.network.seed = ctx_.seed;
    opts.storage.dir = dir_;

    // Journal counters reset at each reopen, so B's are read at every
    // restart instant, just before its recovery runs.
    struct Acc {
      uint64_t commits = 0;
      uint64_t bytes = 0;
    } before_restart;

    auto t0 = Clock::now();
    Payroll p;
    {
      ScopedSpan phase(Layer::kSetupPhase);
      p = BuildPayroll(opts, kEmployees, &r.failures);
      if (p.system != nullptr && r.failures.empty()) {
        toolkit::System& sys = *p.system;
        sys.recorder().AttachSink(&observer, /*drain=*/false);
        ScopedSpan span(Layer::kSimSchedule);
        auto store_b = sys.StoreAt("B");
        Require(store_b.status(), "store B", &r.failures);
        for (const auto& [crash, restart] : crashes_) {
          if (store_b.ok()) {
            storage::SiteStore* store = *store_b;
            sys.executor().ScheduleAt("B", restart, [store, &before_restart] {
              before_restart.commits += store->journal().commits();
              before_restart.bytes += store->journal().bytes_committed();
            });
          }
          Require(sys.ScheduleCrash("B", crash, restart, /*clean=*/true),
                  "schedule crash", &r.failures);
        }
      }
    }
    auto t1 = Clock::now();
    r.setup_s = Seconds(t0, t1);
    if (!r.failures.empty()) return r;
    toolkit::System& sys = *p.system;
    {
      ScopedSpan phase(Layer::kRunPhase);
      ScheduleUpdates(sys, input_, &failed_writes);
      // Checkpoints stop with the input, so recovery after the run folds a
      // base, its deltas and a journal tail.
      for (TimePoint c = TimePoint::FromMillis(0) + kCheckpointPeriod;
           c < input_.back().at; c = c + kCheckpointPeriod) {
        RunUntil(sys, c);
        ScopedSpan span(Layer::kStorageCheckpoint);
        Require(sys.CheckpointStorage(), "checkpoint", &r.failures);
      }
      RunUntil(sys, input_.back().at + kSettle);
    }
    auto t2 = Clock::now();
    r.run_s = Seconds(t1, t2);
    trace::ExecutionReport report;
    trace::Trace t;  // freed after the timed phases
    {
      ScopedSpan phase(Layer::kVerdictPhase);
      {
        ScopedSpan span(Layer::kTraceFinish);
        t = sys.FinishTrace();
      }
      ScopedSpan span(Layer::kTraceValidCheck);
      trace::ValidExecutionOptions vopts;
      for (const auto& w : sys.failures().DownWindows()) {
        vopts.outages.push_back(trace::SiteOutage{w.site, w.from, w.to});
      }
      report = trace::CheckValidExecution(t, p.rules, vopts);
    }
    r.verdict_s = Seconds(t2, Clock::now());

    observer.Harvest(&r);
    CheckReport(report, &r.failures);
    CheckDelivery(r, failed_writes.load(), &r.failures);
    CheckVoidWindows(sys, p.strategy, &r.failures);

    uint64_t commits = before_restart.commits;
    uint64_t bytes = before_restart.bytes;
    uint64_t deltas = 0;
    uint64_t compactions = 0;
    for (const char* site : {"A", "B"}) {
      auto store = sys.StoreAt(site);
      if (!store.ok()) continue;
      commits += (*store)->journal().commits();
      bytes += (*store)->journal().bytes_committed();
      deltas += (*store)->deltas_written();
      compactions += (*store)->compactions();
    }
    r.counters["storage.commits"] = static_cast<double>(commits);
    r.counters["storage.journal_bytes_per_update"] =
        static_cast<double>(bytes) / static_cast<double>(input_.size());
    r.counters["storage.deltas"] = static_cast<double>(deltas);
    r.counters["storage.compactions"] = static_cast<double>(compactions);
    AddDispatchCounters(sys, input_.size(), &r);

    // Close every store, then time reopening + recovering each site's
    // chain and journal tail the way a restarted process would.
    p.system.reset();
    auto t3 = Clock::now();
    {
      ScopedSpan phase(Layer::kRecoverPhase);
      uint64_t replayed = 0;
      uint64_t chain = 0;
      storage::StorageOptions sopts;
      sopts.dir = dir_;
      for (const char* site : {"A", "B"}) {
        auto s0 = Clock::now();
        ScopedSpan span(Layer::kStorageRecover);
        auto store = storage::SiteStore::Open(sopts, site);
        if (!store.ok()) {
          Require(store.status(), std::string("reopen ") + site, &r.failures);
          continue;
        }
        auto rec = (*store)->Recover();
        if (!rec.ok()) {
          Require(rec.status(), std::string("recover ") + site, &r.failures);
          continue;
        }
        r.recover_ms_per_site.push_back(Seconds(s0, Clock::now()) * 1e3);
        replayed += rec->replayed_records;
        chain += rec->chain_deltas;
        if (!rec->snapshot_found || rec->lost_records()) {
          r.failures.push_back(std::string("recovery of ") + site +
                               " found no snapshot or lost records");
        }
      }
      r.counters["storage.replayed_records"] = static_cast<double>(replayed);
      r.counters["storage.chain_deltas"] = static_cast<double>(chain);
    }
    r.recover_s = Seconds(t3, Clock::now());
    std::filesystem::remove_all(dir_, ec);
    return r;
  }

 private:
  // Every clean crash of B within its rule deadline is a metric failure:
  // each metric guarantee is void exactly over [crash, restart + max rule
  // delta of B), once per crash, and valid at the end; non-metric ones are
  // never voided.
  void CheckVoidWindows(toolkit::System& sys,
                        const spec::StrategySpec& strategy,
                        std::vector<std::string>* failures) const {
    for (const toolkit::FailureNotice& n : sys.guarantee_status().failures()) {
      if (n.failure_class != toolkit::FailureClass::kMetric) {
        failures->push_back("outage classed logical: " + n.ToString());
      }
    }
    // B re-establishes metric guarantees one largest rule deadline after
    // its restart.
    Duration delta = Duration::Zero();
    for (const rule::Rule& rule : strategy.rules) {
      delta = std::max(delta, rule.delta);
    }
    size_t metric = 0;
    for (const spec::Guarantee& g : strategy.guarantees) {
      auto detail = sys.guarantee_status().DetailOf("payroll/" + g.name);
      if (!detail.ok()) {
        failures->push_back("no status for guarantee " + g.name);
        continue;
      }
      bool ok = detail->validity == toolkit::GuaranteeValidity::kValid;
      if (g.is_metric()) {
        ++metric;
        ok = ok && detail->void_windows.size() == crashes_.size();
        for (size_t i = 0; ok && i < crashes_.size(); ++i) {
          ok = detail->void_windows[i].first == crashes_[i].first &&
               detail->void_windows[i].second == crashes_[i].second + delta;
        }
      } else {
        ok = ok && detail->void_windows.empty();
      }
      if (!ok) {
        failures->push_back("void windows of " + g.name +
                            " do not match the crashes: " +
                            detail->ToString());
      }
    }
    if (metric == 0) failures->push_back("no metric guarantee installed");
  }

  RunContext ctx_;
  std::vector<Update> input_;
  std::string dir_;
  std::vector<std::pair<TimePoint, TimePoint>> crashes_;
};

// ---------------------------------------------------------------------------
// E9 campus: the Stanford topology (whois -> filestore + relational copies,
// plus a monitor relay) replicated per department.

std::string Substitute(std::string text, const std::string& dept) {
  size_t pos;
  while ((pos = text.find('@')) != std::string::npos) {
    text.replace(pos, 1, dept);
  }
  return text;
}

constexpr const char* kWhoisRid = R"(
ris whois
site WHOIS@
param notify_delay 200ms
item phone@
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone@(n) 1s
)";

constexpr const char* kLookupRid = R"(
ris filestore
site LOOKUP@
item CsdPhone@
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone@(n) 2s
)";

constexpr const char* kGroupRid = R"(
ris relational
site GROUP@
item GroupPhone@
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone@(n) 2s
)";

class CampusStream : public Workload {
 public:
  static constexpr int kDepartments = 32;
  static constexpr int kStaff = 4;
  static constexpr int kRounds = 120;
  static constexpr int kPerRound = 4;
  static constexpr size_t kThreads = 2;

  explicit CampusStream(const RunContext& ctx) : ctx_(ctx) {
    Rng rng(ctx.seed);
    for (int r = 0; r < kRounds; ++r) {
      for (int d = 0; d < kDepartments; ++d) {
        std::string dept = std::to_string(d);
        for (int j = 0; j < kPerRound; ++j) {
          // Round r's j-th write in a department lands in its own 211 ms
          // slot, so a department's writes stay in order.
          int64_t at = 1000 * (r + 1) + j * 211 + rng.UniformInt(0, 150);
          int i = static_cast<int>(rng.Index(kStaff));
          std::string number = std::to_string(rng.UniformInt(200, 999)) + "-" +
                               std::to_string(rng.UniformInt(1000, 9999));
          input_.push_back(Update{
              TimePoint::FromMillis(at), "WHOIS" + dept,
              rule::ItemId{"phone" + dept,
                           {Value::Str("user" + std::to_string(i))}},
              Value::Str(number)});
        }
      }
    }
    for (int d = 0; d < kDepartments; ++d) {
      std::string dept = std::to_string(d);
      routes_.push_back(
          Route{"phone" + dept, {"CsdPhone" + dept, "GroupPhone" + dept}});
    }
  }

  std::string name() const override { return "campus_stream"; }
  std::string Describe() const override {
    return "E9 campus, lane engine with " + std::to_string(kThreads) +
           " worker threads, " + std::to_string(kDepartments) +
           " departments x 4 sites = " + std::to_string(kDepartments * 4) +
           " lanes, " + std::to_string(kStaff) + " staff each, " +
           std::to_string(input_.size()) +
           " updates; StreamingChecker in drain mode (properties 1-7, no "
           "sample-point guarantees); storage off";
  }
  size_t updates() const override { return input_.size(); }

  IterationResult RunIteration() override { return Run(kThreads); }
  // A 1-thread replay: the 2-thread iterations must reproduce its trace.
  IterationResult WarmUp() override { return Run(1); }

 private:
  void BuildDepartment(toolkit::System& sys, int dept,
                       std::vector<rule::Rule>* rules,
                       std::vector<std::string>* failures) {
    std::string d = std::to_string(dept);
    {
      ScopedSpan span(Layer::kRisSeed);
      auto whois = sys.AddWhoisSite("WHOIS" + d);
      auto lookup = sys.AddFileSite("LOOKUP" + d);
      auto group = sys.AddRelationalSite("GROUP" + d);
      if (!whois.ok() || !lookup.ok() || !group.ok()) {
        failures->push_back("add sites of department " + d);
        return;
      }
      Require((*group)->Execute("create table members (login str primary "
                                "key, phone str)")
                  .status(),
              "create table", failures);
      for (int i = 0; i < kStaff; ++i) {
        std::string login = "user" + std::to_string(i);
        (*whois)->Query("set " + login + " phone 000-0000");
        if ((*lookup)->Write("/staff/phone/" + login, "\"000-0000\"") !=
            ris::filestore::FileErrno::kOk) {
          failures->push_back("seed file of department " + d);
        }
        Require((*group)->Execute("insert into members values ('" + login +
                                  "', '000-0000')")
                    .status(),
                "seed row", failures);
      }
    }
    {
      ScopedSpan span(Layer::kToolkitConfigure);
      for (const char* rid : {kWhoisRid, kLookupRid, kGroupRid}) {
        Require(sys.ConfigureTranslator(Substitute(rid, d)), "configure",
                failures);
      }
      for (int i = 0; i < kStaff; ++i) {
        Value login = Value::Str("user" + std::to_string(i));
        for (std::string base : {"phone", "CsdPhone", "GroupPhone"}) {
          Require(sys.DeclareInitial(rule::ItemId{base + d, {login}}),
                  "declare", failures);
        }
      }
      Require(sys.RegisterPrivateItem("Relay" + d, "MON" + d), "relay item",
              failures);
    }
    for (std::string copy :
         {"CsdPhone" + d + "(n)", "GroupPhone" + d + "(n)"}) {
      spec::StrategySpec strategy;
      spec::Constraint constraint;
      {
        ScopedSpan span(Layer::kSpecSuggest);
        auto c = spec::MakeCopyConstraint("phone" + d + "(n)", copy);
        if (!c.ok()) {
          Require(c.status(), "constraint", failures);
          return;
        }
        auto suggestions = sys.Suggest(*c);
        if (!suggestions.ok() || suggestions->empty()) {
          failures->push_back("suggest: no strategy for " + copy);
          return;
        }
        constraint = *c;
        strategy = suggestions->front().strategy;
      }
      ScopedSpan span(Layer::kToolkitInstall);
      Require(sys.InstallStrategy("c/" + copy, constraint, strategy),
              "install", failures);
      AppendInstalledRules(strategy, rules);
    }
    // The department monitor's relay rule is monotone, so its messages
    // take the parallel engine's clamp-free elided path.
    spec::StrategySpec relay;
    spec::Constraint relay_constraint;
    {
      ScopedSpan span(Layer::kSpecSuggest);
      relay.name = "relay" + d;
      auto parsed =
          rule::ParseRuleSet(Substitute("relay@: N(phone@(n), b) -> 2s "
                                        "W(Relay@(n), b)",
                                        d));
      auto c =
          spec::MakeCopyConstraint("phone" + d + "(n)", "Relay" + d + "(n)");
      if (!parsed.ok() || !c.ok()) {
        failures->push_back("relay rule of department " + d);
        return;
      }
      relay.rules = *parsed;
      relay_constraint = *c;
    }
    ScopedSpan span(Layer::kToolkitInstall);
    Require(sys.InstallStrategy("relay/" + d, relay_constraint, relay),
            "install relay", failures);
    AppendInstalledRules(relay, rules);
  }

  IterationResult Run(size_t threads) {
    IterationResult r;
    std::atomic<size_t> failed_writes{0};
    toolkit::SystemOptions opts;
    opts.seed = ctx_.seed;
    opts.network.seed = ctx_.seed;
    opts.num_threads = threads;

    auto t0 = Clock::now();
    std::unique_ptr<trace::StreamingChecker> checker;
    std::unique_ptr<Observer> observer;
    std::unique_ptr<toolkit::System> system;
    {
      ScopedSpan phase(Layer::kSetupPhase);
      {
        ScopedSpan span(Layer::kToolkitConfigure);
        system = std::make_unique<toolkit::System>(opts);
      }
      std::vector<rule::Rule> rules;
      for (int d = 0; d < kDepartments && r.failures.empty(); ++d) {
        BuildDepartment(*system, d, &rules, &r.failures);
      }
      ScopedSpan span(Layer::kToolkitInstall);
      checker = std::make_unique<trace::StreamingChecker>(
          std::move(rules), std::vector<spec::Guarantee>{});
      Require(system->AttachStreamingChecker(checker.get(), /*drain=*/true),
              "attach checker", &r.failures);
      // The observer takes the recorder's sink slot and forwards to the
      // checker (which already received the initial values at attach).
      observer = std::make_unique<Observer>(routes_, checker.get());
      system->recorder().AttachSink(observer.get(), /*drain=*/true);
    }
    auto t1 = Clock::now();
    r.setup_s = Seconds(t0, t1);
    if (!r.failures.empty()) return r;
    toolkit::System& sys = *system;
    {
      ScopedSpan phase(Layer::kRunPhase);
      ScheduleUpdates(sys, input_, &failed_writes);
      RunUntil(sys, input_.back().at + kSettle);
    }
    auto t2 = Clock::now();
    r.run_s = Seconds(t1, t2);
    {
      ScopedSpan phase(Layer::kVerdictPhase);
      ScopedSpan span(Layer::kTraceFinish);
      sys.FinishTrace();
    }
    // The verdict is known when the checker's OnFinish returns; the rest of
    // FinishTrace assembles the (drained) trace object.
    r.verdict_s = Seconds(t2, observer->finished_at());

    observer->Harvest(&r);
    if (!checker->finished()) {
      r.failures.push_back("streaming checker did not finish");
    } else {
      CheckReport(checker->execution_report(), &r.failures);
      r.counters["trace.stream_live_peak"] =
          static_cast<double>(checker->stats().live_footprint_peak);
    }
    CheckDelivery(r, failed_writes.load(), &r.failures);
    AddDispatchCounters(sys, input_.size(), &r);
    if (auto* pex = dynamic_cast<sim::ParallelExecutor*>(&sys.executor())) {
      double cross = static_cast<double>(pex->cross_posts());
      r.counters["sim.supersteps"] = static_cast<double>(pex->supersteps());
      auto share = [cross](uint64_t n) {
        return cross == 0 ? 0.0 : static_cast<double>(n) / cross;
      };
      r.counters["sim.clamped_frac"] = share(pex->clamped_cross_posts());
      r.counters["sim.elided_frac"] = share(pex->elided_cross_posts());
      r.counters["sim.parallelism"] = pex->parallelism();
    }
    return r;
  }

  RunContext ctx_;
  std::vector<Update> input_;
  std::vector<Route> routes_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"payroll_verdict", "campus_stream", "payroll_durable"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunContext& ctx) {
  if (name == "payroll_verdict") return std::make_unique<PayrollVerdict>(ctx);
  if (name == "campus_stream") return std::make_unique<CampusStream>(ctx);
  if (name == "payroll_durable") return std::make_unique<PayrollDurable>(ctx);
  return nullptr;
}

}  // namespace hcm::bench_e2e
