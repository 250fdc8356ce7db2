// Experiment E9 (Section 4.3): the Stanford deployment at scale. The
// paper's qualitative claim: the toolkit coordinates several loosely
// coupled heterogeneous databases "without modifying the databases or the
// existing applications", with per-constraint work that scales with the
// update stream, not with the number of items. This harness grows the
// population across the whois + file + relational deployment, drives a
// mixed update stream, and reports event counts, CM messages, rule
// firings, wall-clock cost, and guarantee validity.
//
// It also sweeps SystemOptions::num_threads over a deliberately wide
// topology — 32 departments x 4 sites = 128 lanes, a >1e5-event update
// stream — so the epoch-synchronized engine has real concurrency to
// exploit: the same deployment runs at 1/2/4/8 worker threads, reporting
// wall clock, ns/event, the critical-path parallelism of the workload
// (total callbacks / sum of per-epoch maxima — the speedup an unbounded
// machine could reach, independent of this host's core count), superstep /
// clamp / CALM-elision counters, and an FNV hash of the full trace that
// must agree bit-for-bit across thread counts. Each department also hosts
// a monitor site whose relay rule is classified monotone, exercising the
// clamp-free elided delivery path at scale.
// Pass --json=FILE to dump the rows; --threads=N runs a single quick
// parallel cell as a CI smoke (prints wall_ms=... for regression gates).

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/sim/parallel_executor.h"

namespace hcm::bench {
namespace {

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

struct Row {
  int staff;
  int updates;
  size_t events;
  uint64_t messages;
  uint64_t firings;
  double wall_ms;
  bool copies_ok;
};

// Builds the three-site Stanford deployment with both copy constraints
// installed and `staff` members seeded everywhere.
void BuildStanford(toolkit::System& system, int staff) {
  auto* whois = *system.AddWhoisSite("WHOIS");
  auto* lookup = *system.AddFileSite("LOOKUP");
  auto* group = *system.AddRelationalSite("GROUP");
  group->Execute("create table members (login str primary key, phone str)");
  for (int i = 0; i < staff; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
    group->Execute("insert into members values ('" + login +
                   "', '000-0000')");
  }
  system.ConfigureTranslator(kRidWhois);
  system.ConfigureTranslator(kRidLookup);
  system.ConfigureTranslator(kRidGroup);
  for (int i = 0; i < staff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone", {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone", {login}});
    system.DeclareInitial(rule::ItemId{"GroupPhone", {login}});
  }
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    system.InstallStrategy(std::string("c/") + copy, constraint,
                           suggestions.at(0).strategy);
  }
}

bool CheckCopies(const trace::Trace& t) {
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Minutes(1);
  bool ok = true;
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    ok = ok &&
         trace::CheckGuarantee(t, spec::YFollowsX("phone(n)", copy), opts)
             ->holds &&
         trace::CheckGuarantee(t, spec::XLeadsY("phone(n)", copy), opts)
             ->holds;
  }
  return ok;
}

Row RunCell(int staff, int updates) {
  toolkit::System system;
  BuildStanford(system, staff);

  // Wall clock covers the simulation only — setup and the offline
  // guarantee checks are not part of the per-event cost being measured.
  auto start = std::chrono::steady_clock::now();
  Rng rng(static_cast<uint64_t>(staff) * 1000 + 77);
  for (int u = 0; u < updates; ++u) {
    int i = static_cast<int>(rng.Index(static_cast<size_t>(staff)));
    std::string number =
        std::to_string(rng.UniformInt(200, 999)) + "-" +
        std::to_string(rng.UniformInt(1000, 9999));
    system.WorkloadWrite(
        rule::ItemId{"phone", {Value::Str("user" + std::to_string(i))}},
        Value::Str(number));
    system.RunFor(Duration::Seconds(5));
  }
  system.RunFor(Duration::Minutes(2));
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  Row row;
  row.staff = staff;
  row.updates = updates;
  row.wall_ms = wall_ms;
  row.messages = system.network().total_messages_sent();
  row.firings = (*system.ShellAt("WHOIS"))->firings() +
                (*system.ShellAt("LOOKUP"))->firings() +
                (*system.ShellAt("GROUP"))->firings();
  trace::Trace t = system.FinishTrace();
  row.events = t.events.size();
  row.copies_ok = CheckCopies(t);
  return row;
}

struct ParallelRow {
  size_t threads;
  size_t lanes;
  size_t events;
  uint64_t messages;
  uint64_t windows;
  uint64_t supersteps;
  uint64_t cross_posts;
  uint64_t clamped;
  uint64_t elided;
  double parallelism;
  double wall_ms;
  uint64_t trace_hash;
  bool copies_ok;
  std::string stats_block;
};

// The multi-department Stanford deployment for the threads sweep: the §4.3
// topology replicated per department (departments scale the deployment the
// way the paper's campus does — more autonomous site clusters, not bigger
// ones). Department d has sites WHOIS<d>/LOOKUP<d>/GROUP<d> maintaining
// copy constraints over phone<d>.
// Expands '@' to the department number ('$1'/'$v' are RID placeholders and
// must survive untouched).
std::string Substitute(std::string text, const std::string& dept) {
  size_t pos;
  while ((pos = text.find('@')) != std::string::npos) {
    text.replace(pos, 1, dept);
  }
  return text;
}

void BuildDepartment(toolkit::System& system, int dept, int staff) {
  std::string d = std::to_string(dept);
  auto* whois = *system.AddWhoisSite("WHOIS" + d);
  auto* lookup = *system.AddFileSite("LOOKUP" + d);
  auto* group = *system.AddRelationalSite("GROUP" + d);
  group->Execute("create table members (login str primary key, phone str)");
  for (int i = 0; i < staff; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
    group->Execute("insert into members values ('" + login +
                   "', '000-0000')");
  }
  system.ConfigureTranslator(Substitute(R"(
ris whois
site WHOIS@
param notify_delay 200ms
item phone@
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone@(n) 1s
)", d));
  system.ConfigureTranslator(Substitute(R"(
ris filestore
site LOOKUP@
item CsdPhone@
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone@(n) 2s
)", d));
  system.ConfigureTranslator(Substitute(R"(
ris relational
site GROUP@
item GroupPhone@
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone@(n) 2s
)", d));
  for (int i = 0; i < staff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone" + d, {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone" + d, {login}});
    system.DeclareInitial(rule::ItemId{"GroupPhone" + d, {login}});
  }
  for (std::string copy : {"CsdPhone" + d + "(n)", "GroupPhone" + d + "(n)"}) {
    auto constraint =
        *spec::MakeCopyConstraint("phone" + d + "(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    system.InstallStrategy("c/" + copy, constraint,
                           suggestions.at(0).strategy);
  }
  // Per-department monitor: a shell-only site whose relay rule accumulates
  // every phone notification into CM-private state. The rule is exactly
  // what rule::ClassifyMonotone accepts (unguarded N head, one
  // unconditional private W), so its fires ride the clamp-free elided path
  // — a quarter of the deployment's cross-lane traffic skips coordination.
  system.RegisterPrivateItem("Relay" + d, "MON" + d);
  spec::StrategySpec relay;
  relay.name = "relay" + d;
  relay.rules = *rule::ParseRuleSet(
      Substitute("relay@: N(phone@(n), b) -> 2s W(Relay@(n), b)", d));
  auto relay_constraint =
      *spec::MakeCopyConstraint("phone" + d + "(n)", "Relay" + d + "(n)");
  system.InstallStrategy("relay/" + d, relay_constraint, relay);
}

// FNV-1a over every event's rendered form: a cheap bit-for-bit determinism
// fingerprint — all thread counts must produce the same hash.
uint64_t TraceHash(const trace::Trace& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const rule::Event& e : t.events) {
    for (char c : e.ToString()) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= '\n';
    h *= 0x100000001b3ull;
  }
  return h;
}

// One E9 cell on the parallel engine: `departments` replicated Stanford
// clusters (4 lanes each: WHOIS/LOOKUP/GROUP/MON), `upr` updates per
// department per one-second round. The update stream is scheduled
// in-simulation on each department's WHOIS lane (site-tagged), so update
// handling, propagation, replica application, and monitor relays overlap
// inside the conservative epochs instead of serializing through the
// driving thread.
ParallelRow RunParallelCell(int departments, int per_dept, int rounds,
                            int upr, size_t threads, int sim_reps = 1) {
  // Precompute the workload so every thread count (and every repetition)
  // replays the exact same update stream.
  struct Update {
    rule::ItemId item;
    Value value;
  };
  std::vector<Update> workload;
  Rng rng(static_cast<uint64_t>(departments * per_dept) * 1000 + 77);
  for (int r = 0; r < rounds; ++r) {
    for (int d = 0; d < departments; ++d) {
      for (int j = 0; j < upr; ++j) {
        int i = static_cast<int>(rng.Index(static_cast<size_t>(per_dept)));
        std::string number =
            std::to_string(rng.UniformInt(200, 999)) + "-" +
            std::to_string(rng.UniformInt(1000, 9999));
        workload.push_back(Update{
            rule::ItemId{"phone" + std::to_string(d),
                         {Value::Str("user" + std::to_string(i))}},
            Value::Str(number)});
      }
    }
  }

  // Wall clock is the minimum over `sim_reps` full simulation runs — one
  // run is a few hundred ms, so a single sample is scheduler noise.
  ParallelRow row;
  row.threads = threads;
  row.wall_ms = 0;
  for (int rep = 0; rep < sim_reps; ++rep) {
    toolkit::SystemOptions opts;
    opts.num_threads = threads;
    toolkit::System system(opts);
    for (int d = 0; d < departments; ++d) {
      BuildDepartment(system, d, per_dept);
    }
    size_t u = 0;
    for (int r = 0; r < rounds; ++r) {
      for (int d = 0; d < departments; ++d) {
        for (int j = 0; j < upr; ++j, ++u) {
          // Spread the round's updates across the second so same-lane work
          // lands in different epochs.
          system.executor().PostAt(
              "WHOIS" + std::to_string(d),
              TimePoint::FromMillis(1000 * (r + 1) + j * 211),
              [&system, &workload, u] {
                system.WorkloadWrite(workload[u].item, workload[u].value);
              });
        }
      }
    }

    auto start = std::chrono::steady_clock::now();
    system.RunFor(Duration::Seconds(1) * (rounds + 1) + Duration::Minutes(2));
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (rep == 0 || wall_ms < row.wall_ms) row.wall_ms = wall_ms;
    if (rep + 1 < sim_reps) continue;

    // Harvest counters and the trace from the last repetition (every
    // repetition replays the identical simulation, so they all agree).
    row.messages = system.network().total_messages_sent();
    const sim::ParallelExecutor& ex = system.executor();
    row.lanes = ex.num_lanes();
    row.windows = ex.windows_executed();
    row.supersteps = ex.supersteps();
    row.cross_posts = ex.cross_posts();
    row.clamped = ex.clamped_cross_posts();
    row.elided = ex.elided_cross_posts();
    row.parallelism = ex.parallelism();
    row.stats_block = ex.DescribeStats();
    trace::Trace t = system.FinishTrace();
    row.events = t.events.size();
    row.trace_hash = TraceHash(t);
    // Guarantee spot-check on every fourth department: cross-thread
    // equivalence is already pinned bit-for-bit by the trace hash, and the
    // full 128-check pass costs minutes of offline checking per cell.
    trace::GuaranteeCheckOptions check;
    check.settle_margin = Duration::Minutes(1);
    row.copies_ok = true;
    for (int d = 0; d < departments; d += 4) {
      std::string x = "phone" + std::to_string(d) + "(n)";
      for (std::string copy : {"CsdPhone" + std::to_string(d) + "(n)",
                               "GroupPhone" + std::to_string(d) + "(n)"}) {
        row.copies_ok =
            row.copies_ok &&
            trace::CheckGuarantee(t, spec::YFollowsX(x, copy), check)->holds &&
            trace::CheckGuarantee(t, spec::XLeadsY(x, copy), check)->holds;
      }
    }
  }
  return row;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows,
               const std::vector<ParallelRow>& parallel_rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  long num_cpus = sysconf(_SC_NPROCESSORS_ONLN);
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"executable\": \"./build/bench/bench_scale\",\n");
  std::fprintf(f, "    \"num_cpus\": %ld,\n", num_cpus);
  std::fprintf(f,
               "    \"timing\": \"real_time_ms covers the simulation only "
               "(setup and offline guarantee checks excluded); parallel "
               "rows take the min over identical simulation replays\",\n");
  std::fprintf(f,
               "    \"note\": \"parallelism = total callbacks / critical "
               "path (per-window max), the hardware-independent speedup "
               "bound; wall-clock speedup is additionally capped by "
               "num_cpus\"\n");
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& r : rows) {
    Throughput tp = ComputeThroughput(r.wall_ms, r.events);
    std::fprintf(f,
                 "%s    {\"name\": \"E9_population/staff:%d/updates:%d\", "
                 "\"real_time_ms\": %.1f, \"ns_per_event\": %.1f, "
                 "\"events_per_s\": %.0f, \"events\": %zu, \"messages\": "
                 "%llu, \"firings\": %llu, \"guarantees\": \"%s\"}",
                 first ? "" : ",\n", r.staff, r.updates, r.wall_ms,
                 tp.ns_per_event, tp.events_per_s, r.events,
                 static_cast<unsigned long long>(r.messages),
                 static_cast<unsigned long long>(r.firings),
                 r.copies_ok ? "HOLD" : "VIOLATED");
    first = false;
  }
  double base_wall = 0;
  for (const auto& r : parallel_rows) {
    if (r.threads == 1) base_wall = r.wall_ms;
  }
  for (const auto& r : parallel_rows) {
    Throughput tp = ComputeThroughput(r.wall_ms, r.events);
    std::fprintf(f,
                 "%s    {\"name\": \"E9_threads/lanes:%zu/"
                 "threads:%zu\", \"real_time_ms\": %.1f, \"speedup_vs_1t\": "
                 "%.2f, \"ns_per_event\": %.1f, \"events_per_s\": %.0f, "
                 "\"parallelism\": %.2f, \"lanes\": %zu, \"windows\": "
                 "%llu, \"supersteps\": %llu, \"cross_posts\": %llu, "
                 "\"clamped\": %llu, \"elided\": %llu, \"events\": %zu, "
                 "\"messages\": %llu, \"trace_hash\": \"%016llx\", "
                 "\"guarantees\": \"%s\"}",
                 first ? "" : ",\n", r.lanes, r.threads, r.wall_ms,
                 base_wall > 0 ? base_wall / r.wall_ms : 0.0, tp.ns_per_event,
                 tp.events_per_s, r.parallelism, r.lanes,
                 static_cast<unsigned long long>(r.windows),
                 static_cast<unsigned long long>(r.supersteps),
                 static_cast<unsigned long long>(r.cross_posts),
                 static_cast<unsigned long long>(r.clamped),
                 static_cast<unsigned long long>(r.elided), r.events,
                 static_cast<unsigned long long>(r.messages),
                 static_cast<unsigned long long>(r.trace_hash),
                 r.copies_ok ? "HOLD" : "VIOLATED");
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace hcm::bench

int main(int argc, char** argv) {
  using namespace hcm;
  using namespace hcm::bench;

  std::string json_path;
  long smoke_threads = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      smoke_threads = std::atol(argv[i] + 10);
    }
  }

  if (smoke_threads >= 0) {
    // CI smoke: one quick parallel cell at the requested thread count. The
    // wall_ms=... token is machine-parseable: the Release CI job runs
    // --threads=1 and --threads=4 and fails if 4 threads regress below the
    // single-thread wall time on a multi-CPU runner.
    auto row = RunParallelCell(/*departments=*/8, /*per_dept=*/4,
                               /*rounds=*/12, /*upr=*/2,
                               static_cast<size_t>(smoke_threads),
                               /*sim_reps=*/3);
    std::printf("E9 parallel smoke: threads=%zu lanes=%zu events=%zu "
                "messages=%llu supersteps=%llu windows=%llu "
                "parallelism=%.2f elided=%llu trace_hash=%016llx "
                "guarantees=%s %s\n",
                row.threads, row.lanes, row.events,
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.supersteps),
                static_cast<unsigned long long>(row.windows),
                row.parallelism,
                static_cast<unsigned long long>(row.elided),
                static_cast<unsigned long long>(row.trace_hash),
                row.copies_ok ? "HOLD" : "VIOLATED",
                ThroughputStr(row.wall_ms, row.events).c_str());
    std::printf("wall_ms=%.1f\n", row.wall_ms);
    return row.copies_ok ? 0 : 1;
  }

  Banner("E9: heterogeneous deployment at scale, Section 4.3",
         "constraints over whois + files + relational are maintained "
         "concurrently without touching the sources; CM work scales with "
         "the update stream, not the population");
  std::printf("%-8s %-9s %-9s %-10s %-9s %-10s | %-10s\n", "staff",
              "updates", "events", "messages", "firings", "wall(ms)",
              "guarantees");
  bool ok = true;
  double msgs_per_update_first = 0;
  double msgs_per_update_last = 0;
  std::vector<Row> rows;
  for (int staff : {10, 40, 100}) {
    auto row = RunCell(staff, 60);
    rows.push_back(row);
    double msgs_per_update =
        static_cast<double>(row.messages) / row.updates;
    if (staff == 10) msgs_per_update_first = msgs_per_update;
    msgs_per_update_last = msgs_per_update;
    std::printf("%-8d %-9d %-9zu %-10llu %-9llu %-10.1f | %-10s %s\n",
                row.staff, row.updates, row.events,
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.firings), row.wall_ms,
                row.copies_ok ? "HOLD" : "VIOLATED",
                ThroughputStr(row.wall_ms, row.events).c_str());
    ok = ok && row.copies_ok;
  }
  // CM messaging tracks the update stream, not the population size.
  ok = ok && msgs_per_update_last < msgs_per_update_first * 1.5;

  std::printf("\nthreads sweep (32 departments x 4 sites = 128 lanes, "
              "epoch-synchronized supersteps; parallelism = critical-path "
              "bound):\n");
  std::printf("%-8s %-6s %-9s %-10s %-7s %-8s %-8s %-8s %-10s %-10s %-9s "
              "| %-10s\n",
              "threads", "lanes", "events", "messages", "steps", "windows",
              "clamped", "elided", "par", "wall(ms)", "speedup",
              "guarantees");
  std::vector<ParallelRow> parallel_rows;
  double base_wall = 0;
  size_t base_events = 0;
  uint64_t base_hash = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto row = RunParallelCell(/*departments=*/32, /*per_dept=*/4,
                               /*rounds=*/120, /*upr=*/4, threads,
                               /*sim_reps=*/3);
    parallel_rows.push_back(row);
    if (threads == 1) {
      base_wall = row.wall_ms;
      base_events = row.events;
      base_hash = row.trace_hash;
    }
    std::printf("%-8zu %-6zu %-9zu %-10llu %-7llu %-8llu %-8llu %-8llu "
                "%-10.2f %-10.1f %-9.2f | %-10s\n",
                row.threads, row.lanes, row.events,
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.supersteps),
                static_cast<unsigned long long>(row.windows),
                static_cast<unsigned long long>(row.clamped),
                static_cast<unsigned long long>(row.elided),
                row.parallelism, row.wall_ms,
                base_wall > 0 ? base_wall / row.wall_ms : 0.0,
                row.copies_ok ? "HOLD" : "VIOLATED");
    std::printf("         %s\n",
                ThroughputStr(row.wall_ms, row.events).c_str());
    ok = ok && row.copies_ok;
    // Determinism cross-check: every thread count must replay the same
    // simulation bit-for-bit (event counts, messages, full trace hash).
    ok = ok && row.events == base_events && row.trace_hash == base_hash;
  }
  if (!parallel_rows.empty()) {
    std::printf("\n%s", parallel_rows.back().stats_block.c_str());
  }

  if (!json_path.empty()) WriteJson(json_path, rows, parallel_rows);

  std::printf("\nresult: %s — messages per update stay flat as the item "
              "population grows 10x; thread counts agree bit-for-bit.\n",
              ok ? "REPRODUCED" : "NOT REPRODUCED");
  return ok ? 0 : 1;
}
