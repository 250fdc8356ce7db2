// End-to-end benchmark for the constraint-management toolkit: one
// constraint-managed update, from a spontaneous source write through the
// translators, shells and network to the copies, then to a verdict on the
// recorded execution. See NOTES.md for the workloads, the metrics and the
// spread measured behind the bounds in BENCHMARK.json.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Each run discards one warm-up iteration, then repeats iterations of the
// identical seeded input until --seconds have been measured. --trace 0
// prints the end-to-end metrics; --trace 1 alternates untraced and traced
// iterations and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace hcm::bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least ten samples beyond it: the value at
// rank n - 11 of the sorted samples (the maximum when n <= 10).
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  size_t k = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  return t;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  if (!(in >> a >> b >> c)) return "unavailable";
  return a + " " + b + " " + c;
}

// Host-wide CPU time stolen by the hypervisor, as jiffies (steal, total)
// from the first line of /proc/stat; {0, 0} when unavailable.
std::pair<uint64_t, uint64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metrics derived from the spans: (name, layer, unit).
struct LayerMetric {
  const char* name;
  Layer layer;
};
constexpr LayerMetric kLayerTimes[] = {
    {"sim.run_self_s", Layer::kSimRun},
    {"sim.schedule_s", Layer::kSimSchedule},
    {"ris.seed_s", Layer::kRisSeed},
    {"toolkit.configure_s", Layer::kToolkitConfigure},
    {"spec.suggest_s", Layer::kSpecSuggest},
    {"toolkit.install_s", Layer::kToolkitInstall},
    {"trace.finish_s", Layer::kTraceFinish},
    {"trace.valid_check_s", Layer::kTraceValidCheck},
    {"trace.guarantee_check_s", Layer::kTraceGuaranteeCheck},
    {"trace.stream_sink_s", Layer::kTraceStreamSink},
    {"storage.checkpoint_s", Layer::kStorageCheckpoint},
};

// Exact counters read from the layers' public counters: (name, unit).
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"sim.supersteps", "count"},
    {"sim.clamped_frac", "ratio"},
    {"sim.elided_frac", "ratio"},
    {"sim.parallelism", "ratio"},
    {"sim.messages_per_update", "msgs/update"},
    {"toolkit.firings_per_update", "firings/update"},
    {"rule.candidates_per_event", "rules/event"},
    {"trace.guarantee_atom_evals", "count"},
    {"trace.sample_cache_hit_ratio", "ratio"},
    {"trace.stream_live_peak", "count"},
    {"storage.journal_bytes_per_update", "B/update"},
    {"storage.commits", "count"},
    {"storage.deltas", "count"},
    {"storage.compactions", "count"},
    {"storage.replayed_records", "count"},
    {"storage.chain_deltas", "count"},
};

double PhaseWall(const IterationResult& r) {
  return r.setup_s + r.run_s + r.verdict_s + r.recover_s;
}

class Runner {
 public:
  Runner(const Args& args, Workload* workload)
      : args_(args), workload_(workload) {}

  int Main() {
    auto start = Clock::now();
    // Warm-up: fills caches and interns symbols; its figures are dropped,
    // but it is checked and its fingerprint is the reference.
    IterationResult warm = workload_->WarmUp();
    reference_ = warm.fingerprint;
    Account(warm);
    std::printf("warm-up: %.3f s, %zu events, fingerprint %016llx\n",
                PhaseWall(warm), warm.events,
                static_cast<unsigned long long>(reference_));
    lag_ = warm.lag_ms;
    source_updates_ = warm.source_updates;
    delivered_ = warm.delivered;

    auto steal_start = StealJiffies();
    auto measure_start = Clock::now();
    auto elapsed = [&] { return Seconds(measure_start, Clock::now()); };
    if (!args_.trace) {
      while (elapsed() < args_.seconds || plain_.size() < kMinIterations) {
        plain_.push_back(workload_->RunIteration());
        Account(plain_.back());
      }
    } else {
      while (elapsed() < args_.seconds || traced_.size() < kMinIterations) {
        plain_.push_back(workload_->RunIteration());
        Account(plain_.back());
        Tracer::Get().Begin();
        IterationResult r = workload_->RunIteration();
        profiles_.push_back(Tracer::Get().End());
        Account(r);
        traced_.push_back(std::move(r));
      }
    }
    double measured = elapsed();
    auto steal_end = StealJiffies();
    uint64_t total = steal_end.second - steal_start.second;
    std::printf("host steal while measuring: %.1f%% of all CPU time\n",
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(steal_end.first -
                                                         steal_start.first) /
                                 static_cast<double>(total));

    std::vector<Metric> metrics =
        args_.trace ? LayerMetrics() : EndToEndMetrics();
    std::printf("iterations: %zu measured (%zu traced) in %.2f s, run "
                "total %.2f s\n",
                plain_.size() + traced_.size(), traced_.size(), measured,
                Seconds(start, Clock::now()));
    if (args_.trace) {
      std::string spans =
          args_.out_dir + "/spans-" + workload_->name() + ".tsv";
      if (Tracer::Get().WriteLast(spans)) {
        std::printf("spans of the last traced iteration: %s\n", spans.c_str());
      }
    }
    for (const Metric& m : metrics) {
      std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const std::string& f : failures_) {
      std::printf("FAILED: %s\n", f.c_str());
    }
    bool correct = failures_.empty() && failed_ == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics.size(); ++i) {
      double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  }

 private:
  static constexpr size_t kMinIterations = 3;

  static double Seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

  void Fail(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back(what);
  }

  // Every update of an iteration is one attempted operation; an iteration
  // that misses any correctness gate fails all of its updates.
  void Account(const IterationResult& r) {
    ++iterations_;
    std::printf("iteration %zu: setup %.6f s, run %.6f s, verdict %.6f s, "
                "recover %.6f s\n",
                iterations_, r.setup_s, r.run_s, r.verdict_s, r.recover_s);
    attempted_ += workload_->updates();
    std::vector<std::string> failures = r.failures;
    if (r.fingerprint != reference_) {
      failures.push_back("trace fingerprint differs from the warm-up's");
    }
    if (!failures.empty()) {
      failed_ += workload_->updates();
      for (const std::string& f : failures) {
        Fail("iteration " + std::to_string(iterations_) + ": " + f);
      }
    }
  }

  std::vector<Metric> EndToEndMetrics() {
    double work_s = 0;
    std::vector<double> setup, verdict;
    for (const IterationResult& r : plain_) {
      work_s += r.run_s + r.verdict_s;
      setup.push_back(r.setup_s);
      verdict.push_back(r.verdict_s);
    }
    double updates = static_cast<double>(workload_->updates() * plain_.size());
    std::vector<double> lag(lag_.begin(), lag_.end());
    Tail tail = TailOf(lag);
    std::printf("lag: %zu samples (sim time), tail = p%.3f with 10 samples "
                "beyond it\n",
                tail.samples, tail.percentile);
    return {
        {"verified_updates_per_s", updates / work_s, "updates/s"},
        {"verdict_s", Median(verdict), "s"},
        {"setup_s", Median(setup), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"lag_p50_ms", Median(lag), "sim_ms"},
        {"lag_tail_ms", tail.value, "sim_ms"},
        {"delivered_update_frac",
         source_updates_ == 0 ? 0.0
                              : static_cast<double>(delivered_) /
                                    static_cast<double>(source_updates_),
         "ratio"},
    };
  }

  std::vector<Metric> LayerMetrics() {
    std::vector<Metric> out;
    size_t n = profiles_.size();
    double traced_wall = 0;  // summed phase spans of the traced iterations
    double traced_timed = 0;
    double plain_timed = 0;
    for (size_t i = 0; i < n; ++i) {
      traced_wall += profiles_[i].phases_s;
      traced_timed += PhaseWall(traced_[i]);
      plain_timed += PhaseWall(plain_[i]);
    }
    auto median_of = [&](const std::function<double(size_t)>& f) {
      std::vector<double> v;
      for (size_t i = 0; i < n; ++i) v.push_back(f(i));
      return Median(v);
    };

    std::printf("%-26s %12s %9s\n", "layer (self time)", "s/iteration",
                "of wall");
    double layer_sum = 0;
    double bench_self = 0;
    for (size_t l = 0; l < kNumLayers; ++l) {
      double total = 0;
      for (const IterationProfile& p : profiles_) total += p.self_s[l];
      if (IsBenchLayer(static_cast<Layer>(l))) {
        bench_self += total;
      } else {
        layer_sum += total;
      }
      std::printf("%-26s %12.6f %8.2f%%\n", LayerName(static_cast<Layer>(l)),
                  total / static_cast<double>(n), 100 * total / traced_wall);
    }
    for (const LayerMetric& m : kLayerTimes) {
      size_t l = static_cast<size_t>(m.layer);
      out.push_back({m.name, median_of([&](size_t i) {
                       return profiles_[i].self_s[l];
                     }),
                     "s"});
    }
    out.push_back(
        {"storage.checkpoint_max_ms", median_of([&](size_t i) {
           return profiles_[i].max_s[static_cast<size_t>(
                      Layer::kStorageCheckpoint)] *
                  1e3;
         }),
         "ms"});
    std::vector<double> recover;
    for (const auto* set : {&plain_, &traced_}) {
      for (const IterationResult& r : *set) {
        if (!r.recover_ms_per_site.empty()) {
          recover.push_back(Median(r.recover_ms_per_site));
        }
      }
    }
    out.push_back({"storage.recover_ms", Median(recover), "ms"});

    std::vector<double> writes;
    for (const IterationProfile& p : profiles_) {
      writes.insert(writes.end(), p.app_write_us.begin(), p.app_write_us.end());
    }
    Tail tail = TailOf(writes);
    std::printf("ris.app_write: %zu calls, tail = p%.3f\n", tail.samples,
                tail.percentile);
    out.push_back({"ris.app_write_p50_us", Median(writes), "us"});
    out.push_back({"ris.app_write_tail_us", tail.value, "us"});

    const std::map<std::string, double>& counters = traced_.back().counters;
    for (const auto& [name, unit] : kCounters) {
      auto it = counters.find(name);
      out.push_back({name, it == counters.end() ? 0.0 : it->second, unit});
    }
    double sum_ratio = layer_sum / traced_wall;
    out.push_back({"bench.self_s", bench_self / static_cast<double>(n), "s"});
    out.push_back(
        {"bench.trace_overhead_frac", traced_timed / plain_timed - 1, "ratio"});
    out.push_back({"bench.layer_sum_over_traced", sum_ratio, "ratio"});
    if (std::fabs(sum_ratio - 1) > 0.10) {
      Fail("layer self times sum to " + std::to_string(sum_ratio) +
           " of the traced wall time (must be within 10% of 1)");
    }
    return out;
  }

  Args args_;
  Workload* workload_;
  uint64_t reference_ = 0;
  std::vector<int64_t> lag_;
  size_t source_updates_ = 0;
  size_t delivered_ = 0;
  std::vector<IterationResult> plain_;
  std::vector<IterationResult> traced_;
  std::vector<IterationProfile> profiles_;
  size_t iterations_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace
}  // namespace hcm::bench_e2e

int main(int argc, char** argv) {
  using namespace hcm::bench_e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--commit <id>]\n");
    return 2;
  }
  if (std::strcmp(HCM_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "bench_e2e must be built in Release (this is %s)\n",
                 HCM_BENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.work_dir = args.out_dir + "/work-" + std::to_string(getpid());
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, ctx);
  if (workload == nullptr) {
    std::string known;
    for (const std::string& name : WorkloadNames()) known += " " + name;
    std::fprintf(stderr, "unknown workload %s; one of:%s\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  std::printf("workload: %s (seed %llu, %s)\n", workload->name().c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  std::printf("input: %s\n", workload->Describe().c_str());
  std::printf("context: build %s, num_cpus %ld, load average at start %s, "
              "commit %s, %.0f s measured per run\n",
              HCM_BENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN),
              LoadAverage().c_str(), args.commit.c_str(), args.seconds);
  std::fflush(stdout);
  int rc = Runner(args, workload.get()).Main();
  std::filesystem::remove_all(ctx.work_dir, ec);
  return rc;
}
