#ifndef HCM_BENCH_E2E_WORKLOADS_H_
#define HCM_BENCH_E2E_WORKLOADS_H_

// The benchmark's three fixed workloads. Each draws its whole input (item,
// value and simulated instant of every spontaneous write) from the seed
// once; every iteration then rebuilds the deployment and replays that
// identical input open-loop: updates fire at their pre-drawn sim instants
// however far behind the deployment runs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hcm::bench_e2e {

struct RunContext {
  uint64_t seed = 0;
  // Scratch directory inside the checkout (storage for payroll_durable).
  std::string work_dir;
};

// What one iteration measured and checked.
struct IterationResult {
  double setup_s = 0;
  double run_s = 0;
  double verdict_s = 0;
  double recover_s = 0;  // payroll_durable: the recovery phase
  std::vector<double> recover_ms_per_site;

  uint64_t fingerprint = 0;  // FNV-1a over the canonical event stream
  size_t events = 0;
  size_t source_updates = 0;
  size_t delivered = 0;
  std::vector<int64_t> lag_ms;  // sim lag of each delivered update

  // Correctness gates that failed in this iteration (empty = correct).
  std::vector<std::string> failures;
  // Exact per-layer counts read from the layers' public counters.
  std::map<std::string, double> counters;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  // Input sizes, engine and storage description for the run context.
  virtual std::string Describe() const = 0;
  virtual size_t updates() const = 0;
  // Builds the deployment, replays the input, reaches the verdict.
  virtual IterationResult RunIteration() = 0;
  // The discarded first iteration whose fingerprint every measured
  // iteration must match (campus_stream runs it on 1 thread).
  virtual IterationResult WarmUp() { return RunIteration(); }
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunContext& ctx);
std::vector<std::string> WorkloadNames();

}  // namespace hcm::bench_e2e

#endif  // HCM_BENCH_E2E_WORKLOADS_H_
