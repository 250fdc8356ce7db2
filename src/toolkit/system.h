#ifndef HCM_TOOLKIT_SYSTEM_H_
#define HCM_TOOLKIT_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ris/biblio/biblio.h"
#include "src/ris/filestore/filestore.h"
#include "src/ris/relational/database.h"
#include "src/ris/whois/whois.h"
#include "src/sim/failure_injector.h"
#include "src/sim/network.h"
#include "src/sim/parallel_executor.h"
#include "src/spec/constraint.h"
#include "src/spec/strategy_spec.h"
#include "src/spec/suggester.h"
#include "src/storage/site_store.h"
#include "src/toolkit/registry.h"
#include "src/toolkit/shell.h"
#include "src/toolkit/translator.h"
#include "src/trace/trace.h"

namespace hcm::trace {
class StreamingChecker;
}  // namespace hcm::trace

namespace hcm::toolkit {

struct SystemOptions {
  sim::NetworkConfig network;
  uint64_t seed = 42;
  // Worker threads of the site-sharded engine (sim::ParallelExecutor),
  // counting the driving thread; 0 is read as 1. 1 runs every superstep
  // inline and is the sequential case: an N-thread run of the same
  // deployment produces a byte-identical trace and guarantee reports. The
  // trace's total order is (time, site, per-site record order), so events at
  // one instant at different sites are ordered by site name, not by when
  // they were scheduled (see DESIGN.md §4c).
  size_t num_threads = 1;
  // Upper bound on the parallel engine's adaptive superstep depth: how many
  // lookahead-wide epochs one barrier interval may cover when no clamping
  // is observed. 1 pins the engine to the classic one-window-per-barrier
  // schedule (the equivalence baseline for elision soundness tests).
  size_t max_epochs_per_superstep = 16;
  // Runs the CALM monotonicity classifier over every installed rule and
  // marks the monotone ones' fire messages elidable, letting the parallel
  // engine deliver them without the synchronization-window clamp (see
  // src/rule/monotone.h). Off = every cross-site message is clamped.
  bool elide_monotone_rules = true;
  // Durability: when storage.dir is set every shell journals its state
  // mutations to <dir>/<site>/ and can crash + recover mid-run (see
  // docs/STORAGE_FORMAT.md and DESIGN.md §4e).
  storage::StorageOptions storage;
};

// The assembled toolkit: one simulated "deployment" with its raw
// information sources, CM-Translators, CM-Shells, constraint registry, and
// execution trace. This is the top-level public API:
//
//   System sys;
//   auto* db_a = *sys.AddRelationalSite("A");
//   auto* db_b = *sys.AddRelationalSite("B");
//   ... create tables ...
//   sys.ConfigureTranslator(rid_text_for_a);
//   sys.ConfigureTranslator(rid_text_for_b);
//   auto c = *spec::MakeCopyConstraint("salary1(n)", "salary2(n)");
//   auto suggestions = *sys.Suggest(c);
//   sys.InstallStrategy("payroll", c, suggestions[0].strategy);
//   ... drive spontaneous updates via WorkloadWrite ...
//   sys.RunFor(Duration::Minutes(10));
//   trace::Trace t = sys.FinishTrace();
class System {
 public:
  explicit System(SystemOptions options = {});
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- Substrate access ---
  sim::ParallelExecutor& executor() { return executor_; }
  sim::Network& network() { return network_; }
  sim::FailureInjector& failures() { return failures_; }
  trace::TraceRecorder& recorder() { return recorder_; }
  const ItemRegistry& registry() const { return registry_; }
  GuaranteeStatusRegistry& guarantee_status() { return guarantee_status_; }

  // --- Deployment: raw sources (owned by the System) ---
  Result<ris::relational::Database*> AddRelationalSite(
      const std::string& site);
  Result<ris::filestore::FileStore*> AddFileSite(const std::string& site);
  Result<ris::whois::WhoisServer*> AddWhoisSite(const std::string& site);
  Result<ris::biblio::BiblioStore*> AddBiblioSite(const std::string& site);

  // Parses a CM-RID, builds the matching translator over the site's raw
  // source (which must have been added first), registers its items, and
  // creates the site's CM-Shell.
  Status ConfigureTranslator(const std::string& rid_text);

  // Creates a CM-Shell for a site without a raw source (an application
  // site hosting only auxiliary data, like the monitor scenario's).
  Status AddShellOnlySite(const std::string& site);

  // Registers a CM-private item at a site (creating the shell if needed).
  // Strategies whose rules only touch private items (e.g. the monitor
  // strategy) need their auxiliary items placed before installation.
  Status RegisterPrivateItem(const std::string& base,
                             const std::string& site);

  // --- Initialization dialogue (Section 4.1) ---

  // Interfaces offered for the items of `constraint`, per side.
  Result<spec::SiteInterfaces> InterfacesForItem(const std::string& base)
      const;

  // Menu of applicable strategies with their guarantees.
  Result<std::vector<spec::Suggestion>> Suggest(
      const spec::Constraint& constraint,
      const spec::SuggestOptions& options = {}) const;

  // Distributes the strategy's rules to shells (by LHS site), registers
  // private items at the RHS site, starts periodic rules, and registers the
  // strategy's guarantees under "<key>/<guarantee-name>".
  Status InstallStrategy(const std::string& key,
                         const spec::Constraint& constraint,
                         const spec::StrategySpec& strategy);

  // --- Workload harness: simulated applications operating directly on the
  // raw sources (spontaneous events, ground-truth recorded) ---
  Status WorkloadWrite(const rule::ItemId& item, const Value& value);
  Status WorkloadInsert(const rule::ItemId& item);
  Status WorkloadDelete(const rule::ItemId& item);
  Result<Value> WorkloadRead(const rule::ItemId& item);

  // Ground-truth declarations for existence changes performed directly
  // against a raw source by application code (e.g. a native AddRecord on
  // the bibliographic store). They record the INS/DEL event only; the
  // native operation is the caller's.
  void NoteSpontaneousInsert(const rule::ItemId& item,
                             const std::string& site);
  void NoteSpontaneousDelete(const rule::ItemId& item,
                             const std::string& site);

  // Declares the item's current raw-source value as the trace's initial
  // state (call after seeding tables, before running).
  Status DeclareInitial(const rule::ItemId& item);
  // Declares an initial value for a CM-private item.
  Status DeclareInitialPrivate(const rule::ItemId& item, Value value);

  // --- Application API ---
  Result<Value> ReadAuxiliary(const std::string& site,
                              const rule::ItemId& item) const;
  Result<GuaranteeValidity> GuaranteeStatus(const std::string& key) const;

  // --- Execution ---
  // The recorder's safe prefix is merged (and delivered to an attached
  // sink) at every superstep barrier, and up to the run boundary here.
  void RunFor(Duration d) {
    executor_.RunFor(d);
    // Push the streamed watermark to the run boundary: everything strictly
    // before `now` is final (future work is scheduled at >= now).
    recorder_.FlushSink(executor_.now());
  }
  trace::Trace FinishTrace() { return recorder_.Finish(executor_.now()); }

  // Wires a streaming checker into the run: attaches it as the recorder's
  // sink (drain = true stops accumulating the offline trace, bounding the
  // recorder's memory too), sizes the recorder's trigger-remap retention,
  // and forwards outages — both already-scheduled down windows and future
  // ScheduleCrash calls.
  // Call after installing strategies, before RunFor. The checker must
  // outlive the System's last RunFor/FinishTrace call.
  Status AttachStreamingChecker(trace::StreamingChecker* checker,
                                bool drain = false);

  // --- Durability and crash injection (requires options.storage.dir) ---

  // Snapshots one site's shell state (plus the registry statuses and the
  // translator's write cursor) into its store.
  Status CheckpointSite(const std::string& site);
  // Snapshots every site with storage attached.
  Status CheckpointStorage();

  // Orchestrates a crash/restart pair: registers the outage with the
  // failure injector (so the network holds messages for the site), tears
  // the shell down at `crash_at` via Shell::Crash, and drives
  // Shell::Recover at `restart_at`. Scheduled at setup time, the recovery
  // event sorts before same-instant held-message deliveries, so rules are
  // reinstalled before queued fires arrive.
  Status ScheduleCrash(const std::string& site, TimePoint crash_at,
                       TimePoint restart_at, bool clean = true);

  // Access for protocols/ and tests.
  Result<Shell*> ShellAt(const std::string& site);
  Result<Translator*> TranslatorAt(const std::string& site);
  Result<storage::SiteStore*> StoreAt(const std::string& site);

  // Human-readable deployment summary (the Figure 2 topology): per site,
  // the raw source kind, translator presence, registered items with their
  // interfaces, and CM-private items.
  std::string DescribeDeployment() const;

  // Event-dispatch efficiency aggregated across every shell: how many
  // events were matched, how many candidate rules the (kind, item-base)
  // index handed to the matcher, and how many rule visits the index saved
  // versus a linear scan of all installed rules.
  Shell::DispatchStats AggregateDispatchStats() const;

  // One-line-per-site rendering of the above, for examples and benches.
  std::string DescribeDispatchStats() const;

  // Engine efficiency block (supersteps, windows, parallelism metric,
  // clamped/elided cross posts). For examples and benches.
  std::string DescribeExecutorStats() const;

  // Per-site storage counters (bases, deltas, compactions, files GC'd,
  // live chain length). Empty string when no stores are attached.
  std::string DescribeStorageStats() const;

 private:
  Status EnsureShell(const std::string& site);
  Result<std::string> RhsSiteOfRule(const rule::Rule& r,
                                    bool lenient = false) const;

  SystemOptions options_;
  sim::ParallelExecutor executor_;
  sim::FailureInjector failures_;
  sim::Network network_;
  trace::TraceRecorder recorder_;
  ItemRegistry registry_;
  GuaranteeStatusRegistry guarantee_status_;

  std::map<std::string, std::unique_ptr<ris::relational::Database>> dbs_;
  std::map<std::string, std::unique_ptr<ris::filestore::FileStore>> files_;
  std::map<std::string, std::unique_ptr<ris::whois::WhoisServer>> whois_;
  std::map<std::string, std::unique_ptr<ris::biblio::BiblioStore>> biblio_;
  std::map<std::string, std::unique_ptr<Translator>> translators_;
  std::map<std::string, std::unique_ptr<Shell>> shells_;
  std::map<std::string, std::unique_ptr<storage::SiteStore>> stores_;
  trace::StreamingChecker* streaming_checker_ = nullptr;
  int64_t next_rule_id_ = 1;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_SYSTEM_H_
