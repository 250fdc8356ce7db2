#ifndef HCM_TRACE_VALID_EXECUTION_H_
#define HCM_TRACE_VALID_EXECUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/rule/rule.h"
#include "src/trace/trace.h"

namespace hcm::trace {

// One violated property of Appendix A.2, with the offending event ids.
struct ExecutionViolation {
  int property = 0;  // 1..7 per the appendix
  std::vector<int64_t> event_ids;
  std::string message;

  std::string ToString() const;
};

// Work counters for one CheckValidExecution run (dispatch-stats-style;
// see System::DescribeDispatchStats for the rule-engine analogue). Not part
// of ExecutionReport::ToString, so reports stay byte-comparable across
// thread counts and against the golden fixtures; render with
// ExecutionReport::DescribeCheckStats.
struct ValidExecutionStats {
  size_t items_indexed = 0;          // distinct items with timeline state
  size_t write_events_indexed = 0;   // Ws/W events in the per-item index
  uint64_t chain_lookups = 0;        // same-instant write-chain resolutions
  uint64_t chain_events_scanned = 0; // events visited resolving them
  uint64_t obligation_candidates = 0;  // rules visited by the LHS scan
  uint64_t obligation_scans_avoided = 0;  // rules the index pruned
  uint64_t condition_instants = 0;   // instants sampled for skipped steps
};

struct ExecutionReport {
  bool valid = true;
  std::vector<ExecutionViolation> violations;
  size_t events_checked = 0;
  size_t obligations_checked = 0;
  ValidExecutionStats stats;

  std::string ToString() const;
  // Human-readable rendering of `stats` (one line per counter).
  std::string DescribeCheckStats() const;
};

// A known site outage [from, to): the site performed no work and answered
// no messages in the window (a crash/restart pair from the failure
// injector). Site names are compared by base site ("B#tr" counts as "B").
struct SiteOutage {
  std::string site;
  TimePoint from;
  TimePoint to;
};

struct ValidExecutionOptions {
  // Declared outage windows. A firing obligation whose window overlaps an
  // outage of the trigger's site, the rule's LHS site, or a site one of its
  // RHS steps fires at is granted a fresh delta after the restart — the
  // held trigger is only delivered once the site returns, so the fire can
  // legally land up to `outage.to + delta`. Back-to-back outages chain (the
  // extension iterates to a fixed point).
  std::vector<SiteOutage> outages;
  // Cap on reported violations (the rest are counted but not materialized).
  size_t max_violations = 50;
  // Worker threads for the property checks. The write-consistency pass fans
  // out per interned item id and the provenance/obligation passes over
  // event ranges; per-worker results carry their source event ordinal, so
  // the merged report (violations, counters, caps) is byte-identical to a
  // single-threaded run at any thread count. 0 and 1 both run inline.
  size_t num_threads = 1;
};

// Checks a recorded trace against the seven valid-execution properties of
// Appendix A.2, given the rule program the CM was executing:
//
//   1. events sorted by nondecreasing time;
//   2. write events change exactly their item (old value consistent);
//   3. interpretations chain (implied by the timeline representation; the
//      residual check is Ws old-value consistency, folded into 2);
//   4. spontaneous events carry no rule/trigger;
//   5. generated events name a rule their trigger matches, with LHS/RHS
//      conditions satisfied at the right interpretations;
//   6. every rule firing obligation is met within its deadline (or its
//      step condition was false at some instant of the window);
//      obligations whose deadline falls after the horizon are skipped —
//      the run ended before they came due;
//   7. related rules process events in order (in-order delivery).
//
// Conditions are re-evaluated against the reconstructed timeline; items the
// timeline has never seen read as Null (matching CM-Shell semantics for
// private data).
//
// Scales to million-event traces: one index-building forward pass feeds
// per-item sorted write runs (same-instant chains), an id-keyed event map
// (provenance) and a (kind, item base) rule index (obligations), so no
// property check ever rescans the whole trace per event.
ExecutionReport CheckValidExecution(const Trace& trace,
                                    const std::vector<rule::Rule>& rules,
                                    const ValidExecutionOptions& options = {});

}  // namespace hcm::trace

#endif  // HCM_TRACE_VALID_EXECUTION_H_
