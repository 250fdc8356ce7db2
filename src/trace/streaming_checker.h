#ifndef HCM_TRACE_STREAMING_CHECKER_H_
#define HCM_TRACE_STREAMING_CHECKER_H_

// Streaming bounded-memory checking: consume the canonical trace while the
// run executes, maintain only the live δ horizon, report violations the
// moment they are decidable, and still produce a final ExecutionReport —
// and guarantee reports — byte-identical to the offline checkers.
//
// The checker is a TraceSink: the recorder feeds it events in final merge
// order with final dense ids (TraceRecorder renumbers the safe prefix per
// flush), and watermarks tell it which instants are complete. It is the
// streaming driver of the valid-execution property core (check_window.h),
// which CheckValidExecution drives offline: the core decides every
// property and spells every violation, reading events and state through
// this checker's live ring and item store. The driver keeps what only a
// stream needs — the pending queue, batch-wise absorption of complete
// instants, the deadline queue of open obligations, property-7 channel
// sets, state retirement and the guarantee collector — and reports
// through the same bounded sinks and ordered merge, so capping and
// ordering agree exactly.
//
// State retirement:
//   - events: the live ring keeps events within one maximal rule window of
//     the watermark (property-5/7 trigger lookups reach at most one delta
//     back for in-window traces);
//   - item segments: retired up to min(watermark - delta_max, earliest
//     open obligation's trigger time) — exactly the instants property-6
//     condition windows can still probe; the last segment before the cut
//     is kept (with its true start) so historical reads stay exact;
//   - obligations: resolved the moment the watermark passes their
//     (outage-extended) deadline — all in-window fires have arrived by
//     then;
//   - property-7 pairs: a channel's sorted prefix is checked and dropped
//     once no future pair (trigger time >= watermark - delta_max) can sort
//     into it;
//   - guarantees: anchors are evaluated in closed windows once every
//     collected item has changed past anchor + lag (see GuaranteeWindow);
//     non-windowable guarantees fall back to collecting their items'
//     segments and replaying at Finish (still byte-identical, memory
//     bounded by those items' histories instead of the horizon).
//
// Equivalence envelope (matches the offline report on any trace the
// toolkit's recorders produce; hand-built traces outside it may differ):
//   - events arrive time-nondecreasing (the canonical merge order);
//   - a generated event's trigger precedes it by at most the rule's delta
//     (anything else is itself a property-5 window violation);
//   - no RHS step fires after its obligation's outage-extended deadline;
//   - outages (NoteOutage / options.valid.outages) are known before the
//     watermark reaches them — System::ScheduleCrash runs at setup time.
// Work counters (ExecutionReport::stats, GuaranteeCheckStats) are
// approximations of the offline counters; they are deliberately excluded
// from the byte-compared ToString renderings.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/trace.h"
#include "src/trace/valid_execution.h"

namespace hcm::trace {

struct StreamingCheckOptions {
  // Valid-execution options. num_threads is ignored (the streaming engine
  // is sequential on the feed thread); outages seed the outage list
  // (NoteOutage adds more).
  ValidExecutionOptions valid;
  // Guarantee options. num_threads likewise ignored.
  GuaranteeCheckOptions guarantee;
  // Live notification for each valid-execution violation as it is found
  // (best-effort preview: the merged final report applies the global cap
  // and canonical ordering).
  std::function<void(const ExecutionViolation&)> on_violation;
  // Live notification for each violated guarantee witness found by a
  // windowed evaluation (name, counterexample).
  std::function<void(const std::string&, const Counterexample&)>
      on_guarantee_violation;
};

// Live-state accounting. "Live" counts are current occupancy; "peak" their
// high-water marks — the soak test's boundedness assertions read these.
struct StreamingCheckStats {
  size_t events_seen = 0;
  size_t events_live = 0;
  size_t events_live_peak = 0;
  size_t events_retired = 0;
  size_t segments_live = 0;
  size_t segments_live_peak = 0;
  size_t segments_retired = 0;
  size_t obligations_open = 0;
  size_t obligations_open_peak = 0;
  size_t obligations_resolved = 0;
  size_t pairs_live = 0;
  size_t pairs_live_peak = 0;
  size_t pairs_retired = 0;
  size_t fired_index_live = 0;
  size_t fired_index_peak = 0;
  size_t guarantee_segments_live = 0;
  size_t guarantee_segments_live_peak = 0;
  size_t guarantee_segments_retired = 0;
  size_t guarantee_windows_evaluated = 0;
  size_t live_violations = 0;  // reported via on_violation mid-run

  // Sum of all live counts — the single number the soak test watches.
  size_t LiveFootprint() const {
    return events_live + segments_live + obligations_open + pairs_live +
           fired_index_live + guarantee_segments_live;
  }
  size_t live_footprint_peak = 0;
};

class StreamingChecker : public TraceSink {
 public:
  // `rules` as installed (property 5/6 provenance); `guarantees` evaluated
  // alongside. Copies both: the checker outlives arbitrary callers.
  StreamingChecker(std::vector<rule::Rule> rules,
                   std::vector<spec::Guarantee> guarantees,
                   StreamingCheckOptions options = {});
  ~StreamingChecker() override;

  StreamingChecker(const StreamingChecker&) = delete;
  StreamingChecker& operator=(const StreamingChecker&) = delete;

  // Registers a site down-window for outage-aware obligation deadlines.
  // Call before the watermark reaches `outage.from` (ScheduleCrash-time
  // wiring satisfies this trivially).
  void NoteOutage(const SiteOutage& outage);

  // TraceSink interface (driven by the recorder on the feed thread).
  void OnInitialValue(const rule::ItemId& item, const Value& value) override;
  void OnEvent(const rule::Event& event) override;
  void OnWatermark(TimePoint watermark) override;
  void OnFinish(TimePoint horizon) override;

  bool finished() const { return finished_; }

  // Valid after OnFinish: byte-identical to CheckValidExecution over the
  // same trace/rules/options (within the envelope above).
  const ExecutionReport& execution_report() const;

  // Valid after OnFinish: name -> result, byte-identical to CheckGuarantee
  // per guarantee.
  const std::map<std::string, GuaranteeCheckResult>& guarantee_results()
      const;

  const StreamingCheckStats& stats() const;

  // One maximal rule window + 1ms: how far back from the watermark live
  // state is kept. The System sizes the recorder's trigger-remap retention
  // from this when attaching.
  Duration retention() const;

  // Human-readable live/retired-state counters (trace_inspector --follow).
  std::string DescribeCheckStats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool finished_ = false;
};

}  // namespace hcm::trace

#endif  // HCM_TRACE_STREAMING_CHECKER_H_
