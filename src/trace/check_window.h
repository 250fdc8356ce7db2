#ifndef HCM_TRACE_CHECK_WINDOW_H_
#define HCM_TRACE_CHECK_WINDOW_H_

// The valid-execution property core, shared by the two checkers.
//
// The offline checker (valid_execution.cc) and the streaming checker
// (streaming_checker.cc) are two drivers over one implementation of the
// seven properties of Appendix A.2. A driver owns what differs: where
// events and state live (the whole trace and its StateTimeline, or the
// live ring and item store), how work is scheduled (per-item / per-range
// fan-out, or watermark-ordered batches), and when a property-6 obligation
// is resolved (at once against the full fired index, or once the watermark
// passes its deadline). PropertyCore owns everything the properties decide:
// the compiled rules and their dispatch index, the site-of-base map and
// outage list for outage-aware deadlines, and every test and violation
// message.
//
// The core reads driver state through a *view*, dispatched statically (a
// template parameter). A view provides four const functions:
//
//   const rule::Event* Trigger(int64_t id);      // nullptr: not known
//   std::optional<Value> ValueAt(const rule::ItemId&, TimePoint);
//   std::optional<Value> ValueBefore(const rule::ItemId&, TimePoint);
//   // Appends the start of every state segment in (lo, hi].
//   void ChangePoints(const rule::ItemId&, TimePoint lo, TimePoint hi,
//                     std::vector<TimePoint>* out);
//
// ValueAt is the state just after the instant (the "new" interpretation),
// ValueBefore the state just before it; nullopt means the item does not
// exist (conditions then read Null, as CM-private data does).
//
// Violations go to a bounded Sink tagged with the ordinal of the event (or
// channel) that produced them plus a per-ordinal emission sequence; each
// phase keeps only the `cap` earliest by that order, and the phase merge
// sorts the kept set back into single-threaded emission order while
// applying the global cap across phases. Both drivers report through it,
// so their final reports agree byte for byte.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/string_util.h"
#include "src/rule/rule.h"
#include "src/rule/rule_index.h"
#include "src/trace/valid_execution.h"

namespace hcm::trace::internal {

// A violation tagged with its merge-order key. `ord` is the source event's
// trace index (or a channel counter for property 7); `seq` orders multiple
// violations emitted for the same ordinal.
struct Tagged {
  uint64_t ord = 0;
  uint32_t seq = 0;
  ExecutionViolation v;
};

// "a comes before b" in merged-report order.
struct TaggedEarlier {
  bool operator()(const Tagged& a, const Tagged& b) const {
    if (a.ord != b.ord) return a.ord < b.ord;
    return a.seq < b.seq;
  }
};

// Per-worker (or per-phase) result collector. Violations are bounded: the
// sink keeps the `cap` earliest (by merge order) it has seen and counts
// everything found, so a pathological trace cannot materialize unbounded
// violation text while the global first `cap` (always a subset of each
// sink's kept set) stays exact.
class Sink {
 public:
  using Listener = std::function<void(const ExecutionViolation&)>;

  explicit Sink(size_t cap) : cap_(cap) {}

  // Called with every violation as it is added, before capping (the
  // streaming checker's live on_violation notification).
  void set_listener(Listener listener) { listener_ = std::move(listener); }

  void Add(uint64_t ord, int property, std::vector<int64_t> ids,
           std::string message) {
    AddSeq(ord, next_seq_++, property, std::move(ids), std::move(message));
  }

  // Explicit-sequence variant for emitters that may discover violations out
  // of their canonical order (property-6 obligations, which the streaming
  // driver resolves late): `seq` must reproduce the relative order a
  // sequential scan would emit within `ord`.
  void AddSeq(uint64_t ord, uint32_t seq, int property,
              std::vector<int64_t> ids, std::string message) {
    ++found_;
    Tagged t{ord, seq,
             ExecutionViolation{property, std::move(ids), std::move(message)}};
    if (listener_) listener_(t.v);
    if (cap_ == 0) return;
    if (kept_.size() < cap_) {
      kept_.push_back(std::move(t));
      std::push_heap(kept_.begin(), kept_.end(), TaggedEarlier());
      return;
    }
    if (TaggedEarlier()(t, kept_.front())) {
      std::pop_heap(kept_.begin(), kept_.end(), TaggedEarlier());
      kept_.back() = std::move(t);
      std::push_heap(kept_.begin(), kept_.end(), TaggedEarlier());
    }
  }

  // Records violations that were found but never materialized (a bounded
  // upstream buffer already dropped their text). They still count toward
  // found() so extra_violations and `valid` come out right.
  void AddCountOnly(size_t n) { found_ += n; }

  size_t found() const { return found_; }
  std::vector<Tagged>& kept() { return kept_; }

  // Phase-local counters, summed into the report at the merge (sums are
  // order-independent, so stats match at any thread count).
  size_t obligations_checked = 0;
  uint64_t chain_lookups = 0;
  uint64_t chain_events_scanned = 0;
  uint64_t obligation_candidates = 0;
  uint64_t obligation_scans_avoided = 0;
  uint64_t condition_instants = 0;

 private:
  size_t cap_;
  size_t found_ = 0;
  uint32_t next_seq_ = 0;
  std::vector<Tagged> kept_;  // heap, top = latest in merge order
  Listener listener_;
};

// Folds one phase's sinks into the report: counters are summed, kept
// violations sorted back into single-threaded emission order (ordinal, then
// per-ordinal emission sequence — no two sinks share an ordinal), and the
// global cap applied across phases exactly as a sequential checker's
// running AddViolation cap would. `extra_violations` accumulates found-but-
// not-materialized counts; the caller folds it into `report->valid`.
void MergePhaseInto(std::vector<Sink> sinks, size_t max_violations,
                    ExecutionReport* report, size_t* extra_violations);

// Generated events by (trigger id, rule id, RHS step): when and as which
// event each step fired. Last write wins.
struct FiredStep {
  TimePoint time;
  int64_t id = -1;
};
using FiredKey = std::tuple<int64_t, int64_t, int>;
struct FiredKeyHash {
  size_t operator()(const FiredKey& k) const {
    size_t h = std::hash<int64_t>()(std::get<0>(k));
    h = h * 1000003 + std::hash<int64_t>()(std::get<1>(k));
    return h * 1000003 + std::hash<int>()(std::get<2>(k));
  }
};
using FiredIndex = std::unordered_map<FiredKey, FiredStep, FiredKeyHash>;

// One (trigger, generated event) pair on a property-7 channel (trigger
// site -> event site). `seq` is the pair's arrival order on the channel.
struct ChannelPair {
  TimePoint trigger_time;
  TimePoint event_time;
  int64_t trigger_id = -1;
  int64_t event_id = -1;
  uint64_t seq = 0;
};

// Channel order: by trigger time, then fire time, ties in arrival order.
struct ChannelPairLess {
  bool operator()(const ChannelPair& a, const ChannelPair& b) const {
    if (a.trigger_time != b.trigger_time) {
      return a.trigger_time < b.trigger_time;
    }
    if (a.event_time != b.event_time) return a.event_time < b.event_time;
    return a.seq < b.seq;
  }
};

// A firing obligation (property 6): rule `rule` matched the trigger event
// and its LHS condition held. The LHS match itself travels beside it as a
// BindingFrame over the rule's slots.
struct Obligation {
  uint64_t ord = 0;   // trace ordinal of the trigger event
  uint32_t cand = 0;  // position in the trigger's candidate scan
  int64_t trigger_id = -1;
  TimePoint trigger_time;
  const rule::Rule* rule = nullptr;
};

class PropertyCore {
 public:
  // Compiles its own copies of `rules`; `outages` seed the outage list.
  PropertyCore(std::vector<rule::Rule> rules, std::vector<SiteOutage> outages);

  PropertyCore(const PropertyCore&) = delete;
  PropertyCore& operator=(const PropertyCore&) = delete;

  const std::vector<rule::Rule>& rules() const { return rules_; }
  const std::vector<SiteOutage>& outages() const { return outages_; }
  void AddOutage(const SiteOutage& outage) { outages_.push_back(outage); }

  // A frame with room for every rule's slots (one per worker, reused).
  rule::BindingFrame NewFrame() const {
    return rule::BindingFrame(max_slots_);
  }

  // Site-of-base learning for outage coverage. Write-shaped events
  // (Ws/W/WR/INS/DEL) execute at the item's home site, so the first of them
  // wins; any other event with an item fills the gap until one arrives.
  // Needed because strategy rules carry no "@site" pins — the System
  // resolves placement at install time, after the specs are generated.
  void LearnSite(const rule::Event& e);

  // Property 1: `e` (trace ordinal `ord`) against the event before it.
  static void CheckTimeOrder(TimePoint prev_time, int64_t prev_id,
                             const rule::Event& e, uint64_t ord, Sink* sink) {
    if (e.time < prev_time) {
      sink->Add(ord, 1, {prev_id, e.id}, "events out of time order");
    }
  }

  // Properties 2+3: a Ws event's recorded old value must equal `before`,
  // the state just before it (writes change exactly their own item by
  // construction of the per-item representation). Several writes can share
  // a timestamp, and `before` then sees only the pre-batch state: accept a
  // Null old value, or one that `chain_matches()` finds written by an
  // earlier same-instant write on the item.
  template <typename ChainMatches>
  static void CheckWsOldValue(const rule::Event& e, uint64_t ord,
                              const std::optional<Value>& before, Sink* sink,
                              const ChainMatches& chain_matches) {
    static const Value kNull = Value::Null();
    const Value& expected = before.has_value() ? *before : kNull;
    if (e.old_value() == expected || e.old_value().is_null()) return;
    ++sink->chain_lookups;
    if (chain_matches()) return;
    sink->Add(ord, 2, {e.id},
              StrFormat("Ws old value %s != prior state %s",
                        e.old_value().ToString().c_str(),
                        expected.ToString().c_str()));
  }

  // Properties 4+5: a spontaneous event carries no trigger; a generated one
  // names a rule whose LHS its trigger matches, with the LHS condition true
  // at the trigger, the event matching its RHS step with that step's
  // condition true just before it, inside [trigger, trigger + delta].
  template <typename View>
  void CheckProvenance(const View& view, const rule::Event& e, uint64_t ord,
                       rule::BindingFrame* frame, Sink* sink) const {
    if (e.spontaneous()) {
      if (e.trigger_event_id >= 0) {
        sink->Add(ord, 4, {e.id},
                  "spontaneous event carries a trigger reference");
      }
      return;
    }
    auto rule_it = rule_pos_by_id_.find(e.rule_id);
    if (rule_it == rule_pos_by_id_.end()) {
      sink->Add(ord, 5, {e.id},
                StrFormat("generated event names unknown rule %lld",
                          static_cast<long long>(e.rule_id)));
      return;
    }
    const size_t pos = rule_it->second;
    const rule::Rule& r = rules_[pos];
    const rule::Event* trig = view.Trigger(e.trigger_event_id);
    if (trig == nullptr) {
      sink->Add(ord, 5, {e.id}, "generated event names unknown trigger");
      return;
    }
    const rule::Event& trigger = *trig;
    frame->Clear();
    if (!r.lhs.MatchesCompiled(trigger, frame)) {
      sink->Add(ord, 5, {e.id, trigger.id},
                "trigger does not match the rule's LHS template");
      return;
    }
    frame->Set(static_cast<uint16_t>(r.now_slot), Value::Int(e.time.millis()));
    // (5c) LHS condition satisfied at trigger time (new interpretation).
    if (r.lhs_condition != nullptr &&
        !Holds(*r.lhs_condition, r, *frame, ReaderAt(view, trigger.time))) {
      sink->Add(ord, 5, {e.id, trigger.id},
                "rule LHS condition not satisfied at trigger time");
    }
    // (5b) the event matches an RHS template under the extended binding.
    if (e.rhs_step < 0 || e.rhs_step >= static_cast<int>(r.rhs.size())) {
      sink->Add(ord, 5, {e.id}, "generated event has no valid RHS step");
      return;
    }
    const size_t step = static_cast<size_t>(e.rhs_step);
    // Unify the concrete event against the step template to pick up
    // RHS-only existential variables (e.g. `now`).
    if (!RhsStepMatches(cleared_rhs_[pos][step], e, frame)) {
      sink->Add(ord, 5, {e.id, trigger.id},
                "generated event does not match its RHS template");
      return;
    }
    // (5d) RHS condition satisfied at the event's old interpretation.
    const rule::ExprPtr& condition = r.rhs[step].condition;
    if (condition != nullptr &&
        !Holds(*condition, r, *frame, ReaderBefore(view, e.time))) {
      sink->Add(ord, 5, {e.id},
                "rule RHS condition not satisfied before the event");
    }
    if (e.time < trigger.time || trigger.time + r.delta < e.time) {
      sink->Add(ord, 5, {e.id, trigger.id},
                StrFormat("event outside rule window (delta %s)",
                          r.delta.ToString().c_str()));
    }
  }

  // Property 6, creation side: every rule `e` triggers, from the (kind,
  // item base) rule index — the same pruning the live dispatcher uses.
  // A prohibition match is reported at once; every other match is handed
  // to on_obligation(const Obligation&, const rule::BindingFrame& lhs_match)
  // for the driver to resolve now or later. `candidates` is scratch.
  template <typename View, typename OnObligation>
  void ScanObligations(const View& view, const rule::Event& e, uint64_t ord,
                       rule::BindingFrame* frame,
                       std::vector<size_t>* candidates, Sink* sink,
                       const OnObligation& on_obligation) const {
    if (!rule_index_.MayMatchKind(e.kind)) {
      // No rule listens to this kind at all (e.g. plain writes under a
      // notify-triggered program): skip the bucket lookup entirely.
      sink->obligation_scans_avoided += rules_.size();
      return;
    }
    size_t n = rule_index_.LookupQuiet(e, candidates);
    sink->obligation_scans_avoided += rules_.size() - n;
    sink->obligation_candidates += n;
    for (size_t c = 0; c < n; ++c) {
      const rule::Rule& r = rules_[(*candidates)[c]];
      frame->Clear();
      if (!r.lhs.MatchesCompiled(e, frame)) continue;
      if (r.lhs_condition != nullptr &&
          !Holds(*r.lhs_condition, r, *frame, ReaderAt(view, e.time))) {
        continue;
      }
      const uint32_t cand = static_cast<uint32_t>(c);
      if (r.forbids()) {
        sink->AddSeq(ord, P6Seq(cand, 0), 6, {e.id},
                     "event matches a prohibition rule (RHS is F): " +
                         r.ToString());
        continue;
      }
      on_obligation(Obligation{ord, cand, e.id, e.time, &r}, *frame);
    }
  }

  // The obligation's deadline, trigger time + delta, extended across
  // outages. A down site holds its messages, so an obligation whose window
  // overlaps an outage of an involved site is granted a fresh delta from
  // the restart instant. Iterated to a fixed point so that an extension
  // reaching into a later outage chains through it. Each pass strictly
  // grows the deadline, and a window stops contributing once the deadline
  // passes `to + delta`, so the loop terminates.
  TimePoint Deadline(const Obligation& ob, std::string_view trigger_site) const;

  // Property 6, resolution side: walks the rule's RHS steps against the
  // fired index. `deadline` must be past every fire the driver could still
  // learn of. A step that never fired is acceptable only if its condition
  // was false at some instant of its window.
  template <typename View>
  void ResolveObligation(const View& view, const FiredIndex& fired,
                         const Obligation& ob,
                         const rule::BindingFrame& lhs_match,
                         TimePoint deadline, Sink* sink) const {
    ++sink->obligations_checked;
    const rule::Rule& r = *ob.rule;
    TimePoint prev_step_time = ob.trigger_time;
    for (int step = 0; step < static_cast<int>(r.rhs.size()); ++step) {
      const uint32_t seq = P6Seq(ob.cand, step + 1);
      auto it = fired.find({ob.trigger_id, r.id, step});
      if (it != fired.end()) {
        const FiredStep& g = it->second;
        if (g.time < prev_step_time) {
          sink->AddSeq(ob.ord, seq, 6, {ob.trigger_id, g.id},
                       "RHS steps fired out of sequence");
        }
        prev_step_time = g.time;
        continue;
      }
      const rule::ExprPtr& condition =
          r.rhs[static_cast<size_t>(step)].condition;
      if (condition == nullptr) {
        sink->AddSeq(ob.ord, seq, 6, {ob.trigger_id},
                     StrFormat("unconditional RHS step %d of rule '%s' never "
                               "fired within %s",
                               step, r.ToString().c_str(),
                               r.delta.ToString().c_str()));
        continue;
      }
      if (!ConditionFalseSomewhere(view, *condition, r, lhs_match,
                                   prev_step_time, deadline, sink)) {
        sink->AddSeq(ob.ord, seq, 6, {ob.trigger_id},
                     StrFormat("RHS step %d of rule '%s' did not fire "
                               "although "
                               "its condition held throughout the window",
                               step, r.ToString().c_str()));
      }
    }
  }

  // Property 7: on channel `from -> to`, `prev` sorts just before `cur`; a
  // strictly earlier trigger must not fire strictly later.
  static std::optional<ExecutionViolation> CheckInOrder(
      const std::string& from, const std::string& to, const ChannelPair& prev,
      const ChannelPair& cur) {
    if (!(prev.trigger_time < cur.trigger_time &&
          cur.event_time < prev.event_time)) {
      return std::nullopt;
    }
    return ExecutionViolation{
        7,
        {prev.event_id, cur.event_id},
        StrFormat("out-of-order processing on channel %s -> %s", from.c_str(),
                  to.c_str())};
  }

 private:
  // Property-6 emission sequence within one trigger's ordinal: candidate
  // position, then step slot (0 = prohibition, k+1 = step k), so a driver
  // that resolves obligations out of order still merges into scan order.
  static uint32_t P6Seq(uint32_t cand, int slot) {
    return (cand << 16) | static_cast<uint32_t>(slot);
  }

  template <typename View>
  static rule::DataReader ReaderAt(const View& view, TimePoint t) {
    return [&view, t](const rule::ItemId& item) -> Result<Value> {
      std::optional<Value> v = view.ValueAt(item, t);
      return v.has_value() ? *v : Value::Null();
    };
  }

  template <typename View>
  static rule::DataReader ReaderBefore(const View& view, TimePoint t) {
    return [&view, t](const rule::ItemId& item) -> Result<Value> {
      std::optional<Value> v = view.ValueBefore(item, t);
      return v.has_value() ? *v : Value::Null();
    };
  }

  // Evaluation errors (unbound variables, type errors) count as false.
  static bool Holds(const rule::Expr& condition, const rule::Rule& r,
                    const rule::BindingFrame& frame,
                    const rule::DataReader& reader) {
    Result<bool> ok = condition.EvalBoolFrame(frame, r.slots, reader);
    return ok.ok() && *ok;
  }

  // Evaluates to false — an error is neither true nor false.
  static bool IsFalse(const rule::Expr& condition, const rule::Rule& r,
                      const rule::BindingFrame& frame,
                      const rule::DataReader& reader) {
    Result<bool> ok = condition.EvalBoolFrame(frame, r.slots, reader);
    return ok.ok() && !*ok;
  }

  // `tpl` has its site cleared. A read request over a parameterized item
  // with unbound arguments is implemented as one whole-base request (the
  // translator fans out to every instance), recorded with an argument-free
  // item; accept it as matching the parameterized RR template.
  static bool RhsStepMatches(const rule::EventTemplate& tpl,
                             const rule::Event& event,
                             rule::BindingFrame* frame) {
    if (tpl.kind == rule::EventKind::kReadRequest &&
        event.kind == rule::EventKind::kReadRequest &&
        tpl.item.base == event.item.base && event.item.args.empty()) {
      return true;
    }
    return tpl.MatchesCompiled(event, frame);
  }

  // Could the step's condition have been false at some instant of
  // [lo, hi]? Samples the window bounds and every state change of the
  // condition's items inside it, each just before and just after (the CM
  // chooses when to evaluate; either side of a change is a legal choice).
  template <typename View>
  bool ConditionFalseSomewhere(const View& view, const rule::Expr& condition,
                               const rule::Rule& r,
                               const rule::BindingFrame& frame, TimePoint lo,
                               TimePoint hi, Sink* sink) const {
    std::vector<rule::ItemRef> refs;
    condition.Collect(&refs, nullptr);
    std::vector<TimePoint> instants = {lo, hi};
    for (const rule::ItemRef& ref : refs) {
      Result<rule::ItemId> grounded = ref.GroundByName(frame, r.slots);
      if (!grounded.ok()) continue;
      view.ChangePoints(*grounded, lo, hi, &instants);
    }
    sink->condition_instants += instants.size();
    for (TimePoint t : instants) {
      if (IsFalse(condition, r, frame, ReaderBefore(view, t))) return true;
      if (IsFalse(condition, r, frame, ReaderAt(view, t))) return true;
    }
    return false;
  }

  // True when the outage could have delayed this obligation: it hit the
  // site the trigger was recorded at, the site hosting the rule's LHS, or a
  // site one of the RHS steps fires at. Step sites missing a "@site" pin
  // fall back to the learned site of the step's item base; a rule that
  // cannot be localized at all is conservatively treated as covered
  // (extending a deadline only ever makes the checker more lenient, and a
  // rule with no observable events has nothing to violate anyway).
  bool OutageCoversRule(std::string_view outage_site,
                        std::string_view trigger_site,
                        const rule::Rule& r) const;

  struct LearnedSite {
    std::string site;
    bool from_write = false;
  };

  std::vector<rule::Rule> rules_;  // compiled
  std::unordered_map<int64_t, size_t> rule_pos_by_id_;
  rule::RuleIndex rule_index_;
  // Per rule position: RHS event templates with the site cleared.
  std::vector<std::vector<rule::EventTemplate>> cleared_rhs_;
  size_t max_slots_ = 0;
  std::vector<SiteOutage> outages_;
  std::unordered_map<std::string, LearnedSite> site_of_base_;
};

}  // namespace hcm::trace::internal

#endif  // HCM_TRACE_CHECK_WINDOW_H_
