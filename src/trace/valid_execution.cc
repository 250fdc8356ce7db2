#include "src/trace/valid_execution.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "src/common/string_util.h"
#include "src/rule/rule_index.h"
#include "src/trace/check_window.h"

namespace hcm::trace {

std::string ExecutionViolation::ToString() const {
  std::string ids;
  for (size_t i = 0; i < event_ids.size(); ++i) {
    if (i > 0) ids += ",";
    ids += std::to_string(event_ids[i]);
  }
  return StrFormat("property %d [events %s]: %s", property, ids.c_str(),
                   message.c_str());
}

std::string ExecutionReport::ToString() const {
  std::string out = StrFormat(
      "%s (%zu events, %zu obligations checked, %zu violations)\n",
      valid ? "VALID" : "INVALID", events_checked, obligations_checked,
      violations.size());
  for (const auto& v : violations) out += "  " + v.ToString() + "\n";
  return out;
}

std::string ExecutionReport::DescribeCheckStats() const {
  double cand_per_event =
      events_checked == 0
          ? 0.0
          : static_cast<double>(stats.obligation_candidates) /
                static_cast<double>(events_checked);
  double scanned_per_chain =
      stats.chain_lookups == 0
          ? 0.0
          : static_cast<double>(stats.chain_events_scanned) /
                static_cast<double>(stats.chain_lookups);
  return StrFormat(
      "valid-execution check stats:\n"
      "  events %zu, items indexed %zu, write events indexed %zu\n"
      "  same-instant chain lookups %llu (%.1f events scanned each)\n"
      "  obligation candidates/event %.2f, rule scans avoided %llu\n"
      "  condition instants sampled %llu\n",
      events_checked, stats.items_indexed, stats.write_events_indexed,
      static_cast<unsigned long long>(stats.chain_lookups), scanned_per_chain,
      cand_per_event,
      static_cast<unsigned long long>(stats.obligation_scans_avoided),
      static_cast<unsigned long long>(stats.condition_instants));
}

namespace {

// The ordinal-tagged bounded sink and ordered phase merge live in
// check_window.h, shared with the streaming checker so both paths report
// through identical capping/ordering semantics.
using internal::Sink;
using internal::Tagged;
using internal::TaggedEarlier;
using internal::TemplateMatchesIgnoringSite;
using internal::BaseSiteOf;

class Checker {
 public:
  Checker(const Trace& trace, const std::vector<rule::Rule>& rules,
          const ValidExecutionOptions& options)
      : trace_(trace),
        rules_(rules),
        options_(options),
        timeline_(StateTimeline::Build(trace)) {
    rules_by_id_.reserve(rules_.size());
    for (const auto& r : rules_) rules_by_id_[r.id] = &r;
    // Recorder-assigned ids are dense, so id lookup is normally a plain
    // vector index; sparse ids (hand-built traces) fall back to a map.
    int64_t max_id = -1;
    for (const auto& e : trace_.events) max_id = std::max(max_id, e.id);
    if (max_id >= 0 &&
        static_cast<size_t>(max_id) < 2 * trace_.events.size() + 64) {
      events_dense_.resize(static_cast<size_t>(max_id) + 1, nullptr);
      for (const auto& e : trace_.events) {
        events_dense_[static_cast<size_t>(e.id)] = &e;
      }
    } else {
      events_by_id_.reserve(trace_.events.size());
      for (const auto& e : trace_.events) events_by_id_[e.id] = &e;
    }
    BuildEventIndexes();
    if (!options_.outages.empty()) BuildSiteOfBase();
  }

  ExecutionReport Run() {
    report_.events_checked = trace_.events.size();
    // Pre-build the cleared-RHS template cache for every rule: the lazy
    // cache is then read-only while provenance workers share it.
    for (const auto& r : rules_) {
      if (!r.rhs.empty()) ClearedRhsTemplate(r, 0);
    }
    size_t threads = std::max<size_t>(1, options_.num_threads);
    RunSequential([this](Sink* sink) { CheckOrdering(sink); });
    MergePhase(RunWriteConsistency(threads));
    MergePhase(RunProvenance(threads));
    MergePhase(RunObligations(threads));
    RunSequential([this](Sink* sink) { CheckInOrderProcessing(sink); });
    report_.valid = report_.violations.empty() && extra_violations_ == 0;
    report_.stats.items_indexed = timeline_.items().size();
    return std::move(report_);
  }

 private:
  // One forward pass that builds every per-item / per-rule index the
  // property checks need, so none of them rescans the trace per event.
  void BuildEventIndexes() {
    writes_by_item_.resize(timeline_.items().size());
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      const rule::Event& e = trace_.events[i];
      if (e.kind != rule::EventKind::kWrite &&
          e.kind != rule::EventKind::kWriteSpont) {
        continue;
      }
      // Writes always change state, so their items are always interned.
      uint32_t id = timeline_.StateIdOfEvent(i);
      if (id == ItemInterner::kNoId) continue;  // defensive
      writes_by_item_[id].push_back(static_cast<uint32_t>(i));
      ++report_.stats.write_events_indexed;
    }
    // Traces are normally already (time, id)-ordered; sorting keeps the
    // same-instant range lookup correct even on property-1-violating input.
    for (auto& run : writes_by_item_) {
      std::sort(run.begin(), run.end(), [this](uint32_t a, uint32_t b) {
        const rule::Event& ea = trace_.events[a];
        const rule::Event& eb = trace_.events[b];
        if (ea.time != eb.time) return ea.time < eb.time;
        return ea.id < eb.id;
      });
    }
    for (size_t pos = 0; pos < rules_.size(); ++pos) {
      rule_index_.Add(rules_[pos].lhs, pos);
    }
  }

  // Runs a sequential phase through the same sink/merge machinery the
  // parallel phases use, so capping and ordering semantics are uniform.
  template <typename Phase>
  void RunSequential(const Phase& phase) {
    std::vector<Sink> sinks;
    sinks.emplace_back(options_.max_violations);
    phase(&sinks[0]);
    MergePhase(std::move(sinks));
  }

  // Dynamic fan-out of `num_units` work units over `threads` workers, one
  // sink per worker. body(unit, sink) must touch only its own unit's state.
  template <typename Body>
  std::vector<Sink> RunUnits(size_t threads, size_t num_units,
                             const Body& body) {
    threads = std::min(threads, std::max<size_t>(1, num_units));
    std::vector<Sink> sinks;
    sinks.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      sinks.emplace_back(options_.max_violations);
    }
    if (threads <= 1) {
      for (size_t u = 0; u < num_units; ++u) body(u, &sinks[0]);
      return sinks;
    }
    std::atomic<size_t> next{0};
    auto worker = [&](Sink* sink) {
      for (;;) {
        size_t u = next.fetch_add(1, std::memory_order_relaxed);
        if (u >= num_units) return;
        body(u, sink);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (size_t i = 1; i < threads; ++i) pool.emplace_back(worker, &sinks[i]);
    worker(&sinks[0]);
    for (auto& t : pool) t.join();
    return sinks;
  }

  void MergePhase(std::vector<Sink> sinks) {
    internal::MergePhaseInto(std::move(sinks), options_.max_violations,
                             &report_, &extra_violations_);
  }

  const rule::Event* EventById(int64_t id) const {
    if (!events_dense_.empty()) {
      return (id >= 0 && static_cast<size_t>(id) < events_dense_.size())
                 ? events_dense_[static_cast<size_t>(id)]
                 : nullptr;
    }
    auto it = events_by_id_.find(id);
    return it == events_by_id_.end() ? nullptr : it->second;
  }

  // The rule's RHS templates with sites cleared, built once per rule.
  const rule::EventTemplate& ClearedRhsTemplate(const rule::Rule& r,
                                                size_t step) const {
    auto it = cleared_rhs_.find(&r);
    if (it == cleared_rhs_.end()) {
      std::vector<rule::EventTemplate> cleared;
      cleared.reserve(r.rhs.size());
      for (const auto& s : r.rhs) {
        cleared.push_back(s.event);
        cleared.back().site.clear();
      }
      it = cleared_rhs_.emplace(&r, std::move(cleared)).first;
    }
    return it->second[step];
  }

  // Reader for condition evaluation at state "just after instant t".
  rule::DataReader ReaderAt(TimePoint t) const {
    return [this, t](const rule::ItemId& item) -> Result<Value> {
      auto v = timeline_.ValueAt(item, t);
      // CM-private items default to Null before their first write.
      return v.has_value() ? *v : Value::Null();
    };
  }

  rule::DataReader ReaderBefore(TimePoint t) const {
    return [this, t](const rule::ItemId& item) -> Result<Value> {
      auto v = timeline_.ValueBefore(item, t);
      return v.has_value() ? *v : Value::Null();
    };
  }

  // Property 1. Sequential: one compare per adjacent pair.
  void CheckOrdering(Sink* sink) {
    for (size_t i = 1; i < trace_.events.size(); ++i) {
      if (trace_.events[i].time < trace_.events[i - 1].time) {
        sink->Add(i, 1, {trace_.events[i - 1].id, trace_.events[i].id},
                  "events out of time order");
      }
    }
  }

  // Same-instant write chains: did an earlier write at exactly `e.time` on
  // the same item produce the old value `e` claims? A sorted range lookup
  // in the item's write run.
  bool SameInstantChainMatches(const rule::Event& e, uint32_t id,
                               Sink* sink) const {
    ++sink->chain_lookups;
    const std::vector<uint32_t>& run = writes_by_item_[id];
    auto lo = std::lower_bound(run.begin(), run.end(), e.time,
                               [this](uint32_t idx, TimePoint t) {
                                 return trace_.events[idx].time < t;
                               });
    for (auto it = lo; it != run.end(); ++it) {
      const rule::Event& other = trace_.events[*it];
      if (other.time != e.time) break;
      ++sink->chain_events_scanned;
      if (other.id >= e.id) continue;
      if (other.written_value() == e.old_value()) return true;
    }
    return false;
  }

  // Properties 2+3: a Ws event's recorded old value must equal the state
  // just before it (writes change exactly their own item by construction of
  // the per-item representation). One work unit per interned item id — an
  // item's writes are independent of every other item's, and its sorted
  // write run plus a private SegmentCursor give amortized-O(1) prior-state
  // lookups.
  std::vector<Sink> RunWriteConsistency(size_t threads) {
    return RunUnits(threads, timeline_.items().size(),
                    [this](size_t id, Sink* sink) {
                      WriteConsistencyForItem(static_cast<uint32_t>(id), sink);
                    });
  }

  void WriteConsistencyForItem(uint32_t id, Sink* sink) const {
    SegmentCursor cursor(timeline_.SegmentsOf(id));
    for (uint32_t idx : writes_by_item_[id]) {
      const rule::Event& e = trace_.events[idx];
      if (e.kind != rule::EventKind::kWriteSpont) continue;
      const Segment* seg = cursor.SeekBefore(e.time);
      std::optional<Value> before;
      if (seg != nullptr) before = seg->value;
      CheckWsOldValue(e, idx, id, before, sink);
    }
  }

  void CheckWsOldValue(const rule::Event& e, size_t event_index, uint32_t id,
                       const std::optional<Value>& before, Sink* sink) const {
    // Several writes can share a timestamp; ValueBefore then sees only the
    // pre-batch state. Accept either the strict-before value or an earlier
    // same-instant write's value — so only flag when the recorded old
    // value is *neither* Null-for-unknown nor the prior state.
    Value expected = before.has_value() ? *before : Value::Null();
    if (!(e.old_value() == expected) && !e.old_value().is_null()) {
      if (!SameInstantChainMatches(e, id, sink)) {
        sink->Add(event_index, 2, {e.id},
                  StrFormat("Ws old value %s != prior state %s",
                            e.old_value().ToString().c_str(),
                            expected.ToString().c_str()));
      }
    }
  }

  // Properties 4+5. Each event's provenance is checked against read-only
  // shared state (event table, rules, pre-built cleared templates, the
  // timeline), so the trace fans out over contiguous event ranges.
  std::vector<Sink> RunProvenance(size_t threads) {
    size_t n = trace_.events.size();
    size_t num_chunks = ChunkCount(threads, n);
    return RunUnits(threads, num_chunks,
                    [this, n, num_chunks](size_t chunk, Sink* sink) {
                      size_t lo = chunk * n / num_chunks;
                      size_t hi = (chunk + 1) * n / num_chunks;
                      for (size_t i = lo; i < hi; ++i) {
                        ProvenanceForEvent(i, sink);
                      }
                    });
  }

  void ProvenanceForEvent(size_t i, Sink* sink) const {
    const rule::Event& e = trace_.events[i];
    if (e.spontaneous()) {
      if (e.trigger_event_id >= 0) {
        sink->Add(i, 4, {e.id},
                  "spontaneous event carries a trigger reference");
      }
      return;
    }
    auto rule_it = rules_by_id_.find(e.rule_id);
    if (rule_it == rules_by_id_.end()) {
      sink->Add(i, 5, {e.id},
                StrFormat("generated event names unknown rule %lld",
                          static_cast<long long>(e.rule_id)));
      return;
    }
    const rule::Rule& r = *rule_it->second;
    const rule::Event* trig = EventById(e.trigger_event_id);
    if (trig == nullptr) {
      sink->Add(i, 5, {e.id}, "generated event names unknown trigger");
      return;
    }
    const rule::Event& trigger = *trig;
    rule::Binding binding;
    if (!r.lhs.Matches(trigger, &binding)) {
      sink->Add(i, 5, {e.id, trigger.id},
                "trigger does not match the rule's LHS template");
      return;
    }
    binding["now"] = Value::Int(e.time.millis());
    // (5c) LHS condition satisfied at trigger time (new interpretation).
    if (r.lhs_condition != nullptr) {
      auto ok = r.lhs_condition->EvalBool(binding, ReaderAt(trigger.time));
      if (!ok.ok() || !*ok) {
        sink->Add(i, 5, {e.id, trigger.id},
                  "rule LHS condition not satisfied at trigger time");
      }
    }
    // (5b) the event matches an RHS template under the extended binding.
    if (e.rhs_step < 0 || e.rhs_step >= static_cast<int>(r.rhs.size())) {
      sink->Add(i, 5, {e.id}, "generated event has no valid RHS step");
      return;
    }
    const rule::RhsStep& step = r.rhs[static_cast<size_t>(e.rhs_step)];
    rule::Binding extended = binding;
    // Unify the concrete event against the step template to pick up
    // RHS-only existential variables (e.g. `now`).
    if (!TemplateMatchesIgnoringSite(
            ClearedRhsTemplate(r, static_cast<size_t>(e.rhs_step)), e,
            &extended)) {
      sink->Add(i, 5, {e.id, trigger.id},
                "generated event does not match its RHS template");
      return;
    }
    // (5d) RHS condition satisfied at the event's old interpretation.
    if (step.condition != nullptr) {
      auto ok = step.condition->EvalBool(extended, ReaderBefore(e.time));
      if (!ok.ok() || !*ok) {
        sink->Add(i, 5, {e.id},
                  "rule RHS condition not satisfied before the event");
      }
    }
    // Timing: within [trigger.time, trigger.time + delta].
    if (e.time < trigger.time || trigger.time + r.delta < e.time) {
      sink->Add(i, 5, {e.id, trigger.id},
                StrFormat("event outside rule window (delta %s)",
                          r.delta.ToString().c_str()));
    }
  }

  // More chunks than workers so dynamic scheduling balances skew; one chunk
  // when running inline.
  static size_t ChunkCount(size_t threads, size_t num_units) {
    if (threads <= 1 || num_units == 0) return num_units == 0 ? 0 : 1;
    return std::min(num_units, threads * 4);
  }

  // Property 6: firing obligations. Rules a given event could trigger come
  // from the (kind, item base) rule index — the same pruning the live
  // dispatcher uses — instead of re-unifying every rule against every event.
  // The fired-event index is built once up front; the per-event obligation
  // checks then share only read-only state (workers use the index's quiet
  // lookup so no dispatch counters race) and fan out over event ranges.
  std::vector<Sink> RunObligations(size_t threads) {
    fired_.reserve(trace_.events.size());
    for (const auto& e : trace_.events) {
      if (!e.spontaneous()) {
        fired_[{e.trigger_event_id, e.rule_id, e.rhs_step}] = &e;
      }
    }
    size_t n = trace_.events.size();
    size_t num_chunks = ChunkCount(threads, n);
    return RunUnits(threads, num_chunks,
                    [this, n, num_chunks](size_t chunk, Sink* sink) {
                      std::vector<size_t> candidates;
                      size_t lo = chunk * n / num_chunks;
                      size_t hi = (chunk + 1) * n / num_chunks;
                      for (size_t i = lo; i < hi; ++i) {
                        ObligationsForEvent(i, sink, &candidates);
                      }
                    });
  }

  void ObligationsForEvent(size_t i, Sink* sink,
                           std::vector<size_t>* candidates) const {
    const rule::Event& e = trace_.events[i];
    if (!rule_index_.MayMatchKind(e.kind)) {
      // No rule listens to this kind at all (e.g. plain writes under a
      // notify-triggered program): skip the bucket lookup entirely.
      sink->obligation_scans_avoided += rules_.size();
      return;
    }
    size_t num_candidates = rule_index_.LookupQuiet(e, candidates);
    sink->obligation_scans_avoided += rules_.size() - num_candidates;
    sink->obligation_candidates += num_candidates;
    for (size_t c = 0; c < num_candidates; ++c) {
      const rule::Rule& r = rules_[(*candidates)[c]];
      rule::Binding binding;
      if (!r.lhs.Matches(e, &binding)) continue;
      if (r.lhs_condition != nullptr) {
        auto ok = r.lhs_condition->EvalBool(binding, ReaderAt(e.time));
        if (!ok.ok() || !*ok) continue;
      }
      if (r.forbids()) {
        sink->Add(i, 6, {e.id},
                  "event matches a prohibition rule (RHS is F): " +
                      r.ToString());
        continue;
      }
      TimePoint deadline =
          ExtendDeadlineAcrossOutages(e, r, e.time + r.delta);
      if (options_.skip_obligations_past_horizon &&
          trace_.horizon < deadline) {
        continue;  // not yet due when the run ended
      }
      ++sink->obligations_checked;
      TimePoint prev_step_time = e.time;
      for (int step = 0; step < static_cast<int>(r.rhs.size()); ++step) {
        auto it = fired_.find({e.id, r.id, step});
        if (it != fired_.end()) {
          const rule::Event& g = *it->second;
          if (g.time < prev_step_time) {
            sink->Add(i, 6, {e.id, g.id}, "RHS steps fired out of sequence");
          }
          prev_step_time = g.time;
          continue;
        }
        // Step did not fire: acceptable only if its condition could have
        // been false at some instant of the window. Sample the window at
        // state-change points of the condition's items.
        const rule::RhsStep& rhs = r.rhs[static_cast<size_t>(step)];
        if (rhs.condition == nullptr) {
          sink->Add(i, 6, {e.id},
                    StrFormat("unconditional RHS step %d of rule '%s' never "
                              "fired within %s",
                              step, r.ToString().c_str(),
                              r.delta.ToString().c_str()));
          continue;
        }
        if (!ConditionFalseSomewhere(*rhs.condition, binding, prev_step_time,
                                     deadline, sink)) {
          sink->Add(i, 6, {e.id},
                    StrFormat("RHS step %d of rule '%s' did not fire although "
                              "its condition held throughout the window",
                              step, r.ToString().c_str()));
        }
      }
    }
  }

  // Maps each item base to the site it lives at, learned from the trace:
  // write-shaped events (Ws/W/WR/INS/DEL) execute at the item's home site,
  // so they are authoritative; any other event fills remaining gaps.
  // Needed because strategy rules carry no "@site" pins — the System
  // resolves placement at install time, after the specs are generated.
  void BuildSiteOfBase() {
    auto is_write = [](rule::EventKind k) {
      return k == rule::EventKind::kWriteSpont ||
             k == rule::EventKind::kWrite ||
             k == rule::EventKind::kWriteRequest ||
             k == rule::EventKind::kInsert || k == rule::EventKind::kDelete;
    };
    for (const auto& e : trace_.events) {
      if (!is_write(e.kind)) continue;
      site_of_base_.emplace(e.item.base, BaseSiteOf(e.site));
    }
    for (const auto& e : trace_.events) {
      if (e.item.base.empty()) continue;
      site_of_base_.emplace(e.item.base, BaseSiteOf(e.site));
    }
  }

  // True when the outage could have delayed this obligation: it hit the
  // site the trigger was recorded at, the site hosting the rule's LHS, or a
  // site one of the RHS steps fires at. Step sites missing a "@site" pin
  // fall back to where the trace observed the step's item base; a rule the
  // trace cannot localize at all is conservatively treated as covered
  // (extending a deadline only ever makes the checker more lenient, and a
  // rule with no observable events has nothing to violate anyway).
  bool OutageCoversRule(const std::string& outage_site, const rule::Event& e,
                        const rule::Rule& r) const {
    const std::string down = BaseSiteOf(outage_site);
    if (BaseSiteOf(e.site) == down) return true;
    if (!r.lhs.site.empty() && BaseSiteOf(r.lhs.site) == down) return true;
    bool unknown = false;
    for (const auto& step : r.rhs) {
      std::string site = step.event.site;
      if (site.empty()) {
        auto it = site_of_base_.find(step.event.item.base);
        if (it != site_of_base_.end()) site = it->second;
      }
      if (site.empty()) {
        unknown = true;
      } else if (BaseSiteOf(site) == down) {
        return true;
      }
    }
    return unknown;
  }

  // Outage-aware deadline: a down site holds its messages, so an obligation
  // whose window overlaps an outage of an involved site is granted a fresh
  // delta from the restart instant. Iterated to a fixed point so that an
  // extension reaching into a later outage chains through it. Each pass
  // strictly grows the deadline, and a window stops contributing once the
  // deadline passes `to + delta`, so the loop terminates.
  TimePoint ExtendDeadlineAcrossOutages(const rule::Event& e,
                                        const rule::Rule& r,
                                        TimePoint deadline) const {
    if (options_.outages.empty()) return deadline;
    bool extended = true;
    while (extended) {
      extended = false;
      for (const auto& w : options_.outages) {
        if (!(w.from <= deadline && e.time < w.to)) continue;
        if (!OutageCoversRule(w.site, e, r)) continue;
        TimePoint candidate = w.to + r.delta;
        if (deadline < candidate) {
          deadline = candidate;
          extended = true;
        }
      }
    }
    return deadline;
  }

  bool ConditionFalseSomewhere(const rule::Expr& condition,
                               const rule::Binding& binding, TimePoint lo,
                               TimePoint hi, Sink* sink) const {
    // Candidate instants: window bounds plus every state change in (lo, hi).
    std::vector<rule::ItemRef> items;
    condition.Collect(&items, nullptr);
    std::vector<TimePoint> candidates = {lo, hi};
    for (const auto& ref : items) {
      auto grounded = ref.Ground(binding);
      if (!grounded.ok()) continue;
      for (const auto& seg : timeline_.SegmentsOf(*grounded)) {
        if (lo < seg.from && seg.from <= hi) candidates.push_back(seg.from);
      }
    }
    sink->condition_instants += candidates.size();
    for (TimePoint t : candidates) {
      rule::Binding b = binding;
      auto ok = condition.EvalBool(b, ReaderBefore(t));
      if (ok.ok() && !*ok) return true;
      // Also check just after t (conditions are evaluated at an instant the
      // CM chooses; either side of a change is a legal choice).
      auto ok2 = condition.EvalBool(b, ReaderAt(t));
      if (ok2.ok() && !*ok2) return true;
    }
    return false;
  }

  // Property 7: related rules preserve trigger order in firing order.
  void CheckInOrderProcessing(Sink* sink) {
    uint64_t ord = 0;
    // Group generated events by (trigger site, event site).
    struct Pair {
      TimePoint trigger_time;
      TimePoint event_time;
      int64_t trigger_id;
      int64_t event_id;
    };
    // Group with a hash map (one string-pair hash per event, not an
    // ordered-map walk), then emit channels in sorted order so the report
    // is deterministic and matches the pre-index enumeration.
    struct ChannelHash {
      size_t operator()(const std::pair<std::string, std::string>& c) const {
        return std::hash<std::string>()(c.first) * 1000003 +
               std::hash<std::string>()(c.second);
      }
    };
    std::unordered_map<std::pair<std::string, std::string>, std::vector<Pair>,
                       ChannelHash>
        groups;
    for (const auto& e : trace_.events) {
      if (e.spontaneous()) continue;
      const rule::Event* trig = EventById(e.trigger_event_id);
      if (trig == nullptr) continue;
      const rule::Event& trigger = *trig;
      groups[{trigger.site, e.site}].push_back(
          Pair{trigger.time, e.time, trigger.id, e.id});
    }
    std::vector<decltype(groups)::value_type*> ordered;
    ordered.reserve(groups.size());
    for (auto& entry : groups) ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (auto* entry : ordered) {
      auto& [channel, pairs] = *entry;
      // stable_sort: ties keep insertion (trace) order, so the streaming
      // checker — which accumulates pairs incrementally — sees the same
      // adjacency and reports identical violations.
      std::stable_sort(pairs.begin(), pairs.end(),
                       [](const Pair& a, const Pair& b) {
                         if (a.trigger_time != b.trigger_time) {
                           return a.trigger_time < b.trigger_time;
                         }
                         return a.event_time < b.event_time;
                       });
      for (size_t i = 1; i < pairs.size(); ++i) {
        // Strictly earlier trigger must not fire strictly later.
        if (pairs[i - 1].trigger_time < pairs[i].trigger_time &&
            pairs[i].event_time < pairs[i - 1].event_time) {
          sink->Add(
              ord++, 7, {pairs[i - 1].event_id, pairs[i].event_id},
              StrFormat("out-of-order processing on channel %s -> %s",
                        channel.first.c_str(), channel.second.c_str()));
        }
      }
      (void)channel;
    }
  }

  const Trace& trace_;
  const std::vector<rule::Rule>& rules_;
  const ValidExecutionOptions& options_;
  StateTimeline timeline_;
  std::unordered_map<int64_t, const rule::Rule*> rules_by_id_;
  std::vector<const rule::Event*> events_dense_;  // id -> event (dense ids)
  std::unordered_map<int64_t, const rule::Event*> events_by_id_;
  // Per rule: RHS event templates with the site cleared, so provenance
  // matching does not copy a string-heavy template per generated event.
  mutable std::unordered_map<const rule::Rule*,
                             std::vector<rule::EventTemplate>>
      cleared_rhs_;
  // Per interned item: indexes into trace_.events of its W/Ws events,
  // sorted by (time, id).
  std::vector<std::vector<uint32_t>> writes_by_item_;
  // Generated events by (trigger, rule, step); built sequentially in
  // RunObligations before the fan-out, read-only inside the workers.
  struct FiredKeyHash {
    size_t operator()(const std::tuple<int64_t, int64_t, int>& k) const {
      size_t h = std::hash<int64_t>()(std::get<0>(k));
      h = h * 1000003 + std::hash<int64_t>()(std::get<1>(k));
      return h * 1000003 + std::hash<int>()(std::get<2>(k));
    }
  };
  // Item base -> home site, for outage coverage (built only with outages).
  std::unordered_map<std::string, std::string> site_of_base_;
  std::unordered_map<std::tuple<int64_t, int64_t, int>, const rule::Event*,
                     FiredKeyHash>
      fired_;
  rule::RuleIndex rule_index_;
  ExecutionReport report_;
  size_t extra_violations_ = 0;
};

}  // namespace

ExecutionReport CheckValidExecution(const Trace& trace,
                                    const std::vector<rule::Rule>& rules,
                                    const ValidExecutionOptions& options) {
  Checker checker(trace, rules, options);
  return checker.Run();
}

}  // namespace hcm::trace
