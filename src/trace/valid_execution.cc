#include "src/trace/valid_execution.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <unordered_map>

#include "src/common/string_util.h"
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

using internal::ChannelPair;
using internal::FiredIndex;
using internal::Obligation;
using internal::PropertyCore;
using internal::Sink;

// The offline driver of the property core: the whole trace and its
// StateTimeline are at hand, so each phase fans out over independent units
// (items, event ranges) and every obligation resolves at once. The Checker
// is also the core's view (Trigger / ValueAt / ValueBefore / ChangePoints).
class Checker {
 public:
  Checker(const Trace& trace, const std::vector<rule::Rule>& rules,
          const ValidExecutionOptions& options)
      : trace_(trace),
        options_(options),
        core_(rules, options.outages),
        timeline_(StateTimeline::Build(trace)) {
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
  }

  ExecutionReport Run() {
    report_.events_checked = trace_.events.size();
    size_t threads = std::max<size_t>(1, options_.num_threads);
    RunSequential([this](Sink* sink) {
      for (size_t i = 1; i < trace_.events.size(); ++i) {
        const rule::Event& prev = trace_.events[i - 1];
        PropertyCore::CheckTimeOrder(prev.time, prev.id, trace_.events[i], i,
                                     sink);
      }
    });
    MergePhase(RunWriteConsistency(threads));
    MergePhase(RunProvenance(threads));
    MergePhase(RunObligations(threads));
    RunSequential([this](Sink* sink) { CheckInOrderProcessing(sink); });
    report_.valid = report_.violations.empty() && extra_violations_ == 0;
    report_.stats.items_indexed = timeline_.items().size();
    return std::move(report_);
  }

  // ---- the core's view ----

  const rule::Event* Trigger(int64_t id) const {
    if (!events_dense_.empty()) {
      return (id >= 0 && static_cast<size_t>(id) < events_dense_.size())
                 ? events_dense_[static_cast<size_t>(id)]
                 : nullptr;
    }
    auto it = events_by_id_.find(id);
    return it == events_by_id_.end() ? nullptr : it->second;
  }

  std::optional<Value> ValueAt(const rule::ItemId& item, TimePoint t) const {
    return timeline_.ValueAt(item, t);
  }

  std::optional<Value> ValueBefore(const rule::ItemId& item,
                                   TimePoint t) const {
    return timeline_.ValueBefore(item, t);
  }

  void ChangePoints(const rule::ItemId& item, TimePoint lo, TimePoint hi,
                    std::vector<TimePoint>* out) const {
    for (const auto& seg : timeline_.SegmentsOf(item)) {
      if (lo < seg.from && seg.from <= hi) out->push_back(seg.from);
    }
  }

 private:
  // One forward pass that builds every per-item index the property checks
  // need, so none of them rescans the trace per event.
  void BuildEventIndexes() {
    writes_by_item_.resize(timeline_.items().size());
    const bool learn_sites = !core_.outages().empty();
    for (size_t i = 0; i < trace_.events.size(); ++i) {
      const rule::Event& e = trace_.events[i];
      if (learn_sites) core_.LearnSite(e);
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

  // Splits the trace into contiguous event ranges and runs body(i, ...)
  // on each event, with one frame and candidate buffer per range.
  template <typename Body>
  std::vector<Sink> RunEventRanges(size_t threads, const Body& body) {
    size_t n = trace_.events.size();
    size_t num_chunks = ChunkCount(threads, n);
    return RunUnits(threads, num_chunks,
                    [this, n, num_chunks, &body](size_t chunk, Sink* sink) {
                      rule::BindingFrame frame = core_.NewFrame();
                      std::vector<size_t> candidates;
                      size_t lo = chunk * n / num_chunks;
                      size_t hi = (chunk + 1) * n / num_chunks;
                      for (size_t i = lo; i < hi; ++i) {
                        body(i, &frame, &candidates, sink);
                      }
                    });
  }

  void MergePhase(std::vector<Sink> sinks) {
    internal::MergePhaseInto(std::move(sinks), options_.max_violations,
                             &report_, &extra_violations_);
  }

  // Same-instant write chains: did an earlier write at exactly `e.time` on
  // the same item produce the old value `e` claims? A sorted range lookup
  // in the item's write run.
  bool SameInstantChainMatches(const rule::Event& e, uint32_t id,
                               Sink* sink) const {
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

  // Properties 2+3, one work unit per interned item id — an item's writes
  // are independent of every other item's, and its sorted write run plus a
  // private SegmentCursor give amortized-O(1) prior-state lookups.
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
      PropertyCore::CheckWsOldValue(e, idx, before, sink, [&] {
        return SameInstantChainMatches(e, id, sink);
      });
    }
  }

  // Properties 4+5 over contiguous event ranges; each event's provenance
  // reads only shared read-only state.
  std::vector<Sink> RunProvenance(size_t threads) {
    return RunEventRanges(
        threads, [this](size_t i, rule::BindingFrame* frame,
                        std::vector<size_t>*, Sink* sink) {
          core_.CheckProvenance(*this, trace_.events[i], i, frame, sink);
        });
  }

  // More chunks than workers so dynamic scheduling balances skew; one chunk
  // when running inline.
  static size_t ChunkCount(size_t threads, size_t num_units) {
    if (threads <= 1 || num_units == 0) return num_units == 0 ? 0 : 1;
    return std::min(num_units, threads * 4);
  }

  // Property 6. The fired-event index is built once up front; the
  // per-event obligation checks then share only read-only state and fan
  // out over event ranges. Obligations that come due after the horizon are
  // skipped — the run ended before they came due.
  std::vector<Sink> RunObligations(size_t threads) {
    fired_.reserve(trace_.events.size());
    for (const auto& e : trace_.events) {
      if (!e.spontaneous()) {
        fired_[{e.trigger_event_id, e.rule_id, e.rhs_step}] = {e.time, e.id};
      }
    }
    return RunEventRanges(
        threads, [this](size_t i, rule::BindingFrame* frame,
                        std::vector<size_t>* candidates, Sink* sink) {
          const rule::Event& e = trace_.events[i];
          core_.ScanObligations(
              *this, e, i, frame, candidates, sink,
              [&](const Obligation& ob, const rule::BindingFrame& lhs_match) {
                TimePoint deadline = core_.Deadline(ob, e.site);
                if (trace_.horizon < deadline) return;
                core_.ResolveObligation(*this, fired_, ob, lhs_match, deadline,
                                        sink);
              });
        });
  }

  // Property 7: related rules preserve trigger order in firing order.
  void CheckInOrderProcessing(Sink* sink) {
    uint64_t ord = 0;
    // Group generated events by (trigger site, event site) with a hash map
    // (one string-pair hash per event, not an ordered-map walk), then emit
    // channels in sorted order so the report is deterministic.
    struct ChannelHash {
      size_t operator()(const std::pair<std::string, std::string>& c) const {
        return std::hash<std::string>()(c.first) * 1000003 +
               std::hash<std::string>()(c.second);
      }
    };
    std::unordered_map<std::pair<std::string, std::string>,
                       std::vector<ChannelPair>, ChannelHash>
        groups;
    for (const auto& e : trace_.events) {
      if (e.spontaneous()) continue;
      const rule::Event* trig = Trigger(e.trigger_event_id);
      if (trig == nullptr) continue;
      std::vector<ChannelPair>& pairs = groups[{trig->site, e.site}];
      pairs.push_back(
          ChannelPair{trig->time, e.time, trig->id, e.id, pairs.size()});
    }
    std::vector<decltype(groups)::value_type*> ordered;
    ordered.reserve(groups.size());
    for (auto& entry : groups) ordered.push_back(&entry);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (auto* entry : ordered) {
      auto& [channel, pairs] = *entry;
      std::sort(pairs.begin(), pairs.end(), internal::ChannelPairLess());
      for (size_t i = 1; i < pairs.size(); ++i) {
        if (auto v = PropertyCore::CheckInOrder(channel.first, channel.second,
                                                pairs[i - 1], pairs[i])) {
          sink->Add(ord++, 7, std::move(v->event_ids), std::move(v->message));
        }
      }
    }
  }

  const Trace& trace_;
  const ValidExecutionOptions& options_;
  PropertyCore core_;
  StateTimeline timeline_;
  std::vector<const rule::Event*> events_dense_;  // id -> event (dense ids)
  std::unordered_map<int64_t, const rule::Event*> events_by_id_;
  // Per interned item: indexes into trace_.events of its W/Ws events,
  // sorted by (time, id).
  std::vector<std::vector<uint32_t>> writes_by_item_;
  // Built sequentially in RunObligations before the fan-out, read-only
  // inside the workers.
  FiredIndex fired_;
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
