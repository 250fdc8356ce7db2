#include "src/trace/streaming_checker.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "src/common/string_util.h"
#include "src/trace/check_window.h"

namespace hcm::trace {

namespace {

using internal::ChannelPair;
using internal::Obligation;
using internal::PropertyCore;
using internal::Sink;

constexpr TimePoint kFarFuture =
    TimePoint::FromMillis(std::numeric_limits<int64_t>::max() / 4);
constexpr TimePoint kFarPast =
    TimePoint::FromMillis(std::numeric_limits<int64_t>::min() / 4);

bool ChangesState(rule::EventKind kind) {
  switch (kind) {
    case rule::EventKind::kWriteSpont:
    case rule::EventKind::kWrite:
    case rule::EventKind::kInsert:
    case rule::EventKind::kDelete:
      return true;
    default:
      return false;
  }
}

Duration AbsDuration(Duration d) {
  return d < Duration::Zero() ? Duration::Zero() - d : d;
}

// Merge key of a windowed guarantee violation: the LHS parameter values (in
// param_vars order) then the anchor instant. Global ascending order over
// this key is exactly the unrestricted run's representative order.
struct VKey {
  std::vector<std::pair<std::string, Value>> pb;
  TimePoint anchor;
};

struct VKeyLess {
  bool operator()(const VKey& a, const VKey& b) const {
    size_t n = std::min(a.pb.size(), b.pb.size());
    for (size_t i = 0; i < n; ++i) {
      const Value& va = a.pb[i].second;
      const Value& vb = b.pb[i].second;
      if (va < vb) return true;
      if (vb < va) return false;
    }
    if (a.pb.size() != b.pb.size()) return a.pb.size() < b.pb.size();
    return a.anchor < b.anchor;
  }
};

}  // namespace

// The streaming driver of the property core (check_window.h). Impl is also
// the core's view: triggers come from the live ring, state from the live
// item store.
struct StreamingChecker::Impl {
  // ---- configuration ----
  std::vector<spec::Guarantee> guarantees;
  StreamingCheckOptions options;
  PropertyCore core;
  Duration retention;  // max rule delta + 1ms: ring / store / pair horizon
  Duration stride;     // maintenance cadence

  // ---- feed state ----
  std::deque<rule::Event> pending;  // arrived, instant not yet complete
  uint64_t seen = 0;                // == next event's trace ordinal
  bool have_prev = false;           // property-1 adjacency state
  TimePoint prev_time;
  int64_t prev_id = -1;
  TimePoint watermark = kFarPast;
  TimePoint next_maintenance = kFarPast;
  TimePoint horizon;
  bool finished = false;

  // ---- live event ring (dense final ids, contiguous) ----
  std::deque<rule::Event> ring;
  int64_t ring_base = 0;    // id of ring.front()
  uint64_t ring_ord = 0;    // trace ordinal of ring.front()

  // ---- live item store (valid-execution state) ----
  struct ChainEntry {
    TimePoint time;
    int64_t id;
    Value written;
  };
  struct ItemState {
    std::deque<Segment> segs;
    bool has_initial = false;
    // Same-instant write chains (property 2) for the current batch. A
    // batch never splits an instant but may span several; entries from
    // prior batches are dead (their instants are fully checked) and are
    // dropped lazily via the generation stamp.
    uint64_t chain_gen = 0;
    std::vector<ChainEntry> chain;
  };
  ItemInterner interner;
  std::vector<ItemState> items;
  uint64_t batch_gen = 0;

  // ---- provenance / obligation scratch ----
  rule::BindingFrame frame;
  std::vector<size_t> candidates_scratch;

  // ---- obligations (property 6) ----
  struct OpenObligation {
    Obligation ob;
    std::string trigger_site;
    rule::BindingFrame lhs_match;  // sized to the rule's slots
  };
  uint64_t next_oblig = 0;
  std::map<uint64_t, OpenObligation> open;         // by creation seq
  std::multimap<TimePoint, uint64_t> by_deadline;  // creation-time deadline
  internal::FiredIndex fired;
  size_t fired_sweep_at = 4096;

  // ---- property 7 ----
  struct P7Channel {
    std::set<ChannelPair, internal::ChannelPairLess> pairs;
    uint64_t next_seq = 0;
    std::vector<ExecutionViolation> kept;
    size_t found = 0;
  };
  std::map<std::pair<std::string, std::string>, P7Channel> channels;

  // ---- per-phase sinks, merged at Finish in offline phase order ----
  Sink sink_p1, sink_p2, sink_p45, sink_p6, sink_p7;

  // ---- results ----
  ExecutionReport report;
  size_t extra_violations = 0;
  std::map<std::string, GuaranteeCheckResult> results;
  StreamingCheckStats stats;

  // ---- guarantee collector ----
  bool collect_all = false;
  std::set<std::string> guarantee_bases;
  ItemInterner g_interner;
  struct GItem {
    std::deque<Segment> segs;
    bool has_initial = false;
  };
  std::vector<GItem> g_items;
  struct GState {
    const spec::Guarantee* g;
    bool windowed = false;
    bool failed = false;  // a region run returned a structural error
    std::string anchor;
    Duration lag = Duration::Zero();
    std::vector<std::string> param_vars;
    TimePoint region_lo = kFarPast;
    size_t lhs_witnesses = 0;
    size_t violation_count = 0;
    bool truncated = false;
    GuaranteeCheckStats gstats;
    std::map<VKey, Counterexample, VKeyLess> worst;  // smallest cap keys
  };
  std::vector<GState> gstates;

  explicit Impl(std::vector<rule::Rule> rules_in,
                std::vector<spec::Guarantee> guarantees_in,
                StreamingCheckOptions options_in)
      : guarantees(std::move(guarantees_in)),
        options(std::move(options_in)),
        core(std::move(rules_in), options.valid.outages),
        frame(core.NewFrame()),
        sink_p1(options.valid.max_violations),
        sink_p2(options.valid.max_violations),
        sink_p45(options.valid.max_violations),
        sink_p6(options.valid.max_violations),
        sink_p7(options.valid.max_violations) {
    Duration max_delta = Duration::Zero();
    for (const auto& r : core.rules()) {
      max_delta = std::max(max_delta, r.delta);
    }
    retention = max_delta + Duration::Millis(1);
    stride = std::max(Duration::Seconds(1),
                      std::min(retention, Duration::Seconds(60)));
    // Live notification: every valid-execution violation except property
    // 7's, which CheckP7Adjacent reports as it finds them.
    for (Sink* sink : {&sink_p1, &sink_p2, &sink_p45, &sink_p6}) {
      sink->set_listener([this](const ExecutionViolation& v) {
        ++stats.live_violations;
        if (options.on_violation) options.on_violation(v);
      });
    }
    SetUpGuarantees();
  }

  // ---------------------------------------------------------------- setup

  static void CollectAtomRefs(const spec::GuaranteeAtom& a,
                              std::vector<rule::ItemRef>* refs) {
    if (a.pred != nullptr) a.pred->Collect(refs, nullptr);
    if (a.exists_item.has_value()) refs->push_back(*a.exists_item);
  }

  void SetUpGuarantees() {
    gstates.reserve(guarantees.size());
    for (const auto& g : guarantees) {
      std::vector<rule::ItemRef> refs;
      for (const auto& a : g.lhs_atoms) CollectAtomRefs(a, &refs);
      for (const auto& a : g.rhs_atoms) CollectAtomRefs(a, &refs);
      if (refs.empty()) {
        // A guarantee with no item references samples over *all* items.
        collect_all = true;
      }
      for (const auto& ref : refs) guarantee_bases.insert(ref.base);
      GState gs;
      gs.g = &g;
      ClassifyWindowed(&gs);
      gstates.push_back(std::move(gs));
    }
  }

  // A guarantee is windowable when all its probes stay within a bounded lag
  // of one anchor time variable: single non-negated kAt LHS atom anchored
  // at a variable, every RHS atom time anchored at that same variable (no
  // negated existence — an open-parameter `not E` can flip for items born
  // after the window closes), and every time constraint comparing only the
  // anchor and absolute instants. `lag` collects the settle margin plus
  // every offset plus slack for the sample-point epsilons.
  void ClassifyWindowed(GState* gs) {
    const spec::Guarantee& g = *gs->g;
    if (g.lhs_atoms.size() != 1 || g.rhs_atoms.empty()) return;
    const spec::GuaranteeAtom& a = g.lhs_atoms[0];
    if (a.mode != spec::AtomMode::kAt || a.negated_exists) return;
    if (a.at.var.empty()) return;
    const std::string& anchor = a.at.var;
    Duration total = options.guarantee.settle_margin + AbsDuration(a.at.offset) +
                     Duration::Millis(20);
    auto absorb = [&](const spec::TimeExpr& te) {
      if (te.var != anchor) return false;
      total = total + AbsDuration(te.offset);
      return true;
    };
    for (const auto& ra : g.rhs_atoms) {
      if (ra.negated_exists) return;
      if (ra.mode == spec::AtomMode::kAt) {
        if (!absorb(ra.at)) return;
      } else {
        if (!absorb(ra.lo) || !absorb(ra.hi)) return;
      }
    }
    auto constraint_ok = [&](const spec::TimeConstraint& c) {
      for (const spec::TimeExpr* te : {&c.lhs, &c.rhs}) {
        if (te->var.empty()) continue;  // absolute bound: pure anchor filter
        if (te->var != anchor) return false;
        total = total + AbsDuration(te->offset);
      }
      return true;
    };
    for (const auto& c : g.lhs_time) {
      if (!constraint_ok(c)) return;
    }
    for (const auto& c : g.rhs_time) {
      if (!constraint_ok(c)) return;
    }
    gs->windowed = true;
    gs->anchor = anchor;
    gs->lag = total;
    std::vector<rule::ItemRef> lhs_refs;
    CollectAtomRefs(a, &lhs_refs);
    for (const auto& ref : lhs_refs) {
      for (const auto& term : ref.args) {
        if (!term.is_variable()) continue;
        const std::string& v = term.var_name();
        if (std::find(gs->param_vars.begin(), gs->param_vars.end(), v) ==
            gs->param_vars.end()) {
          gs->param_vars.push_back(v);
        }
      }
    }
  }

  // ------------------------------------------------------------ live store

  void ApplyInitial(const rule::ItemId& item, const Value& value) {
    uint32_t id = interner.Intern(item);
    if (id >= items.size()) items.resize(id + 1);
    ItemState& st = items[id];
    if (st.has_initial) {
      st.segs.front().value = value;  // re-declaration overrides
    } else {
      st.segs.push_front(Segment{TimePoint::FromMillis(-1000), value});
      st.has_initial = true;
      ++stats.segments_live;
    }
    if (collect_all || guarantee_bases.count(item.base) != 0) {
      uint32_t gid = g_interner.Intern(item);
      if (gid >= g_items.size()) g_items.resize(gid + 1);
      GItem& gi = g_items[gid];
      if (gi.has_initial) {
        gi.segs.front().value = value;
      } else {
        gi.segs.push_front(Segment{TimePoint::FromMillis(-1000), value});
        gi.has_initial = true;
        ++stats.guarantee_segments_live;
      }
    }
  }

  // Appends the segment an event contributes, replicating
  // StateTimeline::Build pass-2 semantics against the live run.
  template <typename ItemT>
  static void ApplySegment(const rule::Event& e, ItemT* st) {
    switch (e.kind) {
      case rule::EventKind::kWriteSpont:
      case rule::EventKind::kWrite:
        st->segs.push_back(Segment{e.time, e.written_value()});
        break;
      case rule::EventKind::kInsert: {
        std::optional<Value> v = Value::Null();
        if (!st->segs.empty() && st->segs.back().value.has_value()) {
          v = st->segs.back().value;
        }
        st->segs.push_back(Segment{e.time, std::move(v)});
        break;
      }
      case rule::EventKind::kDelete:
        st->segs.push_back(Segment{e.time, std::nullopt});
        break;
      default:
        break;
    }
  }

  std::optional<Value> StoreValueAt(uint32_t id, TimePoint t) const {
    if (id == ItemInterner::kNoId || id >= items.size()) return std::nullopt;
    const auto& segs = items[id].segs;
    auto it = std::upper_bound(
        segs.begin(), segs.end(), t,
        [](TimePoint lhs, const Segment& s) { return lhs < s.from; });
    if (it == segs.begin()) return std::nullopt;
    return std::prev(it)->value;
  }

  std::optional<Value> StoreValueBefore(uint32_t id, TimePoint t) const {
    if (id == ItemInterner::kNoId || id >= items.size()) return std::nullopt;
    const auto& segs = items[id].segs;
    auto it = std::lower_bound(
        segs.begin(), segs.end(), t,
        [](const Segment& s, TimePoint rhs) { return s.from < rhs; });
    if (it == segs.begin()) return std::nullopt;
    return std::prev(it)->value;
  }

  // ---- the core's view ----

  const rule::Event* Trigger(int64_t id) const {
    if (id < ring_base ||
        id >= ring_base + static_cast<int64_t>(ring.size())) {
      return nullptr;
    }
    return &ring[static_cast<size_t>(id - ring_base)];
  }

  std::optional<Value> ValueAt(const rule::ItemId& item, TimePoint t) const {
    return StoreValueAt(interner.Find(item), t);
  }

  std::optional<Value> ValueBefore(const rule::ItemId& item,
                                   TimePoint t) const {
    return StoreValueBefore(interner.Find(item), t);
  }

  void ChangePoints(const rule::ItemId& item, TimePoint lo, TimePoint hi,
                    std::vector<TimePoint>* out) const {
    uint32_t id = interner.Find(item);
    if (id == ItemInterner::kNoId || id >= items.size()) return;
    const auto& segs = items[id].segs;
    auto it = std::upper_bound(
        segs.begin(), segs.end(), lo,
        [](TimePoint t, const Segment& seg) { return t < seg.from; });
    for (; it != segs.end() && it->from <= hi; ++it) out->push_back(it->from);
  }

  // ------------------------------------------------------- event processing

  // Absorbs every pending event with time < `bound` into the live state
  // (pass A), then checks each (pass B). Two passes so same-instant state
  // — which the offline checker reads from the full timeline — is complete
  // before any check of that instant runs.
  void ProcessBatch(TimePoint bound) {
    size_t batch_start = ring.size();
    ++batch_gen;
    while (!pending.empty() && pending.front().time < bound) {
      rule::Event e = std::move(pending.front());
      pending.pop_front();
      // Pass A, step 1: property 1 against the previous absorbed event.
      if (have_prev) {
        PropertyCore::CheckTimeOrder(prev_time, prev_id, e,
                                     ring_ord + ring.size(), &sink_p1);
      }
      have_prev = true;
      prev_time = e.time;
      prev_id = e.id;
      core.LearnSite(e);
      // State change + same-instant write chain.
      if (ChangesState(e.kind)) {
        uint32_t id = interner.Intern(e.item);
        if (id >= items.size()) items.resize(id + 1);
        e.item_iid = id;
        ItemState& st = items[id];
        ApplySegment(e, &st);
        ++stats.segments_live;
        if (e.kind == rule::EventKind::kWriteSpont ||
            e.kind == rule::EventKind::kWrite) {
          ++report.stats.write_events_indexed;
          if (st.chain_gen != batch_gen) {
            st.chain.clear();
            st.chain_gen = batch_gen;
          }
          st.chain.push_back(ChainEntry{e.time, e.id, e.written_value()});
        }
      } else {
        e.item_iid = ItemInterner::kNoId;
      }
      // Guarantee collector.
      if (ChangesState(e.kind) &&
          (collect_all || guarantee_bases.count(e.item.base) != 0)) {
        uint32_t gid = g_interner.Intern(e.item);
        if (gid >= g_items.size()) g_items.resize(gid + 1);
        ApplySegment(e, &g_items[gid]);
        ++stats.guarantee_segments_live;
      }
      // Fired-step index (last write wins, like the offline map build).
      if (!e.spontaneous()) {
        fired[{e.trigger_event_id, e.rule_id, e.rhs_step}] = {e.time, e.id};
      }
      ring.push_back(std::move(e));
      ++seen;
    }
    stats.events_seen = seen;
    // Pass B: the instants in [batch_start, end) are complete — check them.
    for (size_t k = batch_start; k < ring.size(); ++k) {
      CheckEvent(ring[k], ring_ord + k);
    }
    TrackPeaks();
  }

  void CheckEvent(const rule::Event& e, uint64_t ord) {
    if (e.kind == rule::EventKind::kWriteSpont) CheckWsOldValue(e, ord);
    core.CheckProvenance(*this, e, ord, &frame, &sink_p45);
    OpenObligations(e, ord);
    if (!e.spontaneous()) RecordP7Pair(e);
  }

  // Properties 2+3. Same-instant writes of the current batch are in the
  // item's chain (a batch never splits an instant).
  void CheckWsOldValue(const rule::Event& e, uint64_t ord) {
    PropertyCore::CheckWsOldValue(
        e, ord, StoreValueBefore(e.item_iid, e.time), &sink_p2, [&] {
          const ItemState& st = items[e.item_iid];
          if (st.chain_gen != batch_gen) return false;
          for (const ChainEntry& c : st.chain) {
            if (c.time != e.time) continue;
            ++sink_p2.chain_events_scanned;
            if (c.id >= e.id) continue;
            if (c.written == e.old_value()) return true;
          }
          return false;
        });
  }

  // Property 6, creation side. The full trace is not here yet, so real
  // obligations stay open until the watermark passes their deadline; the
  // core's emission sequence (candidate position, step slot) reproduces
  // the offline per-event order no matter when each one resolves.
  void OpenObligations(const rule::Event& e, uint64_t ord) {
    core.ScanObligations(
        *this, e, ord, &frame, &candidates_scratch, &sink_p6,
        [&](const Obligation& ob, const rule::BindingFrame& lhs_match) {
          OpenObligation open_ob{ob, e.site,
                                 rule::BindingFrame(ob.rule->slots.size())};
          for (uint16_t slot : lhs_match.bound_slots()) {
            open_ob.lhs_match.Set(slot, lhs_match.Get(slot));
          }
          TimePoint deadline = core.Deadline(ob, e.site);
          uint64_t key = next_oblig++;
          by_deadline.emplace(deadline, key);
          open.emplace(key, std::move(open_ob));
        });
  }

  void ResolveObligation(const OpenObligation& o, TimePoint deadline) {
    core.ResolveObligation(*this, fired, o.ob, o.lhs_match, deadline,
                           &sink_p6);
    ++stats.obligations_resolved;
  }

  // Resolves every obligation whose deadline the watermark has passed. The
  // deadline is recomputed on pop: the site map may have learned more bases
  // since creation, which can move an outage extension either way; an
  // obligation whose recomputed deadline is not yet past is re-queued.
  void ResolveDueObligations(TimePoint w) {
    while (!by_deadline.empty() && by_deadline.begin()->first < w) {
      auto it = by_deadline.begin();
      uint64_t key = it->second;
      by_deadline.erase(it);
      auto oit = open.find(key);
      if (oit == open.end()) continue;
      const OpenObligation& o = oit->second;
      TimePoint deadline = core.Deadline(o.ob, o.trigger_site);
      if (deadline >= w) {
        by_deadline.emplace(deadline, key);
        continue;
      }
      ResolveObligation(o, deadline);
      open.erase(oit);
    }
  }

  // ------------------------------------------------------------- property 7

  void RecordP7Pair(const rule::Event& e) {
    const rule::Event* trig = Trigger(e.trigger_event_id);
    if (trig == nullptr) return;
    P7Channel& ch = channels[{trig->site, e.site}];
    ch.pairs.insert(
        ChannelPair{trig->time, e.time, trig->id, e.id, ch.next_seq++});
    ++stats.pairs_live;
  }

  void CheckP7Adjacent(const std::pair<std::string, std::string>& key,
                       P7Channel* ch, const ChannelPair& prev,
                       const ChannelPair& cur) {
    auto v = PropertyCore::CheckInOrder(key.first, key.second, prev, cur);
    if (!v.has_value()) return;
    ++ch->found;
    ++stats.live_violations;
    if (options.on_violation) options.on_violation(*v);
    if (ch->kept.size() < options.valid.max_violations) {
      ch->kept.push_back(std::move(*v));
    }
  }

  // Drops each channel's sorted prefix once no future pair (whose trigger
  // is at most one rule window back from the watermark) can sort into it.
  // An adjacency is final — and checked — exactly when its left pair
  // retires with its right neighbour already below the bound.
  void RetireP7(TimePoint bound) {
    for (auto& [key, ch] : channels) {
      while (ch.pairs.size() >= 2) {
        auto first = ch.pairs.begin();
        auto second = std::next(first);
        if (!(second->trigger_time < bound)) break;
        CheckP7Adjacent(key, &ch, *first, *second);
        ch.pairs.erase(first);
        --stats.pairs_live;
        ++stats.pairs_retired;
      }
    }
  }

  // --------------------------------------------------------- state retiring

  void RetireValidState(TimePoint w) {
    TimePoint floor =
        open.empty() ? kFarFuture : open.begin()->second.ob.trigger_time;
    TimePoint cut = std::min(w - retention, floor);
    // Event ring: property 5/7 trigger lookups reach at most `retention`
    // back from any future event's time (>= w).
    while (!ring.empty() && ring.front().time < cut) {
      ring.pop_front();
      ++ring_base;
      ++ring_ord;
      ++stats.events_retired;
    }
    // Item segments: keep the last segment starting before the cut (with
    // its true start) so reads at instants >= cut stay exact.
    for (ItemState& st : items) {
      auto& segs = st.segs;
      while (segs.size() >= 2 && segs[1].from < cut) {
        segs.pop_front();
        st.has_initial = false;
        --stats.segments_live;
        ++stats.segments_retired;
      }
    }
    // Fired-step index: any still-relevant fire belongs to an open
    // obligation, and fires at or after their trigger's time >= floor.
    if (fired.size() > fired_sweep_at) {
      for (auto it = fired.begin(); it != fired.end();) {
        if (it->second.time < cut) {
          it = fired.erase(it);
        } else {
          ++it;
        }
      }
      fired_sweep_at = std::max<size_t>(4096, fired.size() * 2);
    }
    RetireP7(w - retention);
  }

  void RetireGuaranteeState() {
    TimePoint cut = kFarFuture;
    for (const GState& gs : gstates) {
      if (!gs.windowed || gs.failed) return;  // full replay needed at Finish
      cut = std::min(cut, gs.region_lo - gs.lag);
    }
    if (gstates.empty() || cut <= kFarPast) return;
    for (GItem& gi : g_items) {
      auto& segs = gi.segs;
      while (segs.size() >= 2 && segs[1].from < cut) {
        segs.pop_front();
        gi.has_initial = false;
        --stats.guarantee_segments_live;
        ++stats.guarantee_segments_retired;
      }
    }
  }

  // ------------------------------------------------------ guarantee windows

  StateTimeline SnapshotGuaranteeStore() const {
    std::vector<std::vector<Segment>> per(g_items.size());
    for (size_t i = 0; i < g_items.size(); ++i) {
      per[i].assign(g_items[i].segs.begin(), g_items[i].segs.end());
    }
    return StateTimeline::FromParts(g_interner, std::move(per));
  }

  void RunRegion(GState* gs, const StateTimeline& snap, TimePoint lo,
                 std::optional<TimePoint> hi, TimePoint region_horizon) {
    GuaranteeCheckOptions opts = options.guarantee;
    opts.num_threads = 1;
    GuaranteeWindow win;
    win.anchor_var = gs->anchor;
    win.param_vars = gs->param_vars;
    win.has_lo = true;
    win.lo = lo;
    if (hi.has_value()) {
      win.has_hi = true;
      win.hi = *hi;
    }
    std::vector<WindowedViolation> violated;
    auto r = CheckGuaranteeOverTimeline(snap, region_horizon, *gs->g, opts,
                                        &win, &violated);
    if (!r.ok()) {
      gs->failed = true;
      return;
    }
    ++stats.guarantee_windows_evaluated;
    gs->lhs_witnesses += r->lhs_witnesses;
    gs->violation_count += r->violations;
    gs->truncated = gs->truncated || r->truncated;
    gs->gstats.sample_cache_hits += r->stats.sample_cache_hits;
    gs->gstats.sample_cache_misses += r->stats.sample_cache_misses;
    gs->gstats.match_cache_hits += r->stats.match_cache_hits;
    gs->gstats.match_cache_misses += r->stats.match_cache_misses;
    gs->gstats.atom_evals += r->stats.atom_evals;
    for (auto& v : violated) {
      if (options.on_guarantee_violation) {
        options.on_guarantee_violation(gs->g->name, v.ce);
      }
      gs->worst.emplace(VKey{std::move(v.param_binding), v.anchor},
                        std::move(v.ce));
      while (gs->worst.size() > options.guarantee.max_counterexamples) {
        gs->worst.erase(std::prev(gs->worst.end()));
      }
    }
  }

  void EvaluateGuaranteeWindows(TimePoint w) {
    if (g_interner.empty()) return;
    // An anchor window [lo, B) is closed once the watermark AND every
    // collected item's last change are at least `lag` past B: beyond that
    // no probe, sample point or settle filter of an anchor below B can be
    // affected by future events.
    TimePoint min_last_change = kFarFuture;
    for (const GItem& gi : g_items) {
      if (!gi.segs.empty()) {
        min_last_change = std::min(min_last_change, gi.segs.back().from);
      }
    }
    struct Eval {
      GState* gs;
      TimePoint b;
    };
    std::vector<Eval> evals;
    for (GState& gs : gstates) {
      if (!gs.windowed || gs.failed) continue;
      TimePoint cap = std::min(w, min_last_change);
      if (cap <= TimePoint::Origin() + gs.lag) continue;
      TimePoint b = cap - gs.lag;
      TimePoint effective_lo =
          std::max(gs.region_lo, TimePoint::FromMillis(-1000));
      Duration chunk = std::max(gs.lag * 2, Duration::Seconds(10));
      if (b <= effective_lo || b - effective_lo < chunk) continue;
      evals.push_back({&gs, b});
    }
    if (evals.empty()) return;
    StateTimeline snap = SnapshotGuaranteeStore();
    for (Eval& ev : evals) {
      RunRegion(ev.gs, snap, ev.gs->region_lo, ev.b, w);
      if (!ev.gs->failed) ev.gs->region_lo = ev.b;
    }
    RetireGuaranteeState();
  }

  // ------------------------------------------------------------ maintenance

  void TrackPeaks() {
    stats.events_live = pending.size() + ring.size();
    stats.obligations_open = open.size();
    stats.fired_index_live = fired.size();
    stats.events_live_peak = std::max(stats.events_live_peak, stats.events_live);
    stats.segments_live_peak =
        std::max(stats.segments_live_peak, stats.segments_live);
    stats.obligations_open_peak =
        std::max(stats.obligations_open_peak, stats.obligations_open);
    stats.pairs_live_peak = std::max(stats.pairs_live_peak, stats.pairs_live);
    stats.fired_index_peak =
        std::max(stats.fired_index_peak, stats.fired_index_live);
    stats.guarantee_segments_live_peak = std::max(
        stats.guarantee_segments_live_peak, stats.guarantee_segments_live);
    stats.live_footprint_peak =
        std::max(stats.live_footprint_peak, stats.LiveFootprint());
  }

  void OnWatermark(TimePoint w) {
    if (w <= watermark && watermark != kFarPast) return;
    watermark = w;
    ProcessBatch(w);
    if (w >= next_maintenance) {
      ResolveDueObligations(w);
      RetireValidState(w);
      EvaluateGuaranteeWindows(w);
      TrackPeaks();
      next_maintenance = w + stride;
    }
  }

  // ----------------------------------------------------------------- finish

  void Finish(TimePoint h) {
    horizon = h;
    ProcessBatch(kFarFuture);
    // Resolve every remaining obligation against the final horizon; one
    // that comes due after it is dropped (the run ended first).
    while (!by_deadline.empty()) {
      auto it = by_deadline.begin();
      uint64_t key = it->second;
      by_deadline.erase(it);
      auto oit = open.find(key);
      if (oit == open.end()) continue;
      const OpenObligation& o = oit->second;
      TimePoint deadline = core.Deadline(o.ob, o.trigger_site);
      if (!(horizon < deadline)) ResolveObligation(o, deadline);
      open.erase(oit);
    }
    RetireP7(kFarFuture);
    // Emit property-7 violations channel-major, like the offline pass.
    uint64_t ord = 0;
    for (auto& [key, ch] : channels) {
      (void)key;
      size_t materialized = ch.kept.size();
      for (ExecutionViolation& v : ch.kept) {
        sink_p7.Add(ord++, 7, std::move(v.event_ids), std::move(v.message));
      }
      sink_p7.AddCountOnly(ch.found - materialized);
    }
    // Assemble the report through the shared merge, in offline phase order.
    report.events_checked = seen;
    internal::MergePhaseInto({std::move(sink_p1)}, options.valid.max_violations,
                             &report, &extra_violations);
    internal::MergePhaseInto({std::move(sink_p2)}, options.valid.max_violations,
                             &report, &extra_violations);
    internal::MergePhaseInto({std::move(sink_p45)},
                             options.valid.max_violations, &report,
                             &extra_violations);
    internal::MergePhaseInto({std::move(sink_p6)}, options.valid.max_violations,
                             &report, &extra_violations);
    internal::MergePhaseInto({std::move(sink_p7)}, options.valid.max_violations,
                             &report, &extra_violations);
    report.valid = report.violations.empty() && extra_violations == 0;
    report.stats.items_indexed = interner.size();
    FinishGuarantees();
    TrackPeaks();
    finished = true;
  }

  void FinishGuarantees() {
    if (gstates.empty()) return;
    StateTimeline snap = SnapshotGuaranteeStore();
    for (GState& gs : gstates) {
      if (gs.windowed && !gs.failed) {
        RunRegion(&gs, snap, gs.region_lo, std::nullopt, horizon);
      }
      if (gs.windowed && !gs.failed) {
        GuaranteeCheckResult out;
        out.holds = gs.violation_count == 0;
        out.truncated = gs.truncated;
        out.lhs_witnesses = gs.lhs_witnesses;
        out.violations = gs.violation_count;
        out.counterexamples.reserve(gs.worst.size());
        for (auto& [k, ce] : gs.worst) {
          (void)k;
          out.counterexamples.push_back(std::move(ce));
        }
        out.stats = gs.gstats;
        out.stats.items = g_interner.size();
        results[gs.g->name] = std::move(out);
        continue;
      }
      // Non-windowable (or structurally failed) guarantee: its items'
      // history was never retired, so one full-range run at the horizon is
      // byte-identical to the offline checker. Structural errors leave no
      // entry — callers validate guarantee specs offline.
      GuaranteeCheckOptions opts = options.guarantee;
      opts.num_threads = 1;
      auto r = CheckGuaranteeOverTimeline(snap, horizon, *gs.g, opts, nullptr,
                                          nullptr);
      if (r.ok()) results[gs.g->name] = std::move(*r);
    }
  }

  std::string DescribeCheckStats() const {
    return StrFormat(
        "streaming check stats:\n"
        "  events seen %zu, live %zu (peak %zu, retired %zu)\n"
        "  segments live %zu (peak %zu, retired %zu)\n"
        "  obligations open %zu (peak %zu, resolved %zu)\n"
        "  pairs live %zu (peak %zu, retired %zu), fired index %zu (peak "
        "%zu)\n"
        "  guarantee segments live %zu (peak %zu, retired %zu), windows "
        "evaluated %zu\n"
        "  live footprint %zu (peak %zu), live violations %zu\n",
        stats.events_seen, stats.events_live, stats.events_live_peak,
        stats.events_retired, stats.segments_live, stats.segments_live_peak,
        stats.segments_retired, stats.obligations_open,
        stats.obligations_open_peak, stats.obligations_resolved,
        stats.pairs_live, stats.pairs_live_peak, stats.pairs_retired,
        stats.fired_index_live, stats.fired_index_peak,
        stats.guarantee_segments_live, stats.guarantee_segments_live_peak,
        stats.guarantee_segments_retired, stats.guarantee_windows_evaluated,
        stats.LiveFootprint(), stats.live_footprint_peak,
        stats.live_violations);
  }
};

StreamingChecker::StreamingChecker(std::vector<rule::Rule> rules,
                                   std::vector<spec::Guarantee> guarantees,
                                   StreamingCheckOptions options)
    : impl_(std::make_unique<Impl>(std::move(rules), std::move(guarantees),
                                   std::move(options))) {}

StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::NoteOutage(const SiteOutage& outage) {
  impl_->core.AddOutage(outage);
}

void StreamingChecker::OnInitialValue(const rule::ItemId& item,
                                      const Value& value) {
  impl_->ApplyInitial(item, value);
}

void StreamingChecker::OnEvent(const rule::Event& event) {
  impl_->pending.push_back(event);
}

void StreamingChecker::OnWatermark(TimePoint watermark) {
  impl_->OnWatermark(watermark);
}

void StreamingChecker::OnFinish(TimePoint horizon) {
  if (finished_) return;
  impl_->Finish(horizon);
  finished_ = true;
}

const ExecutionReport& StreamingChecker::execution_report() const {
  return impl_->report;
}

const std::map<std::string, GuaranteeCheckResult>&
StreamingChecker::guarantee_results() const {
  return impl_->results;
}

const StreamingCheckStats& StreamingChecker::stats() const {
  return impl_->stats;
}

Duration StreamingChecker::retention() const { return impl_->retention; }

std::string StreamingChecker::DescribeCheckStats() const {
  return impl_->DescribeCheckStats();
}

}  // namespace hcm::trace
