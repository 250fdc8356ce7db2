#include "src/trace/trace.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace hcm::trace {

std::string Trace::ToString(size_t max_events) const {
  std::string out = StrFormat("trace: %zu events, horizon %s\n",
                              events.size(), horizon.ToString().c_str());
  size_t shown = 0;
  for (const auto& e : events) {
    if (shown++ >= max_events) {
      out += StrFormat("  ... (%zu more)\n", events.size() - max_events);
      break;
    }
    out += "  " + e.ToString() + "\n";
  }
  return out;
}

// True for event kinds that change item state (and thus open a segment).
static bool ChangesState(rule::EventKind kind) {
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

void InternTraceItems(Trace* trace) {
  trace->interner = ItemInterner();
  // Exactly StateTimeline::Build's pass-1 intern order, so a timeline that
  // clones this interner assigns the same ids the string path would.
  for (const auto& [item, value] : trace->initial_values) {
    trace->interner.Intern(item);
    (void)value;
  }
  for (rule::Event& e : trace->events) {
    e.item_iid = ChangesState(e.kind) ? trace->interner.Intern(e.item)
                                      : ItemInterner::kNoId;
  }
  trace->items_interned = true;
}

StateTimeline StateTimeline::Build(const Trace& trace) {
  StateTimeline tl;
  const bool pre_interned = trace.items_interned;
  if (pre_interned) {
    tl.interner_ = trace.interner;
    tl.spans_.assign(tl.interner_.size(), {0, 0});
  }
  // Pass 1: intern every state-bearing item and count its segments, so the
  // flat store can be laid out contiguously per item up front. With a
  // recorder-stamped trace the interner arrives pre-built and per-event
  // interning collapses to reading item_iid.
  for (const auto& [item, value] : trace.initial_values) {
    uint32_t id =
        pre_interned ? tl.interner_.Find(item) : tl.interner_.Intern(item);
    if (id >= tl.spans_.size()) tl.spans_.resize(id + 1, {0, 0});
    ++tl.spans_[id].second;
    (void)value;
  }
  tl.event_state_ids_.assign(trace.events.size(), ItemInterner::kNoId);
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const rule::Event& e = trace.events[i];
    if (!ChangesState(e.kind)) continue;
    uint32_t id = pre_interned ? e.item_iid : tl.interner_.Intern(e.item);
    if (id >= tl.spans_.size()) tl.spans_.resize(id + 1, {0, 0});
    ++tl.spans_[id].second;
    tl.event_state_ids_[i] = id;
  }
  uint32_t offset = 0;
  for (auto& [start, count] : tl.spans_) {
    start = offset;
    offset += count;
    count = 0;  // reused as fill cursor in pass 2
  }
  tl.segments_.resize(offset);
  // Pass 2: emit segments in trace order into each item's span.
  auto emit = [&tl](uint32_t id, TimePoint from, std::optional<Value> value) {
    auto& [start, filled] = tl.spans_[id];
    tl.segments_[start + filled] = Segment{from, std::move(value)};
    ++filled;
  };
  // Initial values are modeled as holding for a full second before the
  // origin, so that "X previously had this value" obligations — including
  // ones needing two ordered instants — are satisfiable for state that was
  // already in place when observation began.
  for (const auto& [item, value] : trace.initial_values) {
    emit(tl.interner_.Find(item), TimePoint::FromMillis(-1000), value);
  }
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const rule::Event& e = trace.events[i];
    uint32_t id = tl.event_state_ids_[i];
    if (id == ItemInterner::kNoId) continue;
    switch (e.kind) {
      case rule::EventKind::kWriteSpont:
      case rule::EventKind::kWrite:
        emit(id, e.time, e.written_value());
        break;
      case rule::EventKind::kInsert: {
        // Insert establishes existence; value starts null unless the item
        // already has one (re-insert is a no-op on the value).
        const auto& [start, filled] = tl.spans_[id];
        std::optional<Value> v = Value::Null();
        if (filled > 0 && tl.segments_[start + filled - 1].value.has_value()) {
          v = tl.segments_[start + filled - 1].value;
        }
        emit(id, e.time, std::move(v));
        break;
      }
      case rule::EventKind::kDelete:
        emit(id, e.time, std::nullopt);
        break;
      default:
        break;  // unreachable: ChangesState filtered
    }
  }
  return tl;
}

StateTimeline StateTimeline::FromParts(
    ItemInterner interner, std::vector<std::vector<Segment>> per_item) {
  StateTimeline tl;
  tl.interner_ = std::move(interner);
  tl.spans_.assign(tl.interner_.size(), {0, 0});
  size_t total = 0;
  for (size_t id = 0; id < per_item.size() && id < tl.spans_.size(); ++id) {
    total += per_item[id].size();
  }
  tl.segments_.reserve(total);
  for (size_t id = 0; id < per_item.size() && id < tl.spans_.size(); ++id) {
    tl.spans_[id].first = static_cast<uint32_t>(tl.segments_.size());
    tl.spans_[id].second = static_cast<uint32_t>(per_item[id].size());
    for (Segment& s : per_item[id]) tl.segments_.push_back(std::move(s));
  }
  return tl;
}

SegmentSpan StateTimeline::SegmentsOf(uint32_t id) const {
  if (id >= spans_.size()) return SegmentSpan();
  const auto& [start, count] = spans_[id];
  return SegmentSpan(segments_.data() + start, count);
}

SegmentSpan StateTimeline::SegmentsOf(const rule::ItemId& item) const {
  return SegmentsOf(interner_.Find(item));
}

const Segment* StateTimeline::FindSegmentAt(uint32_t id, TimePoint t) const {
  SegmentSpan segs = SegmentsOf(id);
  // Last segment with from <= t.
  auto it = std::upper_bound(
      segs.begin(), segs.end(), t,
      [](TimePoint lhs, const Segment& s) { return lhs < s.from; });
  if (it == segs.begin()) return nullptr;  // before first knowledge
  return std::prev(it);
}

const Segment* StateTimeline::FindSegmentBefore(uint32_t id,
                                                TimePoint t) const {
  SegmentSpan segs = SegmentsOf(id);
  // Last segment with from < t (strict).
  auto it = std::lower_bound(
      segs.begin(), segs.end(), t,
      [](const Segment& s, TimePoint rhs) { return s.from < rhs; });
  if (it == segs.begin()) return nullptr;
  return std::prev(it);
}

std::optional<Value> StateTimeline::ValueAt(uint32_t id, TimePoint t) const {
  const Segment* seg = FindSegmentAt(id, t);
  return seg == nullptr ? std::nullopt : seg->value;
}

std::optional<Value> StateTimeline::ValueAt(const rule::ItemId& item,
                                            TimePoint t) const {
  return ValueAt(interner_.Find(item), t);
}

bool StateTimeline::ExistsAt(uint32_t id, TimePoint t) const {
  const Segment* seg = FindSegmentAt(id, t);
  return seg != nullptr && seg->value.has_value();
}

bool StateTimeline::ExistsAt(const rule::ItemId& item, TimePoint t) const {
  return ExistsAt(interner_.Find(item), t);
}

std::optional<Value> StateTimeline::ValueBefore(uint32_t id,
                                                TimePoint t) const {
  const Segment* seg = FindSegmentBefore(id, t);
  return seg == nullptr ? std::nullopt : seg->value;
}

std::optional<Value> StateTimeline::ValueBefore(const rule::ItemId& item,
                                                TimePoint t) const {
  return ValueBefore(interner_.Find(item), t);
}

std::vector<rule::ItemId> StateTimeline::ItemsWithBase(
    const std::string& base) const {
  std::vector<rule::ItemId> out;
  const auto& ids = interner_.IdsWithBase(base);
  out.reserve(ids.size());
  for (uint32_t id : ids) out.push_back(interner_.item(id));
  return out;
}

std::vector<rule::ItemId> StateTimeline::AllItems() const {
  std::vector<rule::ItemId> out;
  out.reserve(interner_.size());
  for (uint32_t id : interner_.SortedIds()) out.push_back(interner_.item(id));
  return out;
}

void SegmentCursor::Advance(TimePoint t) {
  if (pos_ > 0 && span_[pos_ - 1].from > t) {
    // Query went backwards: re-establish the invariant by binary search.
    auto it = std::upper_bound(
        span_.begin(), span_.end(), t,
        [](TimePoint lhs, const Segment& s) { return lhs < s.from; });
    pos_ = static_cast<size_t>(it - span_.begin());
    return;
  }
  while (pos_ < span_.size() && span_[pos_].from <= t) ++pos_;
}

const Segment* SegmentCursor::SeekAt(TimePoint t) {
  Advance(t);
  return pos_ == 0 ? nullptr : &span_[pos_ - 1];
}

const Segment* SegmentCursor::SeekBefore(TimePoint t) {
  Advance(t);
  size_t p = pos_;
  while (p > 0 && !(span_[p - 1].from < t)) --p;
  return p == 0 ? nullptr : &span_[p - 1];
}

}  // namespace hcm::trace
