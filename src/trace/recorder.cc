// TraceRecorder (declared in trace.h): per-site shards, merged into the
// canonical trace at each flush.
#include "src/trace/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"

namespace hcm::trace {

namespace {

// Base site of an endpoint / event site ("B#tr" -> "B"). Mirrors
// sim::BaseSiteOf; duplicated so the trace layer stays independent of sim.
std::string_view BaseSite(std::string_view site) {
  return site.substr(0, site.find('#'));
}

// True when `site` is `base` or one of its endpoints ("B", "B#tr").
bool HasBase(const std::string& site, const std::string& base) {
  return site.compare(0, base.size(), base) == 0 &&
         (site.size() == base.size() || site[base.size()] == '#');
}

// Provisional ids pack (shard index + 1, local index); the +1 keeps every
// provisional id disjoint from the dense final ids a prior Finish may have
// put into still-live messages, and well away from -1 (= no trigger).
constexpr int kShardShift = 40;
constexpr int64_t kLocalMask = (int64_t{1} << kShardShift) - 1;

int64_t ProvisionalId(uint32_t shard_index, size_t local_index) {
  return (static_cast<int64_t>(shard_index) + 1) << kShardShift |
         static_cast<int64_t>(local_index);
}

// The canonical merge order: time, then site name. The merge sorts
// pointers with a stable sort, which keeps each shard's append order among
// equal keys.
bool CanonicalLess(const rule::Event* a, const rule::Event* b) {
  if (a->time != b->time) return a->time < b->time;
  return a->site < b->site;
}

std::atomic<uint64_t> next_instance{1};

// The shards the calling thread recorded into last, tagged with their
// recorder's instance number (never reused, so a stale entry from a
// destroyed recorder can never match). A thread runs a few lanes at a time
// and each lane records at its own site, so this small cache spares most
// Record calls the shard-map lock and lookup.
struct ShardCache {
  uint64_t instance = 0;
  std::array<void*, 4> shards{};
  size_t next = 0;  // round-robin victim
};
thread_local ShardCache shard_cache;

}  // namespace

TraceRecorder::TraceRecorder() : instance_(next_instance.fetch_add(1)) {}

void TraceRecorder::SetInitialValue(const rule::ItemId& item, Value value) {
  if (sink_ != nullptr) sink_->OnInitialValue(item, value);
  initial_values_[item] = std::move(value);
}

void TraceRecorder::DeclareSite(const std::string& site) {
  ShardFor(BaseSite(site));
}

void TraceRecorder::AttachSink(TraceSink* sink, bool drain) {
  sink_ = sink;
  drain_ = drain;
  // Initial values declared before the attach still reach the sink.
  if (sink_ != nullptr) {
    for (const auto& [item, value] : initial_values_) {
      sink_->OnInitialValue(item, value);
    }
  }
}

TraceRecorder::Shard* TraceRecorder::ShardFor(std::string_view base_site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(base_site);
  if (it == shards_.end()) {
    auto shard = std::make_unique<Shard>();
    shard->site = std::string(base_site);
    shard->index = static_cast<uint32_t>(by_index_.size());
    by_index_.push_back(shard.get());
    it = shards_.emplace(std::string(base_site), std::move(shard)).first;
  }
  return it->second.get();
}

int64_t TraceRecorder::Record(rule::Event event) {
  ShardCache& cache = shard_cache;
  if (cache.instance != instance_) cache = ShardCache{instance_};
  Shard* shard = nullptr;
  for (void* cached : cache.shards) {
    if (cached != nullptr &&
        HasBase(event.site, static_cast<Shard*>(cached)->site)) {
      shard = static_cast<Shard*>(cached);
      break;
    }
  }
  if (shard == nullptr) {
    shard = ShardFor(BaseSite(event.site));
    cache.shards[cache.next++ % cache.shards.size()] = shard;
  }
  // Single writer per shard: only the site's lane (or the main thread
  // between runs) records events stamped with this site, so the append
  // itself needs no lock. Local indices keep counting across flushes so
  // provisional ids stay unique for the whole run.
  event.id = ProvisionalId(shard->index, shard->recorded);
  ++shard->recorded;
  int64_t id = event.id;
  // Every event of a run funnels through here; pre-size the log so early
  // growth doesn't repeatedly move the (string-heavy) recorded events.
  if (shard->events.capacity() == shard->events.size()) {
    shard->events.reserve(std::max<size_t>(1024, shard->events.capacity() * 2));
  }
  shard->events.push_back(std::move(event));
  return id;
}

int64_t TraceRecorder::Lookup(int64_t provisional) const {
  int64_t shard_index = (provisional >> kShardShift) - 1;
  if (shard_index < 0 ||
      shard_index >= static_cast<int64_t>(by_index_.size())) {
    return -1;
  }
  const Shard& shard = *by_index_[shard_index];
  size_t local = static_cast<size_t>(provisional & kLocalMask);
  if (local < shard.final_base) return -1;
  local -= shard.final_base;
  return local < shard.final_ids.size() ? shard.final_ids[local] : -1;
}

void TraceRecorder::EmitReady(TimePoint watermark) {
  ready_.clear();
  for (auto& [site, shard] : shards_) {
    auto& pending = shard->events;
    // Shard append order is not time-monotone (elided posts step a lane's
    // clock backwards), so partition rather than prefix-slice.
    // stable_partition keeps the relative append order of both halves —
    // the merge's tie-break key. The common case, everything ready, skips
    // the partition.
    auto is_ready = [watermark](const rule::Event& e) {
      return e.time < watermark;
    };
    auto mid = std::all_of(pending.begin(), pending.end(), is_ready)
                   ? pending.end()
                   : std::stable_partition(pending.begin(), pending.end(),
                                           is_ready);
    shard->ready = static_cast<size_t>(mid - pending.begin());
    for (auto it = pending.begin(); it != mid; ++it) ready_.push_back(&*it);
  }
  if (ready_.empty()) return;
  // The strict watermark guarantees an equal-time group is never split
  // across batches, so concatenated per-flush sorts equal one global sort.
  std::stable_sort(ready_.begin(), ready_.end(), CanonicalLess);
  // Two passes: a same-instant fire can sort *before* its trigger (site
  // order), so all final ids must exist before any trigger is remapped.
  for (rule::Event* event : ready_) {
    Shard& shard = *by_index_[(event->id >> kShardShift) - 1];
    size_t slot =
        static_cast<size_t>(event->id & kLocalMask) - shard.final_base;
    if (slot >= shard.final_ids.size()) shard.final_ids.resize(slot + 1, -1);
    shard.final_ids[slot] = next_final_id_;
    event->id = next_final_id_++;
  }
  for (rule::Event* event : ready_) {
    if (event->trigger_event_id < 0) continue;
    // A trigger recorded before a previous Finish is no longer in the log;
    // leave the stale reference alone rather than inventing one.
    int64_t trigger = Lookup(event->trigger_event_id);
    if (trigger >= 0) event->trigger_event_id = trigger;
  }
  for (rule::Event* event : ready_) {
    if (sink_ != nullptr) sink_->OnEvent(*event);
    if (!drain_) emitted_.push_back(std::move(*event));
  }
  for (auto& [site, shard] : shards_) {
    shard->events.erase(shard->events.begin(),
                        shard->events.begin() +
                            static_cast<ptrdiff_t>(shard->ready));
  }
  merged_since_prune_ += ready_.size();
  if (drain_ && merged_since_prune_ >= prune_at_) PruneFinalIds(watermark);
}

void TraceRecorder::PruneFinalIds(TimePoint watermark) {
  // Drain mode keeps memory bounded: id mappings retire once no future
  // event can reference them (trigger refs reach at most one rule window
  // back; retention is sized accordingly by the caller). The newest mark
  // more than `retention` old bounds the final ids that may go; each shard
  // drops its prefix below that bound, and an entry not merged yet stops
  // the drop, so a lookup never misses a live trigger.
  merged_since_prune_ = 0;
  prune_marks_.emplace_back(watermark, next_final_id_);
  int64_t below = -1;
  while (prune_marks_.front().first + remap_retention_ < watermark) {
    below = prune_marks_.front().second;
    prune_marks_.pop_front();
  }
  size_t live = 0;
  for (Shard* shard : by_index_) {
    auto& ids = shard->final_ids;
    size_t drop = 0;
    while (drop < ids.size() && ids[drop] >= 0 && ids[drop] < below) ++drop;
    ids.erase(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(drop));
    shard->final_base += drop;
    live += ids.size();
  }
  prune_at_ = std::max<size_t>(1024, live);
}

void TraceRecorder::FlushSink(TimePoint watermark) {
  if (watermark <= last_watermark_) return;
  EmitReady(watermark);
  last_watermark_ = watermark;
  if (sink_ != nullptr) sink_->OnWatermark(watermark);
}

Trace TraceRecorder::Finish(TimePoint horizon) {
  if (finished_) {
    // A second Finish could only return a moved-from (empty) trace, and an
    // empty trace sails through every downstream check. Fail loudly.
    HCM_LOG(Error) << "TraceRecorder::Finish called twice; the trace was "
                      "already moved out by the first call";
    std::abort();
  }
  finished_ = true;
  // Emit everything still pending; the merge machinery is the same one the
  // streaming flushes use, so a run that was never flushed degenerates to
  // one single-batch merge.
  EmitReady(TimePoint::FromMillis(std::numeric_limits<int64_t>::max()));
  if (sink_ != nullptr) sink_->OnFinish(horizon);
  Trace out;
  out.horizon = horizon;
  out.initial_values = std::move(initial_values_);
  initial_values_.clear();
  out.events = std::move(emitted_);
  emitted_.clear();
  // Spent: drained totals must be read before Finish. Local indices keep
  // counting, so a later (accidental) Record never reuses an id.
  spent_events_ += num_events();
  // Stamp dense item ids against the final merged order, so id assignment
  // depends only on the event log, never on how recording was sharded.
  InternTraceItems(&out);
  return out;
}

Trace TraceRecorder::trace() const {
  Trace out;
  out.initial_values = initial_values_;
  out.events = emitted_;
  std::vector<const rule::Event*> pending;
  for (const auto& [site, shard] : shards_) {
    for (const rule::Event& event : shard->events) pending.push_back(&event);
  }
  std::stable_sort(pending.begin(), pending.end(), CanonicalLess);
  // The ids EmitReady would assign, without touching the recorder.
  std::unordered_map<int64_t, int64_t> ids;
  for (const rule::Event* event : pending) {
    ids.emplace(event->id, next_final_id_ + static_cast<int64_t>(ids.size()));
  }
  for (const rule::Event* event : pending) {
    rule::Event copy = *event;
    copy.id = ids.at(event->id);
    if (copy.trigger_event_id >= 0) {
      auto it = ids.find(copy.trigger_event_id);
      if (it != ids.end()) {
        copy.trigger_event_id = it->second;
      } else if (int64_t trigger = Lookup(copy.trigger_event_id);
                 trigger >= 0) {
        copy.trigger_event_id = trigger;
      }
    }
    out.events.push_back(std::move(copy));
  }
  InternTraceItems(&out);
  return out;
}

size_t TraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [site, shard] : shards_) total += shard->recorded;
  return total - spent_events_;
}

}  // namespace hcm::trace
