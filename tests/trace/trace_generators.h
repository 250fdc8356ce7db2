#ifndef HCM_TESTS_TRACE_TRACE_GENERATORS_H_
#define HCM_TESTS_TRACE_TRACE_GENERATORS_H_

// Seeded synthetic traces shared by the checker tests and the golden
// fixtures. Each generator is a pure function of its arguments, so a seed
// names one trace for good: changing a generator changes every fixture
// built from it (tests/fixtures/golden/).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/trace/trace.h"

namespace hcm::trace::testgen {

inline rule::ItemId Item(const std::string& base) {
  return rule::ItemId{base, {}};
}

struct GeneratedTrace {
  Trace trace;
  std::vector<rule::Rule> rules;
};

// A write-request scheduled to fire later than the notify that triggered it.
struct PendingFire {
  int64_t fire_ms = 0;
  uint64_t seq = 0;  // FIFO tie-break
  size_t pair = 0;
  int64_t value = 0;
  int64_t trigger_id = 0;
  bool corrupt_value = false;  // property-5 template mismatch
  bool operator>(const PendingFire& o) const {
    return fire_ms != o.fire_ms ? fire_ms > o.fire_ms : seq > o.seq;
  }
};
using PendingQueue = std::priority_queue<PendingFire, std::vector<PendingFire>,
                                         std::greater<PendingFire>>;

// Per-pair rules `N(src<p>, b) -> 5s WR(dst<p>, b)` with ids 0..pairs-1,
// and zero initial values for every src<p>/dst<p>.
inline void AddPairRules(size_t pairs, TraceRecorder* rec,
                         GeneratedTrace* out) {
  for (size_t p = 0; p < pairs; ++p) {
    auto r = rule::ParseRule("N(src" + std::to_string(p) + ", b) -> 5s WR(dst" +
                             std::to_string(p) + ", b)");
    EXPECT_TRUE(r.ok());
    r->id = static_cast<int64_t>(p);
    out->rules.push_back(*r);
    rec->SetInitialValue(Item("src" + std::to_string(p)), Value::Int(0));
    rec->SetInitialValue(Item("dst" + std::to_string(p)), Value::Int(0));
  }
}

// Records every pending WR due at or before `up_to_ms`.
inline void FlushPending(int64_t up_to_ms, PendingQueue* pending,
                         TraceRecorder* rec) {
  while (!pending->empty() && pending->top().fire_ms <= up_to_ms) {
    PendingFire f = pending->top();
    pending->pop();
    rule::Event e;
    e.time = TimePoint::FromMillis(f.fire_ms);
    e.site = "D" + std::to_string(f.pair);
    e.kind = rule::EventKind::kWriteRequest;
    e.item = Item("dst" + std::to_string(f.pair));
    e.values = {Value::Int(f.corrupt_value ? f.value + 1000000 : f.value)};
    e.rule_id = static_cast<int64_t>(f.pair);
    e.trigger_event_id = f.trigger_id;
    e.rhs_step = 0;
    rec->Record(e);
  }
}

constexpr int64_t kCheckRuleDeltaMs = 5000;

// The large randomized check trace (>= 110,000 events): per-pair notify ->
// WR propagation over 64 pairs, spontaneous writes with tracked old values
// (including valid same-instant chains), a scripted GX -> GY copy stream
// for the guarantee checker, and a fixed handful of injected violations of
// properties 2, 5 and 6.
inline GeneratedTrace GenerateCheckTrace(uint64_t seed) {
  constexpr size_t kPairs = 64;
  constexpr size_t kTargetEvents = 110000;
  GeneratedTrace out;
  Rng rng(seed);
  TraceRecorder rec;
  AddPairRules(kPairs, &rec, &out);
  rec.SetInitialValue(Item("GX"), Value::Int(0));
  rec.SetInitialValue(Item("GY"), Value::Int(0));

  std::vector<int64_t> current(kPairs, 0);  // last written src value
  PendingQueue pending;
  std::vector<int64_t> last_fire(kPairs, 0);  // per-channel FIFO floor
  uint64_t seq = 0;
  int64_t now = 0;
  // Injection budgets (kept far below the 50-violation report cap so every
  // violation is materialized and the full reports stay comparable).
  int corrupt_old = 6, dropped_wr = 4, corrupt_wr = 3;
  // The guarantee copy stream stays small: guarantee checking is quadratic
  // in the guarantee-relevant segment count.
  int copies_left = 60;

  auto notify = [&rec](size_t p, int64_t ms, int64_t v) {
    rule::Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "S" + std::to_string(p);
    e.kind = rule::EventKind::kNotify;
    e.item = Item("src" + std::to_string(p));
    e.values = {Value::Int(v)};
    return rec.Record(e);
  };
  auto write_spont = [&rec](const rule::ItemId& item, int64_t ms, Value old_v,
                            int64_t v) {
    rule::Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = rule::EventKind::kWriteSpont;
    e.item = item;
    e.values = {std::move(old_v), Value::Int(v)};
    rec.Record(e);
  };

  int64_t gx = 0;
  while (rec.num_events() < kTargetEvents) {
    now += rng.UniformInt(1, 10);
    FlushPending(now, &pending, &rec);
    double roll = rng.UniformDouble();
    if (roll < 0.25) {
      // Notify on a random pair; usually a WR follows within the window.
      size_t p = rng.Index(kPairs);
      int64_t v = rng.UniformInt(0, 999);
      int64_t id = notify(p, now, v);
      if (dropped_wr > 0 && rng.Bernoulli(0.0005)) {
        --dropped_wr;  // obligation never met: property 6
        continue;
      }
      PendingFire f;
      // FIFO per channel so the generated trace never violates property 7.
      f.fire_ms = std::max(last_fire[p] + 1, now + rng.UniformInt(50, 4000));
      last_fire[p] = f.fire_ms;
      f.seq = ++seq;
      f.pair = p;
      f.value = v;
      f.trigger_id = id;
      if (corrupt_wr > 0 && rng.Bernoulli(0.0005)) {
        --corrupt_wr;
        f.corrupt_value = true;  // template mismatch: property 5
      }
      pending.push(f);
    } else if (roll < 0.27) {
      // Valid same-instant write chain: second Ws's old value is the first
      // Ws's new value, resolvable only through the chain lookup.
      size_t p = rng.Index(kPairs);
      rule::ItemId item = Item("src" + std::to_string(p));
      int64_t a = rng.UniformInt(0, 999);
      int64_t b = rng.UniformInt(0, 999);
      write_spont(item, now, Value::Int(current[p]), a);
      write_spont(item, now, Value::Int(a), b);
      current[p] = b;
    } else if (roll < 0.29 && copies_left > 0) {
      // Scripted copy stream for the guarantee: GY trails GX by 5-40ms.
      --copies_left;
      int64_t v = rng.UniformInt(0, 999);
      write_spont(Item("GX"), now, Value::Int(gx), v);
      // Flush pending fires first so recording stays in time order.
      int64_t gy_ms = now + rng.UniformInt(5, 40);
      FlushPending(gy_ms, &pending, &rec);
      write_spont(Item("GY"), gy_ms, Value::Int(gx), v);
      gx = v;
      now = gy_ms;
    } else {
      // Plain spontaneous write with a consistent old value -- or, on the
      // corruption budget, an old value the state never held (property 2).
      size_t p = rng.Index(kPairs);
      int64_t v = rng.UniformInt(0, 999);
      Value old_v = Value::Int(current[p]);
      if (corrupt_old > 0 && rng.Bernoulli(0.0003)) {
        --corrupt_old;
        old_v = Value::Int(7000000 + corrupt_old);  // never a real value
      }
      write_spont(Item("src" + std::to_string(p)), now, std::move(old_v), v);
      current[p] = v;
    }
  }
  FlushPending(now + kCheckRuleDeltaMs + 1, &pending, &rec);
  // Horizon far enough out that every obligation has come due.
  out.trace = rec.Finish(TimePoint::FromMillis(now + 2 * kCheckRuleDeltaMs));
  return out;
}

// Compact cousin of GenerateCheckTrace: per-pair notify -> WR propagation
// over 16 pairs, spontaneous writes with tracked old values, and
// `violation_budget` injected violations each of properties 2, 5 and 6,
// spread across many items so per-item and per-chunk fan-outs both see
// them.
inline GeneratedTrace GenerateObligationTrace(uint64_t seed,
                                              size_t target_events,
                                              int violation_budget) {
  constexpr size_t kPairs = 16;
  GeneratedTrace out;
  Rng rng(seed);
  TraceRecorder rec;
  AddPairRules(kPairs, &rec, &out);

  std::vector<int64_t> current(kPairs, 0);
  PendingQueue pending;
  std::vector<int64_t> last_fire(kPairs, 0);
  uint64_t seq = 0;
  int64_t now = 0;
  int corrupt_old = violation_budget, dropped_wr = violation_budget,
      corrupt_wr = violation_budget;

  while (rec.num_events() < target_events) {
    now += rng.UniformInt(1, 10);
    FlushPending(now, &pending, &rec);
    size_t p = rng.Index(kPairs);
    if (rng.Bernoulli(0.3)) {
      rule::Event e;
      e.time = TimePoint::FromMillis(now);
      e.site = "S" + std::to_string(p);
      e.kind = rule::EventKind::kNotify;
      e.item = Item("src" + std::to_string(p));
      int64_t v = rng.UniformInt(0, 999);
      e.values = {Value::Int(v)};
      int64_t id = rec.Record(e);
      if (dropped_wr > 0 && rng.Bernoulli(0.01)) {
        --dropped_wr;  // property 6: obligation never met
        continue;
      }
      PendingFire f;
      f.fire_ms = std::max(last_fire[p] + 1, now + rng.UniformInt(50, 4000));
      last_fire[p] = f.fire_ms;
      f.seq = ++seq;
      f.pair = p;
      f.value = v;
      f.trigger_id = id;
      if (corrupt_wr > 0 && rng.Bernoulli(0.01)) {
        --corrupt_wr;  // property 5: template mismatch
        f.corrupt_value = true;
      }
      pending.push(f);
    } else {
      rule::Event e;
      e.time = TimePoint::FromMillis(now);
      e.site = "A";
      e.kind = rule::EventKind::kWriteSpont;
      e.item = Item("src" + std::to_string(p));
      int64_t v = rng.UniformInt(0, 999);
      Value old_v = Value::Int(current[p]);
      if (corrupt_old > 0 && rng.Bernoulli(0.01)) {
        --corrupt_old;  // property 2: old value the state never held
        old_v = Value::Int(7000000 + corrupt_old);
      }
      e.values = {std::move(old_v), Value::Int(v)};
      rec.Record(e);
      current[p] = v;
    }
  }
  FlushPending(now + 5001, &pending, &rec);
  out.trace = rec.Finish(TimePoint::FromMillis(now + 10000));
  return out;
}

// Propagation-shaped trace for guarantee checking: spontaneous writes to
// src(i), each normally followed by a W of the same value on dst(i) within
// 2s. `corrupt_every` garbles the propagated value of every k-th write
// (0 = never): dst then holds a value src never held, violating
// y-follows-x.
inline Trace GeneratePropagationTrace(uint64_t seed, size_t num_writes,
                                      size_t corrupt_every) {
  constexpr int kIds = 6;
  Rng rng(seed);
  TraceRecorder rec;
  for (int i = 0; i < kIds; ++i) {
    rec.SetInitialValue(rule::ItemId{"src", {Value::Int(i)}}, Value::Int(0));
    rec.SetInitialValue(rule::ItemId{"dst", {Value::Int(i)}}, Value::Int(0));
  }
  std::vector<int64_t> current(kIds, 0);
  int64_t now = 0;
  for (size_t u = 0; u < num_writes; ++u) {
    now += static_cast<int64_t>(rng.UniformInt(100, 3000));
    int i = static_cast<int>(rng.Index(kIds));
    int64_t v = static_cast<int64_t>(rng.UniformInt(1, 100000));
    rule::Event ws;
    ws.time = TimePoint::FromMillis(now);
    ws.site = "A";
    ws.kind = rule::EventKind::kWriteSpont;
    ws.item = rule::ItemId{"src", {Value::Int(i)}};
    ws.values = {Value::Int(current[i]), Value::Int(v)};
    rec.Record(ws);
    current[i] = v;
    int64_t propagated = v;
    if (corrupt_every != 0 && u % corrupt_every == corrupt_every - 1) {
      propagated = v + 1000000;
    }
    rule::Event w;
    w.time = TimePoint::FromMillis(
        now + static_cast<int64_t>(rng.UniformInt(50, 2000)));
    w.site = "B";
    w.kind = rule::EventKind::kWrite;
    w.item = rule::ItemId{"dst", {Value::Int(i)}};
    w.values = {Value::Int(propagated)};
    rec.Record(w);
  }
  return rec.Finish(TimePoint::FromMillis(now + 10000));
}

}  // namespace hcm::trace::testgen

#endif  // HCM_TESTS_TRACE_TRACE_GENERATORS_H_
