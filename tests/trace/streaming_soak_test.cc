// Soak smoke for trace::StreamingChecker in drain mode: a 300s run (60x
// the 5s rule delta, ~300x the windowed guarantee lag) streamed through a
// draining recorder — no offline trace is ever materialized. The offline
// checkers' memory grows linearly with the trace; the streaming checker's
// live footprint must stay flat: the high-water mark at the end of the run
// is asserted to sit within a small factor of the first-quarter mark, far
// below the event count. Violations injected mid-run must still surface
// live, and the windowed guarantee region machinery must keep evaluating
// and retiring as the horizon advances.

#include <queue>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/spec/guarantee.h"
#include "src/trace/streaming_checker.h"

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

constexpr size_t kSoakPairs = 16;
constexpr int64_t kSoakRuleDeltaMs = 5000;
constexpr int64_t kSoakSpanMs = 300000;  // 300s = 60 rule windows

ItemId Item(const std::string& base) { return ItemId{base, {}}; }

struct PendingFire {
  int64_t fire_ms = 0;
  uint64_t seq = 0;
  size_t pair = 0;
  int64_t value = 0;
  int64_t trigger_id = 0;
  bool operator>(const PendingFire& o) const {
    return fire_ms != o.fire_ms ? fire_ms > o.fire_ms : seq > o.seq;
  }
};

std::vector<rule::Rule> SoakRules() {
  std::vector<rule::Rule> rules;
  for (size_t p = 0; p < kSoakPairs; ++p) {
    auto r = rule::ParseRule("N(src" + std::to_string(p) + ", b) -> 5s WR(dst" +
                             std::to_string(p) + ", b)");
    EXPECT_TRUE(r.ok());
    r->id = static_cast<int64_t>(p);
    rules.push_back(*r);
  }
  return rules;
}

TEST(StreamingSoakTest, LiveFootprintStaysFlatOverLongDrainedRun) {
  std::vector<rule::Rule> rules = SoakRules();
  std::vector<spec::Guarantee> guarantees = {spec::AlwaysLeq("GX", "GY")};

  size_t live_before_finish = 0;
  const StreamingChecker* cp = nullptr;
  StreamingCheckOptions sopts;
  sopts.guarantee.settle_margin = Duration::Seconds(1);
  sopts.on_violation = [&live_before_finish, &cp](const ExecutionViolation&) {
    if (cp == nullptr || !cp->finished()) ++live_before_finish;
  };
  StreamingChecker streaming(rules, guarantees, sopts);
  cp = &streaming;

  // Drain mode: the recorder forwards each event and keeps no copy — the
  // run's only retained state is the checker's live horizon. Events are
  // generated in time order, so each Record is preceded by the flush a
  // run's barrier would do.
  TraceRecorder rec;
  rec.AttachSink(&streaming, /*drain=*/true);
  for (size_t p = 0; p < kSoakPairs; ++p) {
    rec.SetInitialValue(Item("src" + std::to_string(p)), Value::Int(0));
    rec.SetInitialValue(Item("dst" + std::to_string(p)), Value::Int(0));
  }
  rec.SetInitialValue(Item("GX"), Value::Int(0));
  rec.SetInitialValue(Item("GY"), Value::Int(0));

  Rng rng(20260810);
  std::vector<int64_t> current(kSoakPairs, 0);
  std::vector<int64_t> last_fire(kSoakPairs, 0);
  std::priority_queue<PendingFire, std::vector<PendingFire>,
                      std::greater<PendingFire>>
      pending;
  uint64_t seq = 0;
  int64_t now = 0;
  int64_t gxy = 0, next_g_ms = 100;
  // Six property-2 violations (stale old value), spread across the run so
  // every quarter sees at least one reported live.
  std::vector<int64_t> corrupt_at = {35000, 85000, 135000, 185000, 235000,
                                     285000};
  size_t next_corrupt = 0;

  auto flush_pending = [&](int64_t up_to_ms) {
    while (!pending.empty() && pending.top().fire_ms <= up_to_ms) {
      PendingFire f = pending.top();
      pending.pop();
      Event e;
      e.time = TimePoint::FromMillis(f.fire_ms);
      e.site = "D" + std::to_string(f.pair);
      e.kind = EventKind::kWriteRequest;
      e.item = Item("dst" + std::to_string(f.pair));
      e.values = {Value::Int(f.value)};
      e.rule_id = static_cast<int64_t>(f.pair);
      e.trigger_event_id = f.trigger_id;
      e.rhs_step = 0;
      rec.FlushSink(e.time);
      rec.Record(e);
    }
  };
  auto write_spont = [&rec](const ItemId& item, int64_t ms, Value old_v,
                            int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = EventKind::kWriteSpont;
    e.item = item;
    e.values = {std::move(old_v), Value::Int(v)};
    rec.FlushSink(e.time);
    rec.Record(e);
  };

  // Live-footprint high-water marks sampled at each quarter of the run.
  std::vector<size_t> quarter_peaks;
  int64_t next_quarter = kSoakSpanMs / 4;

  while (now < kSoakSpanMs) {
    now += rng.UniformInt(1, 6);
    flush_pending(now);
    if (now >= next_quarter) {
      quarter_peaks.push_back(streaming.stats().live_footprint_peak);
      next_quarter += kSoakSpanMs / 4;
    }
    if (now >= next_g_ms) {
      // GY rises first, GX follows at the same instant: always-leq holds.
      write_spont(Item("GY"), now, Value::Int(gxy), gxy + 1);
      write_spont(Item("GX"), now, Value::Int(gxy), gxy + 1);
      ++gxy;
      next_g_ms = now + 100;
    }
    double roll = rng.UniformDouble();
    if (roll < 0.3) {
      size_t p = rng.Index(kSoakPairs);
      int64_t v = rng.UniformInt(0, 999);
      Event e;
      e.time = TimePoint::FromMillis(now);
      e.site = "S" + std::to_string(p);
      e.kind = EventKind::kNotify;
      e.item = Item("src" + std::to_string(p));
      e.values = {Value::Int(v)};
      rec.FlushSink(e.time);
      int64_t id = rec.Record(e);
      PendingFire f;
      f.fire_ms = std::max(last_fire[p] + 1, now + rng.UniformInt(50, 4000));
      last_fire[p] = f.fire_ms;
      f.seq = ++seq;
      f.pair = p;
      f.value = v;
      f.trigger_id = id;
      pending.push(f);
    } else if (roll < 0.8) {
      size_t p = rng.Index(kSoakPairs);
      int64_t v = rng.UniformInt(0, 999);
      Value old_v = Value::Int(current[p]);
      if (next_corrupt < corrupt_at.size() && now >= corrupt_at[next_corrupt]) {
        old_v = Value::Int(8000000 + static_cast<int64_t>(next_corrupt));
        ++next_corrupt;
      }
      write_spont(Item("src" + std::to_string(p)), now, std::move(old_v), v);
      current[p] = v;
    }
  }
  flush_pending(now + kSoakRuleDeltaMs + 1);
  size_t total_events = rec.num_events();
  Trace drained = rec.Finish(TimePoint::FromMillis(now + 2 * kSoakRuleDeltaMs));
  ASSERT_TRUE(streaming.finished());

  // Drain mode really drained: no offline trace was accumulated even
  // though >= 100k events flowed through.
  EXPECT_TRUE(drained.events.empty());
  ASSERT_GE(total_events, 100000u);
  const StreamingCheckStats& stats = streaming.stats();
  EXPECT_EQ(stats.events_seen, total_events);

  // All six injected violations surfaced live, before the finish, and made
  // it into the final report.
  EXPECT_GE(live_before_finish, corrupt_at.size());
  EXPECT_FALSE(streaming.execution_report().valid);
  EXPECT_GE(streaming.execution_report().violations.size(), corrupt_at.size());

  // Every retirement path actually cycled.
  EXPECT_GT(stats.events_retired, 0u);
  EXPECT_GT(stats.segments_retired, 0u);
  EXPECT_GT(stats.obligations_resolved, 0u);
  EXPECT_GT(stats.pairs_retired, 0u);
  EXPECT_GT(stats.guarantee_segments_retired, 0u);
  EXPECT_GT(stats.guarantee_windows_evaluated, 4u);
  ASSERT_EQ(streaming.guarantee_results().count("always-leq"), 1u);
  EXPECT_TRUE(streaming.guarantee_results().at("always-leq").holds);

  // Boundedness: the live high-water mark is a small fraction of the event
  // count (an offline checker holds all of them), and it stopped growing
  // after the first quarter — the steady-state footprint is flat, not
  // linear in the run length.
  ASSERT_EQ(quarter_peaks.size(), 4u);
  EXPECT_LT(stats.live_footprint_peak, total_events / 4);
  EXPECT_GT(quarter_peaks[0], 0u);
  EXPECT_LE(stats.live_footprint_peak, quarter_peaks[0] * 2);

  // The --follow rendering exposes the same counters.
  std::string described = streaming.DescribeCheckStats();
  EXPECT_NE(described.find("streaming check stats"), std::string::npos);
  EXPECT_NE(described.find("live footprint"), std::string::npos);
}

}  // namespace
}  // namespace hcm::trace
