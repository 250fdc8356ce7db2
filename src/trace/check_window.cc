#include "src/trace/check_window.h"

#include "src/sim/executor.h"

namespace hcm::trace::internal {

using sim::BaseSiteOf;

void MergePhaseInto(std::vector<Sink> sinks, size_t max_violations,
                    ExecutionReport* report, size_t* extra_violations) {
  std::vector<Tagged> all;
  size_t found = 0;
  for (Sink& s : sinks) {
    found += s.found();
    for (Tagged& t : s.kept()) all.push_back(std::move(t));
    report->obligations_checked += s.obligations_checked;
    report->stats.chain_lookups += s.chain_lookups;
    report->stats.chain_events_scanned += s.chain_events_scanned;
    report->stats.obligation_candidates += s.obligation_candidates;
    report->stats.obligation_scans_avoided += s.obligation_scans_avoided;
    report->stats.condition_instants += s.condition_instants;
  }
  std::sort(all.begin(), all.end(), TaggedEarlier());
  size_t materialized = 0;
  for (Tagged& t : all) {
    if (report->violations.size() >= max_violations) break;
    report->violations.push_back(std::move(t.v));
    ++materialized;
  }
  *extra_violations += found - materialized;
}

PropertyCore::PropertyCore(std::vector<rule::Rule> rules,
                           std::vector<SiteOutage> outages)
    : rules_(std::move(rules)), outages_(std::move(outages)) {
  rule_pos_by_id_.reserve(rules_.size());
  cleared_rhs_.reserve(rules_.size());
  for (size_t pos = 0; pos < rules_.size(); ++pos) {
    rule::Rule& r = rules_[pos];
    r.Compile();
    max_slots_ = std::max(max_slots_, r.slots.size());
    rule_pos_by_id_[r.id] = pos;
    rule_index_.Add(r.lhs, pos);
    std::vector<rule::EventTemplate> cleared;
    cleared.reserve(r.rhs.size());
    for (const rule::RhsStep& step : r.rhs) {
      cleared.push_back(step.event);
      cleared.back().site.clear();
    }
    cleared_rhs_.push_back(std::move(cleared));
  }
}

void PropertyCore::LearnSite(const rule::Event& e) {
  const rule::EventKind k = e.kind;
  const bool write =
      k == rule::EventKind::kWriteSpont || k == rule::EventKind::kWrite ||
      k == rule::EventKind::kWriteRequest || k == rule::EventKind::kInsert ||
      k == rule::EventKind::kDelete;
  if (!write && e.item.base.empty()) return;
  auto [it, inserted] = site_of_base_.try_emplace(e.item.base);
  if (inserted || (write && !it->second.from_write)) {
    it->second = LearnedSite{std::string(BaseSiteOf(e.site)), write};
  }
}

bool PropertyCore::OutageCoversRule(std::string_view outage_site,
                                    std::string_view trigger_site,
                                    const rule::Rule& r) const {
  const std::string_view down = BaseSiteOf(outage_site);
  if (BaseSiteOf(trigger_site) == down) return true;
  if (!r.lhs.site.empty() && BaseSiteOf(r.lhs.site) == down) return true;
  bool unknown = false;
  for (const rule::RhsStep& step : r.rhs) {
    std::string_view site = step.event.site;
    if (site.empty()) {
      auto it = site_of_base_.find(step.event.item.base);
      if (it != site_of_base_.end()) site = it->second.site;
    }
    if (site.empty()) {
      unknown = true;
    } else if (BaseSiteOf(site) == down) {
      return true;
    }
  }
  return unknown;
}

TimePoint PropertyCore::Deadline(const Obligation& ob,
                                 std::string_view trigger_site) const {
  const rule::Rule& r = *ob.rule;
  TimePoint deadline = ob.trigger_time + r.delta;
  bool extended = !outages_.empty();
  while (extended) {
    extended = false;
    for (const SiteOutage& w : outages_) {
      if (!(w.from <= deadline && ob.trigger_time < w.to)) continue;
      if (!OutageCoversRule(w.site, trigger_site, r)) continue;
      TimePoint candidate = w.to + r.delta;
      if (deadline < candidate) {
        deadline = candidate;
        extended = true;
      }
    }
  }
  return deadline;
}

}  // namespace hcm::trace::internal
