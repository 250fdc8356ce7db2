#include "src/rule/event.h"

#include <cassert>

#include "src/common/string_util.h"

namespace hcm::rule {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kWriteSpont:
      return "Ws";
    case EventKind::kWrite:
      return "W";
    case EventKind::kWriteRequest:
      return "WR";
    case EventKind::kReadRequest:
      return "RR";
    case EventKind::kRead:
      return "R";
    case EventKind::kNotify:
      return "N";
    case EventKind::kPeriodic:
      return "P";
    case EventKind::kInsert:
      return "INS";
    case EventKind::kDelete:
      return "DEL";
    case EventKind::kFalse:
      return "F";
  }
  return "?";
}

Result<EventKind> ParseEventKind(const std::string& name) {
  if (name == "Ws") return EventKind::kWriteSpont;
  if (name == "W") return EventKind::kWrite;
  if (name == "WR") return EventKind::kWriteRequest;
  if (name == "RR") return EventKind::kReadRequest;
  if (name == "R") return EventKind::kRead;
  if (name == "N") return EventKind::kNotify;
  if (name == "P") return EventKind::kPeriodic;
  if (name == "INS") return EventKind::kInsert;
  if (name == "DEL") return EventKind::kDelete;
  if (name == "F") return EventKind::kFalse;
  return Status::InvalidArgument("unknown event kind: " + name);
}

size_t EventPayloadArity(EventKind kind) {
  switch (kind) {
    case EventKind::kWriteSpont:
      return 2;
    case EventKind::kWrite:
    case EventKind::kWriteRequest:
    case EventKind::kRead:
    case EventKind::kNotify:
    case EventKind::kPeriodic:
      return 1;
    case EventKind::kReadRequest:
    case EventKind::kInsert:
    case EventKind::kDelete:
    case EventKind::kFalse:
      return 0;
  }
  return 0;
}

bool EventKindHasItem(EventKind kind) {
  return kind != EventKind::kPeriodic && kind != EventKind::kFalse;
}

const Value& Event::written_value() const {
  assert(kind == EventKind::kWriteSpont || kind == EventKind::kWrite ||
         kind == EventKind::kWriteRequest || kind == EventKind::kNotify ||
         kind == EventKind::kRead);
  if (kind == EventKind::kWriteSpont) return values[1];
  return values[0];
}

const Value& Event::old_value() const {
  assert(kind == EventKind::kWriteSpont);
  return values[0];
}

std::string Event::ToString() const {
  std::string payload;
  if (EventKindHasItem(kind)) {
    payload = item.ToString();
    for (const Value& v : values) payload += ", " + v.ToString();
  } else {
    std::vector<std::string> parts;
    for (const Value& v : values) parts.push_back(v.ToString());
    payload = StrJoin(parts, ", ");
  }
  return StrFormat("%s @%s %s(%s)", time.ToString().c_str(), site.c_str(),
                   EventKindName(kind), payload.c_str());
}

bool EventTemplate::Matches(const Event& event, Binding* binding) const {
  if (kind != event.kind) return false;
  if (kind == EventKind::kFalse) return false;  // F matches nothing
  if (!site.empty() && site != event.site) return false;
  Binding scratch = *binding;
  if (EventKindHasItem(kind)) {
    if (!item.Unify(event.item, &scratch)) return false;
  }
  if (values.size() != event.values.size()) return false;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].Unify(event.values[i], &scratch)) return false;
  }
  *binding = std::move(scratch);
  return true;
}

void EventTemplate::Compile(SlotMap* slots) {
  if (EventKindHasItem(kind)) item.Compile(slots);
  for (Term& t : values) t.Compile(slots);
}

bool EventTemplate::MatchesCompiled(const Event& event,
                                    BindingFrame* frame) const {
  if (kind != event.kind) return false;
  if (kind == EventKind::kFalse) return false;  // F matches nothing
  if (!site.empty() && site != event.site) return false;
  if (values.size() != event.values.size()) return false;
  size_t mark = frame->mark();
  if (EventKindHasItem(kind) &&
      !item.UnifyCompiled(event.item, event.base_sym, frame)) {
    return false;  // UnifyCompiled rolled back its own bindings
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (!values[i].UnifyCompiled(event.values[i], frame)) {
      frame->Rollback(mark);
      return false;
    }
  }
  return true;
}

Result<Event> EventTemplate::InstantiateCompiled(
    const BindingFrame& frame) const {
  Event event;
  event.kind = kind;
  event.site = site;
  if (EventKindHasItem(kind)) {
    HCM_ASSIGN_OR_RETURN(event.item, item.GroundCompiled(frame));
    event.base_sym = item.base_sym;
  }
  event.values.reserve(values.size());
  for (const Term& t : values) {
    HCM_ASSIGN_OR_RETURN(Value v, t.GroundCompiled(frame));
    event.values.push_back(std::move(v));
  }
  return event;
}

std::string EventTemplate::ToString() const {
  std::string payload;
  if (EventKindHasItem(kind)) {
    payload = item.ToString();
    for (const Term& t : values) payload += ", " + t.ToString();
  } else {
    std::vector<std::string> parts;
    for (const Term& t : values) {
      // Periods are canonically milliseconds; print the unit so the text
      // round-trips (a bare number would re-parse as seconds).
      if (kind == EventKind::kPeriodic && t.is_literal() &&
          t.literal().is_int()) {
        parts.push_back(std::to_string(t.literal().AsInt()) + "ms");
      } else {
        parts.push_back(t.ToString());
      }
    }
    payload = StrJoin(parts, ", ");
  }
  std::string out =
      StrFormat("%s(%s)", EventKindName(kind), payload.c_str());
  if (kind == EventKind::kFalse) out = "F";
  if (!site.empty()) out += "@" + site;
  return out;
}

bool EventTemplate::operator==(const EventTemplate& other) const {
  return kind == other.kind && item == other.item && values == other.values &&
         site == other.site;
}

}  // namespace hcm::rule
