#ifndef HCM_RULE_EVENT_H_
#define HCM_RULE_EVENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/rule/item.h"

namespace hcm::rule {

// The event descriptor vocabulary of the paper (Appendix A.1), plus the
// INS/DEL exists-change events needed by the referential-integrity scenario
// (the paper notes the descriptor set "can be expanded").
//
//   Ws(X, a, b)  spontaneous write X: a -> b, by a local application
//   W(X, b)      write performed (generated, i.e. CM-induced)
//   WR(X, b)     CM's write request received by the database
//   RR(X)        CM's read request received by the database
//   R(X, b)      CM received the read response: X = b
//   N(X, b)      CM received a notification: X was set to b
//   P(p)         periodic event with period p seconds
//   INS(X)       item X came into existence (record inserted)
//   DEL(X)       item X ceased to exist (record deleted)
//   F            the false event — never occurs
enum class EventKind {
  kWriteSpont,
  kWrite,
  kWriteRequest,
  kReadRequest,
  kRead,
  kNotify,
  kPeriodic,
  kInsert,
  kDelete,
  kFalse,
};

// "Ws", "W", "WR", ... as written in rule text.
const char* EventKindName(EventKind kind);
Result<EventKind> ParseEventKind(const std::string& name);

// Number of payload values carried by events of this kind (item excluded):
// Ws -> 2 (old, new); W/WR/R/N -> 1; P -> 1 (period); RR/INS/DEL/F -> 0.
size_t EventPayloadArity(EventKind kind);

// True for kinds that carry a data item (all but P and F).
bool EventKindHasItem(EventKind kind);

// A concrete event occurrence — the Appendix-A six-tuple
// (time, desc, old, new, rule, trigger) with the old/new interpretations
// represented by the touched item's payload values (the trace checker
// reconstructs full interpretations incrementally; see src/trace).
struct Event {
  int64_t id = -1;           // unique within a run; assigned by the recorder
  TimePoint time;            // occurrence time on the global virtual clock
  std::string site;          // each event has a unique site
  EventKind kind = EventKind::kFalse;
  ItemId item;               // empty base for P and F
  std::vector<Value> values; // payload, per EventPayloadArity

  // Provenance (Appendix A "rule" and "trigger" components):
  // -1/-1 for spontaneous events.
  int64_t rule_id = -1;
  int64_t trigger_event_id = -1;
  // Which RHS step of the rule produced this event (implementation metadata
  // used by the valid-execution checker; -1 for spontaneous events).
  int rhs_step = -1;

  // In-memory acceleration only — never serialized, never part of event
  // identity (see src/common/symbols.h for why ids are not run-stable).
  // site_sym/base_sym are interned via the process SymbolTable when the
  // event enters the runtime; item_iid is the dense per-trace item id
  // stamped by the recorder's Finish pass for state-changing events.
  uint32_t site_sym = kNoSymbol;
  uint32_t base_sym = kNoSymbol;
  uint32_t item_iid = kNoSymbol;

  bool spontaneous() const { return rule_id < 0; }

  // For write-shaped events: the value written.
  const Value& written_value() const;
  // For Ws events: the value before the write.
  const Value& old_value() const;

  // "t=1.000s @SF Ws(salary1(17), 100, 150)".
  std::string ToString() const;
};

// An event template: kind plus term-level patterns for the item and
// payload. Parses from text like `N(salary1(n), b)` or `P(300)`.
struct EventTemplate {
  EventKind kind = EventKind::kFalse;
  ItemRef item;               // ignored for P and F
  std::vector<Term> values;   // length EventPayloadArity(kind)
  std::string site;           // optional "@site" pin; "" = resolve from item

  // Resolves variable terms to slots and interns the item base. Called by
  // Rule::Compile; precondition for the *Compiled methods below.
  void Compile(SlotMap* slots);

  // Unifies against a concrete event through a reusable frame, with no
  // allocation on the match path: kinds must agree (F matches nothing), a
  // "@site" pin must equal the event's site, and the item and payload
  // terms unify against the event's item and values. On success the
  // frame holds the matching interpretation; on failure, bindings made
  // during the attempt are rolled back.
  bool MatchesCompiled(const Event& event, BindingFrame* frame) const;

  // Builds a concrete event from this template under a slot frame
  // (site/time are filled by the caller) and stamps the event's interned
  // base id. Errors when a variable is unbound.
  Result<Event> InstantiateCompiled(const BindingFrame& frame) const;

  // "N(salary1(n), b)" (+"@site" when pinned).
  std::string ToString() const;

  bool operator==(const EventTemplate& other) const;
};

}  // namespace hcm::rule

#endif  // HCM_RULE_EVENT_H_
