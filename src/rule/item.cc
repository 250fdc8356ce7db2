#include "src/rule/item.h"

#include "src/common/string_util.h"

namespace hcm::rule {

Term Term::Lit(Value v) {
  Term t;
  t.kind_ = Kind::kLiteral;
  t.literal_ = std::move(v);
  return t;
}

Term Term::Var(std::string name) {
  Term t;
  t.kind_ = Kind::kVariable;
  t.var_name_ = std::move(name);
  return t;
}

Term Term::Wildcard() {
  Term t;
  t.kind_ = Kind::kWildcard;
  return t;
}

bool Term::Unify(const Value& value, Binding* binding) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_ == value;
    case Kind::kWildcard:
      return true;
    case Kind::kVariable: {
      auto it = binding->find(var_name_);
      if (it == binding->end()) {
        binding->emplace(var_name_, value);
        return true;
      }
      return it->second == value;
    }
  }
  return false;
}

Result<Value> Term::Ground(const Binding& binding) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kWildcard:
      return Status::FailedPrecondition(
          "wildcard cannot appear in an instantiated position");
    case Kind::kVariable: {
      auto it = binding.find(var_name_);
      if (it == binding.end()) {
        return Status::FailedPrecondition("unbound variable: " + var_name_);
      }
      return it->second;
    }
  }
  return Status::Internal("bad term kind");
}

void Term::Compile(SlotMap* slots) {
  if (kind_ == Kind::kVariable) {
    slot_ = static_cast<int32_t>(slots->SlotFor(var_name_));
  }
}

bool Term::UnifyCompiled(const Value& value, BindingFrame* frame) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_ == value;
    case Kind::kWildcard:
      return true;
    case Kind::kVariable: {
      uint16_t slot = static_cast<uint16_t>(slot_);
      if (!frame->IsBound(slot)) {
        frame->Set(slot, value);
        return true;
      }
      return frame->Get(slot) == value;
    }
  }
  return false;
}

Result<Value> Term::GroundCompiled(const BindingFrame& frame) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kWildcard:
      return Status::FailedPrecondition(
          "wildcard cannot appear in an instantiated position");
    case Kind::kVariable: {
      uint16_t slot = static_cast<uint16_t>(slot_);
      if (slot_ < 0 || !frame.IsBound(slot)) {
        return Status::FailedPrecondition("unbound variable: " + var_name_);
      }
      return frame.Get(slot);
    }
  }
  return Status::Internal("bad term kind");
}

std::string Term::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kVariable:
      return var_name_;
    case Kind::kWildcard:
      return "*";
  }
  return "?";
}

bool Term::operator==(const Term& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kLiteral:
      return literal_ == other.literal_;
    case Kind::kVariable:
      return var_name_ == other.var_name_;
    case Kind::kWildcard:
      return true;
  }
  return false;
}

std::string ItemId::ToString() const {
  if (args.empty()) return base;
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const Value& v : args) parts.push_back(v.ToString());
  return base + "(" + StrJoin(parts, ", ") + ")";
}

bool ItemId::operator==(const ItemId& other) const {
  return base == other.base && args == other.args;
}

size_t ItemId::Hash() const {
  size_t h = std::hash<std::string>()(base);
  for (const Value& v : args) {
    h = h * 1000003 + v.Hash();
  }
  return h;
}

bool ItemId::operator<(const ItemId& other) const {
  if (base != other.base) return base < other.base;
  if (args.size() != other.args.size()) {
    return args.size() < other.args.size();
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] < other.args[i]) return true;
    if (other.args[i] < args[i]) return false;
  }
  return false;
}

bool ItemRef::Unify(const ItemId& item, Binding* binding) const {
  if (base != item.base || args.size() != item.args.size()) return false;
  // Unify into a scratch copy so a partial match leaves `binding` untouched.
  Binding scratch = *binding;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].Unify(item.args[i], &scratch)) return false;
  }
  *binding = std::move(scratch);
  return true;
}

void ItemRef::Compile(SlotMap* slots) {
  base_sym = Symbols().Intern(base);
  for (Term& t : args) t.Compile(slots);
}

bool ItemRef::UnifyCompiled(const ItemId& item, uint32_t item_base_sym,
                            BindingFrame* frame) const {
  if (args.size() != item.args.size()) return false;
  if (base_sym != kNoSymbol && item_base_sym != kNoSymbol) {
    if (base_sym != item_base_sym) return false;
  } else if (base != item.base) {
    return false;
  }
  size_t mark = frame->mark();
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i].UnifyCompiled(item.args[i], frame)) {
      frame->Rollback(mark);
      return false;
    }
  }
  return true;
}

Result<ItemId> ItemRef::GroundCompiled(const BindingFrame& frame) const {
  ItemId out;
  out.base = base;
  out.args.reserve(args.size());
  for (const Term& t : args) {
    HCM_ASSIGN_OR_RETURN(Value v, t.GroundCompiled(frame));
    out.args.push_back(std::move(v));
  }
  return out;
}

Result<ItemId> ItemRef::GroundByName(const BindingFrame& frame,
                                     const SlotMap& slots) const {
  ItemId out;
  out.base = base;
  out.args.reserve(args.size());
  for (const Term& t : args) {
    if (t.is_literal()) {
      out.args.push_back(t.literal());
      continue;
    }
    if (t.is_wildcard()) {
      return Status::FailedPrecondition(
          "wildcard cannot appear in an instantiated position");
    }
    int s = slots.Find(t.var_name());
    if (s < 0 || !frame.IsBound(static_cast<uint16_t>(s))) {
      return Status::FailedPrecondition("unbound variable: " + t.var_name());
    }
    out.args.push_back(frame.Get(static_cast<uint16_t>(s)));
  }
  return out;
}

Result<ItemId> ItemRef::Ground(const Binding& binding) const {
  ItemId out;
  out.base = base;
  out.args.reserve(args.size());
  for (const Term& t : args) {
    HCM_ASSIGN_OR_RETURN(Value v, t.Ground(binding));
    out.args.push_back(std::move(v));
  }
  return out;
}

bool ItemRef::is_ground() const {
  for (const Term& t : args) {
    if (!t.is_literal()) return false;
  }
  return true;
}

std::string ItemRef::ToString() const {
  if (args.empty()) return base;
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const Term& t : args) parts.push_back(t.ToString());
  return base + "(" + StrJoin(parts, ", ") + ")";
}

bool ItemRef::operator==(const ItemRef& other) const {
  return base == other.base && args == other.args;
}

}  // namespace hcm::rule
