#ifndef HCM_RULE_ITEM_H_
#define HCM_RULE_ITEM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/symbols.h"
#include "src/common/value.h"
#include "src/rule/binding.h"

namespace hcm::rule {

// A variable binding environment: parameter name -> ground Value. Produced
// by matching an event against an event template (the paper's "matching
// interpretation" mi(E, calE)) and consumed when instantiating right-hand
// sides and evaluating conditions. This is the reference representation;
// the compiled hot path uses BindingFrame (src/rule/binding.h) instead.
using Binding = std::map<std::string, Value>;

// A term appearing in a template argument position: a ground literal, a
// named variable (the paper's lower-case parameters), or the anonymous
// wildcard '*'.
class Term {
 public:
  static Term Lit(Value v);
  static Term Var(std::string name);
  static Term Wildcard();

  bool is_literal() const { return kind_ == Kind::kLiteral; }
  bool is_variable() const { return kind_ == Kind::kVariable; }
  bool is_wildcard() const { return kind_ == Kind::kWildcard; }

  const Value& literal() const { return literal_; }
  const std::string& var_name() const { return var_name_; }

  // Unifies this term with a ground value under `binding`:
  //  - literal: equality check;
  //  - wildcard: always matches;
  //  - variable: matches if unbound (binds it) or bound to an equal value.
  bool Unify(const Value& value, Binding* binding) const;

  // Instantiates to a ground value: literals return themselves; variables
  // look up the binding (error when unbound); wildcard is an error.
  Result<Value> Ground(const Binding& binding) const;

  // Resolves a variable term's name to a slot in `slots` (no-op for
  // literals and wildcards). Precondition for the *Compiled methods.
  void Compile(SlotMap* slots);

  // Slot-indexed equivalents of Unify/Ground, byte-identical semantics.
  bool UnifyCompiled(const Value& value, BindingFrame* frame) const;
  Result<Value> GroundCompiled(const BindingFrame& frame) const;

  std::string ToString() const;
  bool operator==(const Term& other) const;

 private:
  enum class Kind { kLiteral, kVariable, kWildcard };
  Kind kind_ = Kind::kWildcard;
  Value literal_;
  std::string var_name_;
  int32_t slot_ = -1;  // set by Compile for variable terms
};

// The ground identity of a data item at run time: a base name plus ground
// arguments, e.g. salary1(17) or Flag (no arguments).
struct ItemId {
  std::string base;
  std::vector<Value> args;

  // "salary1(17)", "Flag".
  std::string ToString() const;
  bool operator==(const ItemId& other) const;
  bool operator!=(const ItemId& other) const { return !(*this == other); }
  bool operator<(const ItemId& other) const;

  // Hash compatible with operator== (args hash through Value::Hash, so
  // Int 3 and Real 3.0 collide exactly where they compare equal).
  size_t Hash() const;
};

struct ItemIdHash {
  size_t operator()(const ItemId& item) const { return item.Hash(); }
};

// A possibly-parameterized reference to a data item as written in rules:
// base name plus argument terms, e.g. salary1(n) or phone(n) or Cx.
struct ItemRef {
  std::string base;
  std::vector<Term> args;
  // Interned base id, set by Compile. Not part of the ref's identity
  // (operator== and ToString ignore it).
  uint32_t base_sym = kNoSymbol;

  // Unifies with a ground item (same base, arg-wise term unification).
  bool Unify(const ItemId& item, Binding* binding) const;

  // Instantiates to a ground ItemId under the binding.
  Result<ItemId> Ground(const Binding& binding) const;

  // Interns the base name and compiles argument terms.
  void Compile(SlotMap* slots);

  // Slot-indexed Unify; `item_base_sym` is the event's interned base (or
  // kNoSymbol to force a string compare). Leaves `frame` unchanged on
  // failure, exactly like Unify.
  bool UnifyCompiled(const ItemId& item, uint32_t item_base_sym,
                     BindingFrame* frame) const;

  // Slot-indexed Ground.
  Result<ItemId> GroundCompiled(const BindingFrame& frame) const;

  // Ground through `frame` without this ref's compiled slots: variables
  // resolve by name through `slots`. For refs inside condition Expr trees,
  // which are shared between rule copies and never compiled.
  Result<ItemId> GroundByName(const BindingFrame& frame,
                              const SlotMap& slots) const;

  // True when all args are literals.
  bool is_ground() const;

  std::string ToString() const;
  bool operator==(const ItemRef& other) const;
};

}  // namespace hcm::rule

#endif  // HCM_RULE_ITEM_H_
