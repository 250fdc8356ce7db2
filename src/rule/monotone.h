#ifndef HCM_RULE_MONOTONE_H_
#define HCM_RULE_MONOTONE_H_

#include <functional>
#include <string>

#include "src/rule/rule.h"

namespace hcm::rule {

// Static monotonicity classification for constraint-management rules.
//
// The CALM theorem says programs with coordination-free, consistent
// distributed executions are exactly the monotone ones: once an output is
// derivable it stays derivable, so no participant ever has to wait for "all
// the facts" before acting. For the toolkit's rule language we apply a
// deliberately conservative syntactic criterion — a rule is classified
// monotone only when every effect of a firing is an unconditional
// accumulation into CM-private state:
//
//   1. The LHS is a plain notify subscription, N(item, v): it observes a
//      stream of facts and never retracts one. Guarded LHSs (a C(...)
//      condition) and request/periodic heads can encode non-monotone tests
//      (negation, timeouts), so they are rejected.
//   2. Every RHS step is unconditional — a step condition reads mutable
//      state, and its outcome could flip depending on when the fire is
//      delivered.
//   3. Every RHS step is a W(...) on a CM-private item (the caller supplies
//      the predicate, normally ItemRegistry::IsPrivate): private writes
//      execute inside the destination shell, are never matched against
//      further rules, and touch no external database — so a fire's effect
//      set is fixed at emission time and insensitive to interleaving with
//      other sites' windows. WR/RR/DEL steps reach raw sources whose
//      replies feed back into matching; they are rejected.
//
// Messages fired by a rule passing this test may skip the parallel
// engine's window clamp (sim::ParallelExecutor::PostElidableAt): delivering the
// fire earlier or later relative to other lanes' windows changes neither
// which facts it derives nor their recorded timestamps, because per-channel
// FIFO order still holds and each binding's update chain has a single
// writer. The elision-equivalence suite checks the resulting traces stay
// byte-identical to the fully clamped schedule.
struct MonotonicityVerdict {
  bool monotone = false;
  // Why classification failed (empty when monotone) — surfaced in docs
  // and tests so the conservative rejections stay explainable.
  std::string reason;
};

// Predicate: is `base` a CM-private item? Normally bound to
// toolkit::ItemRegistry::IsPrivate at installation time, after the
// strategy's private items have been pre-registered.
using PrivateItemPredicate = std::function<bool(const std::string& base)>;

MonotonicityVerdict ClassifyMonotone(const Rule& rule,
                                     const PrivateItemPredicate& is_private);

}  // namespace hcm::rule

#endif  // HCM_RULE_MONOTONE_H_
