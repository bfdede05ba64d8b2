// Planner strategy registry: the strategy is data, not code.
//
// Every communication-planning algorithm is registered by name in the
// process-wide PlannerRegistry; callers pick one with
// PlannerOptions::strategy ("spst", "p2p", "swap", "ring", or "auto" for
// cost-model-driven selection — see
// sim/planner_select.h) instead of instantiating a concrete planner class.
// DgclContext::BuildCommInfo, Recover and tools/dgcl_plan all resolve
// strategies through this registry, so a new planner becomes available to
// the whole pipeline by registering one factory.
//
// The registry is populated with the built-in strategies on first use;
// additional strategies can be registered at runtime (names are interned so
// telemetry counter labels derived from them have static lifetime).

#ifndef DGCL_PLANNER_REGISTRY_H_
#define DGCL_PLANNER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "planner/planner.h"
#include "planner/spst.h"

namespace dgcl {

// The strategy selection block of DgclOptions (and of any front end that
// plans — tools/dgcl_plan takes the same struct). `strategy` names a
// registered planner, or "auto" to plan with every registered strategy and
// commit the cost-model winner (sim/planner_select.h records the
// per-candidate scores as a SelectionReport).
struct PlannerOptions {
  std::string strategy = "spst";
  SpstOptions spst;  // consumed by the "spst" strategy

  bool IsAuto() const { return strategy == "auto"; }

  // Rejects empty/unknown strategy names with an actionable message that
  // lists the registered strategies; called by DgclOptions::Validate at Init
  // so a bad config never reaches the planning pipeline.
  Status Validate() const;
};

using PlannerFactory = std::function<std::unique_ptr<Planner>(const PlannerOptions&)>;

class PlannerRegistry {
 public:
  // The process-wide registry, pre-populated with the built-in strategies:
  // p2p, ring, spst, swap.
  static PlannerRegistry& Global();

  // Fails with kInvalidArgument on duplicate, empty or reserved ("auto")
  // names.
  Status Register(const std::string& name, PlannerFactory factory);

  bool Contains(const std::string& name) const;

  // Instantiates the named strategy.
  Result<std::unique_ptr<Planner>> Create(const std::string& name,
                                          const PlannerOptions& options) const;

  // Registered strategy names, ascending. "auto" is not listed — it is a
  // selection mode over these, not a strategy.
  std::vector<std::string> Names() const;

  // A static-lifetime copy of `s` (interned, never freed) — for telemetry
  // event names derived from runtime strategy names, which the lock-free
  // trace ring stores as raw pointers.
  static const char* InternedName(const std::string& s);

 private:
  PlannerRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, PlannerFactory> factories_;
};

}  // namespace dgcl

#endif  // DGCL_PLANNER_REGISTRY_H_
