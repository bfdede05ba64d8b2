#include "planner/strategy.h"

#include <algorithm>

#include "planner/baselines.h"

namespace dgcl {
namespace {

std::string JoinedNames() {
  std::string names;
  for (const std::string& n : PlannerNames()) {
    names += names.empty() ? n : ", " + n;
  }
  return names;
}

}  // namespace

std::vector<std::string> PlannerNames() { return {"p2p", "spst", "swap"}; }

Result<std::unique_ptr<Planner>> MakePlanner(const std::string& name,
                                             const PlannerOptions& options) {
  if (name == "p2p") {
    return std::unique_ptr<Planner>(new PeerToPeerPlanner());
  }
  if (name == "spst") {
    return std::unique_ptr<Planner>(new SpstPlanner(options.spst));
  }
  if (name == "swap") {
    return std::unique_ptr<Planner>(new SwapPlanner());
  }
  return Status::InvalidArgument("unknown planner strategy \"" + name +
                                 "\"; strategies: " + JoinedNames());
}

Status PlannerOptions::Validate() const {
  const std::vector<std::string> names = PlannerNames();
  if (IsAuto() || std::find(names.begin(), names.end(), strategy) != names.end()) {
    return Status::Ok();
  }
  const std::string problem =
      strategy.empty() ? "PlannerOptions::strategy is empty"
                       : "unknown planner strategy \"" + strategy + "\"";
  return Status::InvalidArgument(problem + "; strategies: " + JoinedNames() + ", or \"auto\"");
}

}  // namespace dgcl
