#include "planner/registry.h"

#include <set>
#include <utility>

#include "planner/baselines.h"

namespace dgcl {

Status PlannerOptions::Validate() const {
  if (IsAuto() || PlannerRegistry::Global().Contains(strategy)) {
    return Status::Ok();
  }
  std::string names;
  for (const std::string& n : PlannerRegistry::Global().Names()) {
    names += names.empty() ? n : ", " + n;
  }
  const std::string problem =
      strategy.empty() ? "PlannerOptions::strategy is empty"
                       : "unknown planner strategy \"" + strategy + "\"";
  return Status::InvalidArgument(problem + "; registered strategies: " + names +
                                 ", or \"auto\"");
}

PlannerRegistry& PlannerRegistry::Global() {
  static PlannerRegistry* registry = [] {
    auto* r = new PlannerRegistry();
    auto must = [r](const std::string& name, PlannerFactory factory) {
      Status s = r->Register(name, std::move(factory));
      (void)s;
    };
    must("spst", [](const PlannerOptions& o) -> std::unique_ptr<Planner> {
      return std::make_unique<SpstPlanner>(o.spst);
    });
    must("p2p", [](const PlannerOptions&) -> std::unique_ptr<Planner> {
      return std::make_unique<PeerToPeerPlanner>();
    });
    must("ring", [](const PlannerOptions&) -> std::unique_ptr<Planner> {
      return std::make_unique<RingPlanner>();
    });
    must("swap", [](const PlannerOptions&) -> std::unique_ptr<Planner> {
      return std::make_unique<SwapPlanner>();
    });
    return r;
  }();
  return *registry;
}

Status PlannerRegistry::Register(const std::string& name, PlannerFactory factory) {
  if (name.empty() || name == "auto") {
    return Status::InvalidArgument("planner name must be non-empty and not \"auto\"");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("planner factory must not be null");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = factories_.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("planner \"" + name + "\" already registered");
  }
  return Status::Ok();
}

bool PlannerRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

Result<std::unique_ptr<Planner>> PlannerRegistry::Create(const std::string& name,
                                                         const PlannerOptions& options) const {
  PlannerFactory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string names;
      for (const auto& [n, f] : factories_) {
        names += names.empty() ? n : ", " + n;
      }
      return Status::NotFound("planner \"" + name + "\" not registered (have: " + names + ")");
    }
    factory = it->second;
  }
  std::unique_ptr<Planner> planner = factory(options);
  if (planner == nullptr) {
    return Status::Internal("planner factory for \"" + name + "\" returned null");
  }
  return planner;
}

std::vector<std::string> PlannerRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    names.push_back(name);
  }
  return names;
}

const char* PlannerRegistry::InternedName(const std::string& s) {
  static std::mutex intern_mutex;
  static std::set<std::string>* interned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(intern_mutex);
  return interned->insert(s).first->c_str();
}

}  // namespace dgcl
