#include "planner/baselines.h"

#include <bit>

#include "planner/per_class.h"

namespace dgcl {

Result<ClassPlan> PeerToPeerPlanner::PlanClasses(const CommClasses& classes,
                                                 const Topology& topo, double bytes_per_unit) {
  return internal::PlanEachClass(
      classes, topo, bytes_per_unit, name(),
      [&topo](const CommClass& cls, ClassTree& tree) {
        DeviceMask mask = cls.mask;
        while (mask != 0) {
          uint32_t d = static_cast<uint32_t>(std::countr_zero(mask));
          mask &= mask - 1;
          LinkId link = topo.LinkBetween(cls.source, d);
          if (link == kInvalidId) {
            return Status::FailedPrecondition("no direct link for peer-to-peer transfer");
          }
          tree.edges.push_back(TreeEdge{link, 0});
        }
        return Status::Ok();
      });
}

Result<ClassPlan> SwapPlanner::PlanClasses(const CommClasses& classes, const Topology& topo,
                                           double bytes_per_unit) {
  return internal::PlanEachClass(
      classes, topo, bytes_per_unit, name(),
      [&topo](const CommClass& cls, ClassTree& tree) {
        // The staging hub: the lowest device id sharing the source's
        // (machine, socket) — the stand-in for the socket's host staging
        // buffer. All of the class's traffic goes source -> hub once, then
        // hub -> destination per destination, mirroring how swap funnels
        // every embedding through CPU memory.
        const Device& src_dev = topo.device(cls.source);
        uint32_t hub = cls.source;
        for (uint32_t d = 0; d < topo.num_devices(); ++d) {
          const Device& dev = topo.device(d);
          if (dev.machine == src_dev.machine && dev.socket == src_dev.socket) {
            hub = d;
            break;
          }
        }
        uint32_t hub_depth = 0;
        DeviceMask mask = cls.mask;
        if (hub != cls.source) {
          LinkId to_hub = topo.LinkBetween(cls.source, hub);
          if (to_hub == kInvalidId) {
            return Status::FailedPrecondition("no link to swap staging hub");
          }
          tree.edges.push_back(TreeEdge{to_hub, 0});
          hub_depth = 1;
          mask &= ~(DeviceMask{1} << hub);  // delivered by the staging hop
        }
        while (mask != 0) {
          uint32_t d = static_cast<uint32_t>(std::countr_zero(mask));
          mask &= mask - 1;
          LinkId link = topo.LinkBetween(hub, d);
          if (link == kInvalidId) {
            return Status::FailedPrecondition("no link from swap staging hub");
          }
          tree.edges.push_back(TreeEdge{link, hub_depth});
        }
        return Status::Ok();
      });
}

}  // namespace dgcl
