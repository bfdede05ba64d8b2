// Communication plans: per-vertex strategies and their union (§5.1).
//
// The feasible strategy for a vertex u is a tree in the topology rooted at
// the source device s_u and containing every destination in D_u. A plan is
// the union of one tree per vertex; transfers are staged — an edge at tree
// depth k executes in stage k (0-based here; the paper counts from 1).

#ifndef DGCL_COMM_PLAN_H_
#define DGCL_COMM_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "comm/relation.h"
#include "common/status.h"
#include "topology/topology.h"

namespace dgcl {

struct TreeEdge {
  LinkId link = kInvalidId;
  uint32_t stage = 0;  // == depth of the edge's child in the tree
};

// One vertex's communication strategy.
struct CommTree {
  VertexId vertex = 0;
  std::vector<TreeEdge> edges;  // ordered so a parent edge precedes children

  uint32_t MaxStage() const;
};

struct CommPlan {
  uint32_t num_devices = 0;
  std::vector<CommTree> trees;  // one per vertex with destinations

  uint32_t NumStages() const;
};

// One tree shared by a contiguous chunk of an equivalence class: it covers
// classes[class_id].vertices[first, first + count) and every edge carries
// `count` vertex units. A class larger than the planner's chunk bound is
// split into several ClassTrees whose ranges partition the vertex list.
struct ClassTree {
  uint32_t class_id = 0;
  uint32_t first = 0;
  uint32_t count = 0;
  std::vector<TreeEdge> edges;  // ordered so a parent edge precedes children

  uint32_t MaxStage() const;
};

// A plan over destination-set equivalence classes (batched SPST). The
// runtime never sees this form: set-up compiles it once, straight into the
// send/recv tables (CompilePlan(ClassPlan, ...)). Expanding it to the
// per-vertex CommPlan gives the reference form that tests, the simulator
// and dgcl_plan compare against.
struct ClassPlan {
  uint32_t num_devices = 0;
  std::vector<ClassTree> trees;

  // t(S) under the planner's cost model, as accounted while planning.
  // Replaying the trees through a fresh CostModel (ReplayClassPlanCost)
  // reproduces this bit-for-bit — a planner accounting invariant the
  // property tests rely on. 0 when the plan is empty.
  double planned_cost_seconds = 0.0;

  // Provenance: the name of the strategy that produced this plan
  // ("spst", "p2p", ...). Carried through CompilePlan and plan_io so a saved
  // plan records how it was made; empty means unknown/legacy.
  std::string planner_name;

  uint32_t NumStages() const;
};

// Expands class trees into the per-vertex plan: every vertex of a chunk gets
// a copy of the chunk's tree. Trees come out ordered by vertex id.
CommPlan ExpandClassPlan(const ClassPlan& plan, const CommClasses& classes);

// Verifies the plan against the relation and topology:
//  * every tree's edges form a connected tree rooted at source(u), with edge
//    stages equal to child depth and each device entered at most once;
//  * every destination of u appears in the tree;
//  * every edge refers to an existing topology link.
Status ValidatePlan(const CommPlan& plan, const CommRelation& relation, const Topology& topo);

// Aggregate per-(stage, connection) traffic of a plan, in vertex units.
// result[stage][conn] = number of vertex embeddings crossing `conn` there.
std::vector<std::vector<uint64_t>> PlanHopLoads(const CommPlan& plan, const Topology& topo);

// Total (vertex, link-hop) traversals: the plan's raw traffic volume.
uint64_t PlanTotalTraffic(const CommPlan& plan);

std::string PlanSummary(const CommPlan& plan, const Topology& topo);

}  // namespace dgcl

#endif  // DGCL_COMM_PLAN_H_
