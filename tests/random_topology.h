// Shared randomized-workload generators for planner tests.
//
// Both the topology fuzz sweep and the planner property suite need arbitrary
// strongly-connected topologies with heterogeneous media and shared
// contention domains; keeping the generator in one place means every new
// planner invariant automatically runs against the same adversarial shapes.

#ifndef DGCL_TESTS_RANDOM_TOPOLOGY_H_
#define DGCL_TESTS_RANDOM_TOPOLOGY_H_

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "topology/topology.h"

namespace dgcl {

// `prefix` followed by `n` in decimal ("d3", "bus0").
inline std::string Numbered(const char* prefix, uint32_t n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

// "c<i>_<j>": the name of the direct connection from device i to device j.
inline std::string ConnName(uint32_t i, uint32_t j) {
  std::string name = Numbered("c", i);
  name += '_';
  name += std::to_string(j);
  return name;
}

// A random topology: a directed ring guarantees strong connectivity; random
// extra direct links with random media create shortcuts and contention.
// Connections get their medium's bandwidth, or with `bandwidth_ratio` > 1 a
// bandwidth drawn log-uniformly from [1, bandwidth_ratio] GB/s (the default
// draws nothing extra, so existing seeds keep their topologies).
// (void return so gtest ASSERTs can be used inside.)
inline void BuildRandomTopology(uint32_t devices, Rng& rng, Topology& topo,
                                double bandwidth_ratio = 1.0) {
  for (uint32_t d = 0; d < devices; ++d) {
    topo.AddDevice({Numbered("d", d), 0, d % 2, d / 2});
  }
  auto random_type = [&rng]() {
    constexpr LinkType kTypes[] = {LinkType::kNvLink2, LinkType::kNvLink1, LinkType::kPcie,
                                   LinkType::kQpi, LinkType::kInfiniBand, LinkType::kEthernet};
    return kTypes[rng.UniformInt(6)];
  };
  auto random_bandwidth = [&rng, bandwidth_ratio]() {
    return bandwidth_ratio > 1.0 ? std::pow(bandwidth_ratio, rng.UniformDouble()) : 0.0;
  };
  // Shared contention domains: a handful of "buses" some links pass through.
  std::vector<ConnId> buses;
  for (uint32_t b = 0; b < 3; ++b) {
    buses.push_back(topo.AddConnection({Numbered("bus", b), random_type(), random_bandwidth()}));
  }
  auto add_link = [&](uint32_t i, uint32_t j) {
    if (topo.LinkBetween(i, j) != kInvalidId) {
      return;
    }
    ConnId direct = topo.AddConnection({ConnName(i, j), random_type(), random_bandwidth()});
    std::vector<ConnId> hops = {direct};
    if (rng.UniformDouble() < 0.4) {
      hops.push_back(buses[rng.UniformInt(buses.size())]);  // multi-hop link
    }
    ASSERT_TRUE(topo.AddLink(i, j, std::move(hops)).ok());
  };
  for (uint32_t d = 0; d < devices; ++d) {
    add_link(d, (d + 1) % devices);
  }
  const uint32_t extra = devices * 2;
  for (uint32_t e = 0; e < extra; ++e) {
    uint32_t i = static_cast<uint32_t>(rng.UniformInt(devices));
    uint32_t j = static_cast<uint32_t>(rng.UniformInt(devices));
    if (i != j) {
      add_link(i, j);
    }
  }
}

// A random *fully connected* topology (every ordered pair gets a link, as
// DgclContext::Init requires): random media per direct connection, with a
// random subset of links additionally routed through shared buses for
// contention. Strictly richer than BuildRandomTopology's ring for fuzzing
// the full Init -> BuildCommInfo -> train -> recover pipeline.
inline void BuildRandomFullyConnectedTopology(uint32_t devices, Rng& rng, Topology& topo) {
  for (uint32_t d = 0; d < devices; ++d) {
    topo.AddDevice({Numbered("d", d), 0, d % 2, d / 2});
  }
  auto random_type = [&rng]() {
    constexpr LinkType kTypes[] = {LinkType::kNvLink2, LinkType::kNvLink1, LinkType::kPcie,
                                   LinkType::kQpi, LinkType::kInfiniBand, LinkType::kEthernet};
    return kTypes[rng.UniformInt(6)];
  };
  std::vector<ConnId> buses;
  for (uint32_t b = 0; b < 3; ++b) {
    buses.push_back(topo.AddConnection({Numbered("bus", b), random_type(), 0.0}));
  }
  for (uint32_t i = 0; i < devices; ++i) {
    for (uint32_t j = 0; j < devices; ++j) {
      if (i == j) {
        continue;
      }
      ConnId direct = topo.AddConnection(
          {ConnName(i, j), random_type(), 0.0});
      std::vector<ConnId> hops = {direct};
      if (rng.UniformDouble() < 0.4) {
        hops.push_back(buses[rng.UniformInt(buses.size())]);
      }
      ASSERT_TRUE(topo.AddLink(i, j, std::move(hops)).ok());
    }
  }
}

}  // namespace dgcl

#endif  // DGCL_TESTS_RANDOM_TOPOLOGY_H_
