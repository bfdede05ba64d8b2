#include "topology/presets.h"

#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace dgcl {
namespace {

struct MachineConns {
  std::vector<ConnId> gpu_tx;  // per GPU: its PCIe lanes, GPU -> switch
  std::vector<ConnId> gpu_rx;  // per GPU: switch -> GPU
  std::vector<ConnId> sw_up_tx;   // per PCIe switch (2 GPUs each): switch -> CPU
  std::vector<ConnId> sw_up_rx;   // per PCIe switch: CPU -> switch
  ConnId qpi_fwd = kInvalidId;    // socket0 -> socket1
  ConnId qpi_rev = kInvalidId;
  std::vector<ConnId> nic_tx;     // per NIC: machine -> fabric
  std::vector<ConnId> nic_rx;
  // NVLink connection per (ordered GPU pair) within the machine.
  std::map<std::pair<uint32_t, uint32_t>, ConnId> nvlink;
  // NVSwitch fabric ports per GPU (empty unless config.nvswitch).
  std::vector<ConnId> nvswitch_up;    // GPU -> crossbar
  std::vector<ConnId> nvswitch_down;  // crossbar -> GPU
};

std::string Name(const std::string& prefix, uint32_t machine, const std::string& suffix) {
  return prefix + std::to_string(machine) + "." + suffix;
}

// Hybrid cube mesh NVLink pairs for up to 8 GPUs (local ids). Returns
// (a, b, is_nv2) unordered pairs that exist among the first `num_gpus` GPUs.
std::vector<std::tuple<uint32_t, uint32_t, bool>> NvLinkPairs(uint32_t num_gpus) {
  static constexpr struct {
    uint32_t a, b;
    bool nv2;
  } kPairs[] = {
      // quad 0 (fully connected; NV2 on the diagonals)
      {0, 1, false}, {0, 2, false}, {0, 3, true}, {1, 2, true}, {1, 3, false}, {2, 3, false},
      // quad 1
      {4, 5, false}, {4, 6, false}, {4, 7, true}, {5, 6, true}, {5, 7, false}, {6, 7, false},
      // cross-quad
      {0, 4, false}, {1, 5, false}, {2, 6, false}, {3, 7, false},
  };
  std::vector<std::tuple<uint32_t, uint32_t, bool>> out;
  for (const auto& p : kPairs) {
    if (p.a < num_gpus && p.b < num_gpus) {
      out.emplace_back(p.a, p.b, p.nv2);
    }
  }
  return out;
}

// Adds one machine's devices and connections; returns the connection handles.
MachineConns AddMachine(Topology& topo, uint32_t machine, const MachineConfig& config,
                        std::vector<DeviceId>& device_ids) {
  DGCL_CHECK_GE(config.num_gpus, 1u);
  DGCL_CHECK_LE(config.num_gpus, config.nvswitch ? 16u : 8u);
  MachineConns conns;
  // DGX-1: 4 GPUs per socket; DGX-2 (nvswitch): 8 per socket, up to 16 GPUs.
  const uint32_t gpus_per_socket = config.nvswitch ? 8 : 4;
  const uint32_t num_sockets = config.num_gpus > gpus_per_socket ? 2 : 1;
  // One PLX switch per GPU pair.
  const uint32_t num_switches = (config.num_gpus + 1) / 2;

  for (uint32_t g = 0; g < config.num_gpus; ++g) {
    const uint32_t socket = g / gpus_per_socket;
    Device dev;
    dev.name = "m";
    dev.name += std::to_string(machine);
    dev.name += ".gpu";
    dev.name += std::to_string(g);
    dev.machine = machine;
    dev.socket = socket;
    dev.pcie_switch = machine * 8 + g / 2;
    device_ids.push_back(topo.AddDevice(dev));
    conns.gpu_tx.push_back(topo.AddConnection(
        {Name("m", machine, "gpu" + std::to_string(g) + ".pcie.tx"), LinkType::kPcie, 0.0}));
    conns.gpu_rx.push_back(topo.AddConnection(
        {Name("m", machine, "gpu" + std::to_string(g) + ".pcie.rx"), LinkType::kPcie, 0.0}));
  }
  for (uint32_t s = 0; s < num_switches; ++s) {
    conns.sw_up_tx.push_back(topo.AddConnection(
        {Name("m", machine, "sw" + std::to_string(s) + ".up.tx"), LinkType::kPcie, 0.0}));
    conns.sw_up_rx.push_back(topo.AddConnection(
        {Name("m", machine, "sw" + std::to_string(s) + ".up.rx"), LinkType::kPcie, 0.0}));
  }
  if (num_sockets == 2) {
    conns.qpi_fwd = topo.AddConnection({Name("m", machine, "qpi.fwd"), LinkType::kQpi, 0.0});
    conns.qpi_rev = topo.AddConnection({Name("m", machine, "qpi.rev"), LinkType::kQpi, 0.0});
  }
  for (uint32_t n = 0; n < std::max(1u, config.nics_per_machine); ++n) {
    conns.nic_tx.push_back(topo.AddConnection(
        {Name("m", machine, "nic" + std::to_string(n) + ".tx"), config.nic, 0.0}));
    conns.nic_rx.push_back(topo.AddConnection(
        {Name("m", machine, "nic" + std::to_string(n) + ".rx"), config.nic, 0.0}));
  }

  if (config.nvswitch) {
    for (uint32_t g = 0; g < config.num_gpus; ++g) {
      conns.nvswitch_up.push_back(topo.AddConnection(
          {Name("m", machine, "nvsw.gpu" + std::to_string(g) + ".up"), LinkType::kNvLink2,
           0.0}));
      conns.nvswitch_down.push_back(topo.AddConnection(
          {Name("m", machine, "nvsw.gpu" + std::to_string(g) + ".down"), LinkType::kNvLink2,
           0.0}));
    }
  } else if (config.nvlink) {
    for (const auto& [a, b, nv2] : NvLinkPairs(config.num_gpus)) {
      LinkType type = nv2 ? LinkType::kNvLink2 : LinkType::kNvLink1;
      std::string base =
          Name("m", machine, "nv" + std::to_string(a) + "-" + std::to_string(b));
      conns.nvlink[{a, b}] = topo.AddConnection({base + ".fwd", type, 0.0});
      conns.nvlink[{b, a}] = topo.AddConnection({base + ".rev", type, 0.0});
    }
  }
  return conns;
}

// Adds the default route between two GPUs of the same machine.
void AddIntraMachineLink(Topology& topo, const MachineConns& conns,
                         std::span<const DeviceId> gpus, uint32_t i, uint32_t j) {
  std::vector<ConnId> hops;
  auto nv = conns.nvlink.find({i, j});
  if (!conns.nvswitch_up.empty()) {
    // NVSwitch crossbar: every pair is GPU -> switch -> GPU at NV2 speed.
    hops = {conns.nvswitch_up[i], conns.nvswitch_down[j]};
  } else if (nv != conns.nvlink.end()) {
    hops = {nv->second};
  } else {
    const Device& di = topo.device(gpus[i]);
    const Device& dj = topo.device(gpus[j]);
    const uint32_t sw_i = i / 2;
    const uint32_t sw_j = j / 2;
    if (sw_i == sw_j) {
      // Peer-to-peer inside one PCIe switch.
      hops = {conns.gpu_tx[i], conns.gpu_rx[j]};
    } else if (di.socket == dj.socket) {
      // Switch-to-switch through the host bridge of the socket.
      hops = {conns.gpu_tx[i], conns.sw_up_tx[sw_i], conns.sw_up_rx[sw_j], conns.gpu_rx[j]};
    } else {
      // PCIe - QPI - PCIe.
      ConnId qpi = di.socket < dj.socket ? conns.qpi_fwd : conns.qpi_rev;
      hops = {conns.gpu_tx[i], conns.sw_up_tx[sw_i], qpi, conns.sw_up_rx[sw_j],
              conns.gpu_rx[j]};
    }
  }
  auto link = topo.AddLink(gpus[i], gpus[j], std::move(hops));
  DGCL_CHECK(link.ok());
}

}  // namespace

Topology BuildSingleMachine(const MachineConfig& config) {
  return BuildCluster(1, config);
}

Topology BuildCluster(uint32_t num_machines, const MachineConfig& config) {
  DGCL_CHECK_GE(num_machines, 1u);
  Topology topo;
  std::vector<MachineConns> machine_conns;
  std::vector<std::vector<DeviceId>> machine_gpus(num_machines);
  for (uint32_t m = 0; m < num_machines; ++m) {
    machine_conns.push_back(AddMachine(topo, m, config, machine_gpus[m]));
  }
  // Intra-machine links.
  for (uint32_t m = 0; m < num_machines; ++m) {
    for (uint32_t i = 0; i < config.num_gpus; ++i) {
      for (uint32_t j = 0; j < config.num_gpus; ++j) {
        if (i != j) {
          AddIntraMachineLink(topo, machine_conns[m], machine_gpus[m], i, j);
        }
      }
    }
  }
  // Cross-machine links: GPU RDMA through the machine NICs (all GPUs of a
  // machine share its NIC, as in the paper's configuration).
  for (uint32_t ma = 0; ma < num_machines; ++ma) {
    for (uint32_t mb = 0; mb < num_machines; ++mb) {
      if (ma == mb) {
        continue;
      }
      const uint32_t nics = static_cast<uint32_t>(machine_conns[ma].nic_tx.size());
      for (uint32_t i = 0; i < config.num_gpus; ++i) {
        for (uint32_t j = 0; j < config.num_gpus; ++j) {
          // GPUs are sharded across the machine's NICs by contiguous groups
          // (a NIC serves the GPUs under its PCIe switch region).
          const uint32_t nic_i = i * nics / config.num_gpus;
          const uint32_t nic_j = j * nics / config.num_gpus;
          std::vector<ConnId> hops = {machine_conns[ma].gpu_tx[i],
                                      machine_conns[ma].nic_tx[nic_i],
                                      machine_conns[mb].nic_rx[nic_j],
                                      machine_conns[mb].gpu_rx[j]};
          auto link = topo.AddLink(machine_gpus[ma][i], machine_gpus[mb][j], std::move(hops));
          DGCL_CHECK(link.ok());
        }
      }
    }
  }
  return topo;
}

Topology BuildPaperTopology(uint32_t num_gpus, bool nvlink) {
  DGCL_CHECK_GE(num_gpus, 1u);
  DGCL_CHECK_LE(num_gpus, 16u);
  MachineConfig config;
  config.nvlink = nvlink;
  if (num_gpus <= 8) {
    config.num_gpus = num_gpus;
    return BuildSingleMachine(config);
  }
  DGCL_CHECK_EQ(num_gpus % 2, 0u);
  config.num_gpus = num_gpus / 2;
  return BuildCluster(2, config);
}

}  // namespace dgcl
