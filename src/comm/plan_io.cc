#include "comm/plan_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "common/bytes_left.h"

namespace dgcl {
namespace {

constexpr char kMagic[8] = {'D', 'G', 'C', 'L', 'P', '1', 0, 0};

// Optional trailer after the op table carrying the plan's planner provenance.
// It is written only for non-default strategies, so plan files produced by
// the default SPST planner are byte-identical to the pre-trailer format (the
// golden corpus stays valid); a file without a trailer loads as "spst".
constexpr char kPlannerTrailerMagic[4] = {'P', 'L', 'N', 'R'};

struct Header {
  char magic[8];
  uint32_t num_devices = 0;
  uint32_t num_links = 0;        // topology fingerprint
  uint32_t num_connections = 0;  // topology fingerprint
  uint32_t num_stages = 0;
  uint64_t num_ops = 0;
};

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveCompiledPlan(const CompiledPlan& plan, const Topology& topo,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.num_devices = plan.num_devices;
  header.num_links = topo.num_links();
  header.num_connections = topo.num_connections();
  header.num_stages = plan.num_stages;
  header.num_ops = plan.ops.size();
  WritePod(out, header);
  for (const TransferOp& op : plan.ops) {
    WritePod(out, op.link);
    WritePod(out, op.stage);
    WritePod(out, op.substage);
    WritePod(out, static_cast<uint64_t>(op.vertices.size()));
    out.write(reinterpret_cast<const char*>(op.vertices.data()),
              static_cast<std::streamsize>(op.vertices.size() * sizeof(VertexId)));
  }
  if (!plan.planner_name.empty() && plan.planner_name != "spst") {
    out.write(kPlannerTrailerMagic, sizeof(kPlannerTrailerMagic));
    WritePod(out, static_cast<uint32_t>(plan.planner_name.size()));
    out.write(plan.planner_name.data(),
              static_cast<std::streamsize>(plan.planner_name.size()));
  }
  return out.good() ? Status::Ok() : Status::Internal("write failed: " + path);
}

Result<CompiledPlan> LoadCompiledPlan(const Topology& topo, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  Header header;
  if (!ReadPod(in, header) || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a DGCL plan file");
  }
  if (header.num_devices != topo.num_devices() || header.num_links != topo.num_links() ||
      header.num_connections != topo.num_connections()) {
    return Status::FailedPrecondition(path + ": plan was built for a different topology");
  }
  CompiledPlan plan;
  plan.num_devices = header.num_devices;
  plan.num_stages = header.num_stages;
  // Smallest possible op record: link, stage, substage, vertex count.
  constexpr uint64_t kOpHeaderBytes =
      sizeof(LinkId) + sizeof(uint32_t) + sizeof(uint32_t) + sizeof(uint64_t);
  if (header.num_ops > BytesLeft(in) / kOpHeaderBytes) {
    return Status::InvalidArgument(path + ": op count " + std::to_string(header.num_ops) +
                                   " exceeds the file size");
  }
  plan.ops.reserve(header.num_ops);
  for (uint64_t i = 0; i < header.num_ops; ++i) {
    TransferOp op;
    uint64_t count = 0;
    if (!ReadPod(in, op.link) || !ReadPod(in, op.stage) || !ReadPod(in, op.substage) ||
        !ReadPod(in, count)) {
      return Status::InvalidArgument(path + ": truncated op header");
    }
    if (op.link >= topo.num_links() || op.stage >= header.num_stages) {
      return Status::InvalidArgument(path + ": op references invalid link/stage");
    }
    op.src = topo.link(op.link).src;
    op.dst = topo.link(op.link).dst;
    if (count > BytesLeft(in) / sizeof(VertexId)) {
      return Status::InvalidArgument(path + ": op vertex count " + std::to_string(count) +
                                     " exceeds the file size");
    }
    op.vertices.resize(count);
    in.read(reinterpret_cast<char*>(op.vertices.data()),
            static_cast<std::streamsize>(count * sizeof(VertexId)));
    if (!in) {
      return Status::InvalidArgument(path + ": truncated vertex table");
    }
    plan.ops.push_back(std::move(op));
  }
  // num_stages sizes every per-stage table downstream (ValidateCompiledPlan,
  // AllgatherEngine::Create), so it must be what the ops imply, as
  // CommPlan::NumStages defines it: the largest op stage + 1, 0 without ops.
  uint32_t op_stages = 0;
  for (const TransferOp& op : plan.ops) {
    op_stages = std::max(op_stages, op.stage + 1);  // op.stage < num_stages: no overflow
  }
  if (op_stages != header.num_stages) {
    return Status::InvalidArgument(path + ": header stage count " +
                                   std::to_string(header.num_stages) + " != " +
                                   std::to_string(op_stages) + " stages used by the ops");
  }
  plan.planner_name = "spst";  // trailer-less files predate provenance
  char trailer_magic[4];
  if (in.read(trailer_magic, sizeof(trailer_magic)) &&
      std::memcmp(trailer_magic, kPlannerTrailerMagic, sizeof(kPlannerTrailerMagic)) == 0) {
    uint32_t len = 0;
    if (!ReadPod(in, len) || len > 256) {
      return Status::InvalidArgument(path + ": corrupt planner trailer");
    }
    std::string name(len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(len));
    if (!in) {
      return Status::InvalidArgument(path + ": truncated planner trailer");
    }
    plan.planner_name = std::move(name);
  }
  plan.ops_by_src.resize(plan.num_devices);
  plan.ops_by_dst.resize(plan.num_devices);
  for (uint32_t i = 0; i < plan.ops.size(); ++i) {
    plan.ops_by_src[plan.ops[i].src].push_back(i);
    plan.ops_by_dst[plan.ops[i].dst].push_back(i);
  }
  return plan;
}

}  // namespace dgcl
