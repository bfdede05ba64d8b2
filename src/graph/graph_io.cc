#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/bytes_left.h"

namespace dgcl {
namespace {

constexpr char kBinaryMagic[8] = {'D', 'G', 'C', 'L', 'G', '1', 0, 0};

}  // namespace

Result<CsrGraph> LoadEdgeList(const std::string& path, bool symmetrize, bool compact_ids) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  std::vector<Edge> edges;
  std::unordered_map<uint64_t, VertexId> remap;
  VertexId max_id = 0;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments and blank lines.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    uint64_t raw_src = 0;
    uint64_t raw_dst = 0;
    if (!(fields >> raw_src)) {
      continue;  // blank or comment-only line
    }
    if (!(fields >> raw_dst)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": expected 'src dst'");
    }
    VertexId src;
    VertexId dst;
    if (compact_ids) {
      src = remap.try_emplace(raw_src, static_cast<VertexId>(remap.size())).first->second;
      dst = remap.try_emplace(raw_dst, static_cast<VertexId>(remap.size())).first->second;
    } else {
      if (raw_src > 0xFFFFFFFEull || raw_dst > 0xFFFFFFFEull) {
        return Status::OutOfRange(path + ":" + std::to_string(line_number) +
                                  ": vertex id exceeds 32 bits (use compact_ids)");
      }
      src = static_cast<VertexId>(raw_src);
      dst = static_cast<VertexId>(raw_dst);
    }
    max_id = std::max({max_id, src, dst});
    edges.push_back(Edge{src, dst});
  }
  const VertexId num_vertices =
      compact_ids ? static_cast<VertexId>(remap.size()) : (edges.empty() ? 0 : max_id + 1);
  return CsrGraph::FromEdges(num_vertices, std::move(edges), symmetrize);
}

Status SaveEdgeList(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << "# DGCL edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() / 2 << " undirected edges\n";
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (VertexId u : graph.Neighbors(v)) {
      if (v < u) {
        out << v << " " << u << "\n";
      }
    }
  }
  return out.good() ? Status::Ok() : Status::Internal("write failed: " + path);
}

Status SaveBinary(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  const uint64_t n = graph.num_vertices();
  const uint64_t m = graph.num_edges();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(graph.offsets().data()),
            static_cast<std::streamsize>((n + 1) * sizeof(EdgeIndex)));
  out.write(reinterpret_cast<const char*>(graph.targets().data()),
            static_cast<std::streamsize>(m * sizeof(VertexId)));
  return out.good() ? Status::Ok() : Status::Internal("write failed: " + path);
}

Result<CsrGraph> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  char magic[sizeof(kBinaryMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(path + " is not a DGCL binary graph");
  }
  uint64_t n = 0;
  uint64_t m = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in || n > 0xFFFFFFFFull) {
    return Status::InvalidArgument(path + ": corrupt header");
  }
  const uint64_t left = BytesLeft(in);
  if (n + 1 > left / sizeof(EdgeIndex)) {
    return Status::InvalidArgument(path + ": vertex count " + std::to_string(n) +
                                   " exceeds the file size");
  }
  if (m > (left - (n + 1) * sizeof(EdgeIndex)) / sizeof(VertexId)) {
    return Status::InvalidArgument(path + ": edge count " + std::to_string(m) +
                                   " exceeds the file size");
  }
  std::vector<EdgeIndex> offsets(n + 1);
  std::vector<VertexId> targets(m);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>((n + 1) * sizeof(EdgeIndex)));
  in.read(reinterpret_cast<char*>(targets.data()),
          static_cast<std::streamsize>(m * sizeof(VertexId)));
  if (!in) {
    return Status::InvalidArgument(path + ": truncated payload");
  }
  if (offsets.front() != 0 || offsets.back() != m) {
    return Status::InvalidArgument(path + ": inconsistent offsets");
  }
  // Rebuild through the validated constructor path to keep invariants.
  std::vector<Edge> edges;
  edges.reserve(m);
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Status::InvalidArgument(path + ": non-monotonic offsets");
    }
    for (EdgeIndex e = offsets[v]; e < offsets[v + 1]; ++e) {
      edges.push_back(Edge{v, targets[e]});
    }
  }
  return CsrGraph::FromEdges(static_cast<VertexId>(n), std::move(edges),
                             /*symmetrize=*/false);
}

}  // namespace dgcl
