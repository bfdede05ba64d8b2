#include "graph/graph_io.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace dgcl {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return (std::filesystem::temp_directory_path() / ("dgcl_io_" + name)).string();
  }

  void TearDown() override {
    for (const std::string& path : created_) {
      std::remove(path.c_str());
    }
  }

  std::string Create(const std::string& name, const std::string& content) {
    std::string path = TempPath(name);
    std::ofstream(path) << content;
    created_.push_back(path);
    return path;
  }

  std::string Track(const std::string& name) {
    std::string path = TempPath(name);
    created_.push_back(path);
    return path;
  }

  std::vector<std::string> created_;
};

TEST_F(GraphIoTest, LoadsSnapStyleEdgeList) {
  std::string path = Create("snap.txt",
                            "# Directed graph\n"
                            "# Nodes: 4 Edges: 3\n"
                            "0\t1\n"
                            "1 2\n"
                            "\n"
                            "2 3   # trailing comment\n");
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 4u);
  EXPECT_EQ(g->num_edges(), 6u);  // symmetrized path
}

TEST_F(GraphIoTest, CompactIdsRenumberSparseIds) {
  std::string path = Create("sparse.txt", "1000000 2000000\n2000000 3000000\n");
  auto g = LoadEdgeList(path, true, /*compact_ids=*/true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 4u);
}

TEST_F(GraphIoTest, RejectsMalformedLine) {
  std::string path = Create("bad.txt", "0 1\n2\n");
  EXPECT_FALSE(LoadEdgeList(path).ok());
}

TEST_F(GraphIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadEdgeList("/nonexistent/graph.txt").status().code(), StatusCode::kNotFound);
}

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  Rng rng(3);
  CsrGraph g = GenerateErdosRenyi(60, 150, rng);
  std::string path = Track("roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->targets(), g.targets());
  EXPECT_EQ(loaded->offsets(), g.offsets());
}

TEST_F(GraphIoTest, BinaryRoundTripIsExact) {
  Rng rng(5);
  CsrGraph g = GenerateRmat({.scale = 9, .num_edges = 2000}, rng);
  std::string path = Track("roundtrip.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->offsets(), g.offsets());
  EXPECT_EQ(loaded->targets(), g.targets());
}

TEST_F(GraphIoTest, BinaryRejectsWrongMagic) {
  std::string path = Create("garbage.bin", "THIS IS NOT A GRAPH FILE AT ALL");
  EXPECT_EQ(LoadBinary(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  Rng rng(7);
  CsrGraph g = GenerateErdosRenyi(50, 120, rng);
  std::string path = Track("trunc.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(LoadBinary(path).ok());
}

// A binary graph header (magic, n, m) followed by `tail`.
std::string CraftedBinaryGraph(uint64_t n, uint64_t m, const std::string& tail) {
  const char magic[8] = {'D', 'G', 'C', 'L', 'G', '1', 0, 0};
  std::string bytes(magic, sizeof(magic));
  bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  bytes.append(reinterpret_cast<const char*>(&m), sizeof(m));
  return bytes + tail;
}

TEST_F(GraphIoTest, BinaryRejectsVertexCountBeyondFileSize) {
  std::string path = Create("huge_n.bin", CraftedBinaryGraph(0xFFFFFFFFull, 0, ""));
  auto loaded = LoadBinary(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("vertex count"), std::string::npos);
}

TEST_F(GraphIoTest, BinaryRejectsEdgeCountBeyondFileSize) {
  // n = 1 with its two offsets present, but m = 2^60 edges claimed.
  const uint64_t offsets[2] = {0, 0};
  std::string path =
      Create("huge_m.bin", CraftedBinaryGraph(1, uint64_t{1} << 60,
                                              std::string(reinterpret_cast<const char*>(offsets),
                                                          sizeof(offsets))));
  auto loaded = LoadBinary(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("edge count"), std::string::npos);
}

TEST_F(GraphIoTest, EmptyGraphRoundTrips) {
  auto g = CsrGraph::FromEdges(0, {}, true);
  ASSERT_TRUE(g.ok());
  std::string path = Track("empty.bin");
  ASSERT_TRUE(SaveBinary(*g, path).ok());
  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), 0u);
}

}  // namespace
}  // namespace dgcl
