#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(IO, RoundTripRandomGraph) {
  Rng rng(1);
  EdgeList original = gnp(100, 0.1, rng);
  const std::string path = temp_path("roundtrip.txt");
  write_edge_list(original, path);
  EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  original.sort();
  loaded.sort();
  for (std::size_t i = 0; i < loaded.num_edges(); ++i) {
    EXPECT_EQ(loaded[i], original[i]);
  }
  std::remove(path.c_str());
}

TEST(IO, RoundTripEmptyGraph) {
  const std::string path = temp_path("empty.txt");
  write_edge_list(EdgeList(7), path);
  const EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), 7u);
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(IO, CommentsAreSkipped) {
  const std::string path = temp_path("comments.txt");
  {
    std::ofstream out(path);
    out << "# a comment\n3 2\n# another\n0 1\n1 2\n";
  }
  const EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), 3u);
  EXPECT_EQ(loaded.num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(IODeathTest, MissingFileAborts) {
  EXPECT_DEATH(read_edge_list("/nonexistent/definitely/not/here.txt"),
               "edge list /nonexistent/definitely/not/here.txt:0: cannot "
               "open for reading");
}

/// Writes `contents` to a temp file and expects read_edge_list to die
/// through the reader's io_fail funnel with `message` (a regex matched
/// after the "edge list <path>:" prefix).
void expect_read_dies(const char* name, const char* contents,
                      const std::string& message) {
  const std::string path = temp_path(name);
  {
    std::ofstream out(path);
    out << contents;
  }
  EXPECT_DEATH(read_edge_list(path), "edge list .*" + std::string(name) +
                                         ":" + message)
      << contents;
  std::remove(path.c_str());
}

TEST(IODeathTest, TruncatedFileAborts) {
  // Promises 2 edges, provides 1.
  expect_read_dies("truncated.txt", "3 2\n0 1\n",
                   "2: file ends after 1 of 2 edges");
}

TEST(IODeathTest, EmptyFileAborts) {
  expect_read_dies("no_header.txt", "# only a comment\n",
                   "1: no \"n m\" header line");
}

TEST(IODeathTest, MalformedHeaderAborts) {
  expect_read_dies("bad_header.txt", "3\n0 1\n", "1: header is not \"n m\"");
}

TEST(IODeathTest, VertexCountBeyondVertexIdAborts) {
  // 2^32 vertices cannot be named by 32-bit ids (the top one is reserved).
  expect_read_dies("wide_n.txt", "4294967296 1\n0 1\n",
                   "1: n = 4294967296 exceeds the 32-bit vertex ids");
}

TEST(IODeathTest, EndpointBeyondThirtyTwoBitsAborts) {
  // 2^32 + 1 used to narrow silently to vertex 1.
  expect_read_dies("wide_u.txt", "3 1\n4294967297 2\n",
                   "2: endpoint outside \\[0, 3\\)");
}

TEST(IODeathTest, EndpointOutOfRangeAborts) {
  // Fits in 32 bits but not in the declared universe [0, 3).
  expect_read_dies("out_of_range_v.txt", "3 1\n# c\n0 5\n",
                   "3: endpoint outside \\[0, 3\\)");
}

TEST(IODeathTest, MalformedEdgeLineAborts) {
  expect_read_dies("bad_edge.txt", "3 1\n0 x\n", "2: edge line is not \"u v\"");
}

TEST(IODeathTest, SelfLoopAborts) {
  expect_read_dies("self_loop.txt", "3 1\n2 2\n", "2: self-loop");
}

TEST(IODeathTest, HugeEdgeCountIsNotReservedUpFront) {
  // The header promises 2^62 edges; the reservation must be bounded by the
  // file, so the reader reaches the truncation check instead of failing
  // the allocation.
  expect_read_dies("huge_m.txt", "3 4611686018427387904\n0 1\n",
                   "2: file ends after 1 of 4611686018427387904 edges");
}

TEST(IODeathTest, DataPastTheHeaderEdgeCountAborts) {
  // Regression: lines beyond the header's m used to be ignored silently.
  expect_read_dies("extra_line.txt", "3 1\n0 1\n1 2\n",
                   "3: data past the header's 1 edges");
}

TEST(IODeathTest, ExtraTokensOnAnEdgeLineAbort) {
  // Regression: "1 2 3" used to read as the edge 1-2.
  expect_read_dies("extra_token.txt", "4 1\n1 2 3\n",
                   "2: extra tokens after \"u v\"");
}

TEST(IO, TrailingWhitespaceAndCommentsAfterTheLastEdgeAreAccepted) {
  const std::string path = temp_path("trailing.txt");
  {
    std::ofstream out(path);
    out << "3 2  \r\n0 1\t\n1 2 \n# done\n\n";
  }
  const EdgeList loaded = read_edge_list(path);
  EXPECT_EQ(loaded.num_vertices(), 3u);
  EXPECT_EQ(loaded.num_edges(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rcc
