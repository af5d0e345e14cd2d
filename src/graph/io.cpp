#include "graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/types.hpp"

namespace rcc {

void write_edge_list(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  RCC_CHECK(out.good());
  out << edges.num_vertices() << ' ' << edges.num_edges() << '\n';
  for (const Edge& e : edges) out << e.u << ' ' << e.v << '\n';
  RCC_CHECK(out.good());
}

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in(path);
  RCC_CHECK(in.good());
  std::string line;
  auto next_data_line = [&]() -> bool {
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  RCC_CHECK(next_data_line());
  std::istringstream header(line);
  std::uint64_t n = 0, m = 0;
  RCC_CHECK(static_cast<bool>(header >> n >> m));
  // Ids are 32-bit and kInvalidVertex is reserved, so every id must fit
  // below it; narrowing unchecked would silently alias vertex 2^32 + 1 to 1.
  RCC_CHECK(n <= kInvalidVertex);
  EdgeList edges(static_cast<VertexId>(n));
  // The header's m is untrusted: every edge line takes at least 4 bytes
  // ("u v" plus a line end), so the file size bounds what can be reserved.
  std::error_code size_error;
  const std::uint64_t bytes = std::filesystem::file_size(path, size_error);
  const std::uint64_t max_edges = size_error ? 0 : bytes / 4 + 1;
  edges.reserve(std::min(m, max_edges));
  for (std::uint64_t i = 0; i < m; ++i) {
    RCC_CHECK(next_data_line());
    std::istringstream row(line);
    std::uint64_t u = 0, v = 0;
    RCC_CHECK(static_cast<bool>(row >> u >> v));
    RCC_CHECK(u < n && v < n);
    edges.add(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return edges;
}

}  // namespace rcc
