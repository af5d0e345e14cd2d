#include "graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

namespace {

/// The reader's one failure funnel: every unreadable or malformed input
/// dies here, naming the file, the 1-based line (0 = the file as a whole)
/// and what was wrong.
[[noreturn]] void io_fail(const std::string& path, std::size_t line,
                          const std::string& what) {
  std::fprintf(stderr, "edge list %s:%zu: %s\n", path.c_str(), line,
               what.c_str());
  std::abort();
}

/// True when nothing but whitespace is left on the line.
bool only_space_left(std::istringstream& row) {
  return (row >> std::ws).eof();
}

}  // namespace

EdgeList read_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) io_fail(path, 0, "cannot open for reading");
  std::string line;
  std::size_t line_no = 0;
  auto next_data_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };
  if (!next_data_line()) io_fail(path, line_no, "no \"n m\" header line");
  std::istringstream header(line);
  std::uint64_t n = 0, m = 0;
  if (!(header >> n >> m) || !only_space_left(header)) {
    io_fail(path, line_no, "header is not \"n m\"");
  }
  // Ids are 32-bit and kInvalidVertex is reserved, so every id must fit
  // below it; narrowing unchecked would silently alias vertex 2^32 + 1 to 1.
  if (n > kInvalidVertex) {
    io_fail(path, line_no,
            "n = " + std::to_string(n) + " exceeds the 32-bit vertex ids");
  }
  EdgeList edges(static_cast<VertexId>(n));
  // The header's m is untrusted: every edge line takes at least 4 bytes
  // ("u v" plus a line end), so the file size bounds what can be reserved.
  std::error_code size_error;
  const std::uint64_t bytes = std::filesystem::file_size(path, size_error);
  const std::uint64_t max_edges = size_error ? 0 : bytes / 4 + 1;
  edges.reserve(std::min(m, max_edges));
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!next_data_line()) {
      io_fail(path, line_no,
              "file ends after " + std::to_string(i) + " of " +
                  std::to_string(m) + " edges");
    }
    std::istringstream row(line);
    std::uint64_t u = 0, v = 0;
    if (!(row >> u >> v)) io_fail(path, line_no, "edge line is not \"u v\"");
    if (!only_space_left(row)) {
      io_fail(path, line_no, "extra tokens after \"u v\"");
    }
    if (u >= n || v >= n) {
      io_fail(path, line_no,
              "endpoint outside [0, " + std::to_string(n) + ")");
    }
    if (u == v) io_fail(path, line_no, "self-loop");
    edges.add(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  if (next_data_line()) {
    io_fail(path, line_no,
            "data past the header's " + std::to_string(m) + " edges");
  }
  return edges;
}

}  // namespace rcc
