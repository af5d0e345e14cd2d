// Plain-text edge-list I/O.
//
// Format:
//   line 1: "n m"            (vertex count, edge count)
//   m lines: "u v"           (0-based endpoints)
// Lines starting with '#' are comments.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace rcc {

/// Writes the edge list; aborts on I/O failure.
void write_edge_list(const EdgeList& edges, const std::string& path);

/// Reads an edge list written by write_edge_list (or hand-authored in the
/// same format). Strict: an unreadable file, a malformed header or edge
/// line, extra tokens on a line, an endpoint outside [0, n), a self-loop,
/// fewer than m edges, or data past the m-th edge all abort with
/// "edge list <path>:<line>: <what>".
EdgeList read_edge_list(const std::string& path);

}  // namespace rcc
