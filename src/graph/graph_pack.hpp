// Packed binary graph format (.rgp) + mmap-backed zero-copy loader: the
// out-of-core ingestion layer.
//
// Every driver in this library consumes edges through the zero-copy span
// discipline (EdgeSpan / WeightedEdgeSpan over a flat arena). This header
// extends that discipline to disk: a pack file stores the edge records in
// exactly the in-memory layout, so MappedGraph can hand out spans whose
// pointers alias the mapping — no parse, no copy, no per-edge allocation —
// and instances stop being capped by what an in-process generator can hold
// in RAM.
//
// Layout (all scalars little-endian; 24-byte header, then fixed-width
// records):
//
//   offset  size  field
//        0     4  magic         0x31504752 ("RGP1" on disk)
//        4     2  version       kPackVersion (= 1)
//        6     2  flags         bit 0: weighted records; other bits reserved
//        8     4  num_vertices  vertex universe [0, n)
//       12     4  reserved      must be 0
//       16     8  num_edges     m record count
//       24   8*m  unweighted records: u32 u, u32 v with u < v (normalized,
//                 no self-loops — the EdgeList invariants)
//         16*m    weighted records: u32 u, u32 v (u != v, either order —
//                 the WeightedEdgeList invariant), f64 weight as its
//                 IEEE-754 bit pattern (bit-exact round trips, like the
//                 summary wire)
//
// The header is 24 bytes and both record widths divide it, so the record
// array is correctly aligned for Edge (align 4) and WeightedEdge (align 8)
// at any page-aligned mapping base.
//
// Error philosophy mirrors distributed/summary_wire.hpp: a malformed pack
// (bad magic, version skew, unknown flags, truncated header or records, a
// length field that disagrees with the file size, out-of-range endpoints,
// self-loops, unnormalized unweighted records, NaN, infinite or negative
// weights) is an input-integrity violation, not a recoverable condition —
// pack_fail prints a "graph pack:" diagnostic naming what was wrong and
// aborts, so the adversarial-input tests are death tests and no malformed
// record ever reaches a partitioner or solver.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "matching/weighted.hpp"

namespace rcc {

static_assert(std::endian::native == std::endian::little,
              "graph pack records assume a little-endian host");
static_assert(sizeof(Edge) == 8, "pack records alias Edge directly");
static_assert(sizeof(WeightedEdge) == 16,
              "pack records alias WeightedEdge directly");

inline constexpr std::uint32_t kPackMagic = 0x31504752u;  // "RGP1" on disk
inline constexpr std::uint16_t kPackVersion = 1;
inline constexpr std::uint16_t kPackFlagWeighted = 1u << 0;
inline constexpr std::size_t kPackHeaderBytes = 24;

/// Prints "graph pack: <formatted message>" to stderr and aborts. Every
/// decode-side validation funnels through here so a malformed file dies
/// with a diagnostic instead of feeding garbage to a solver.
[[noreturn]] void pack_fail(const char* fmt, ...);

/// Streaming pack writer: header first (edge count patched on finish), then
/// buffered fixed-width records. This is the out-of-core generation path —
/// a graph is packed edge batch by edge batch without ever materializing an
/// EdgeList, so the file can exceed RAM. Writer-side invariant violations
/// (endpoint out of universe, self-loop, negative/NaN/infinite weight) are
/// RCC_CHECK programmer errors; I/O failures (disk full, unwritable path)
/// pack_fail.
class PackWriter {
 public:
  PackWriter(const std::string& path, VertexId num_vertices, bool weighted);
  ~PackWriter();  // finishes if finish() was not called

  PackWriter(const PackWriter&) = delete;
  PackWriter& operator=(const PackWriter&) = delete;

  /// Appends one unweighted record (normalized on the way out).
  void add(VertexId u, VertexId v);
  void add(Edge e) { add(e.u, e.v); }

  /// Appends one weighted record (endpoint order preserved, like
  /// WeightedEdgeList::add).
  void add(VertexId u, VertexId v, double weight);

  std::uint64_t edges_written() const { return edges_written_; }

  /// Flushes the record buffer, patches the true edge count into the
  /// header, and closes the file. Idempotent.
  void finish();

 private:
  void flush();

  std::string path_;
  void* file_ = nullptr;  // std::FILE*, kept out of the header
  VertexId num_vertices_ = 0;
  bool weighted_ = false;
  std::uint64_t edges_written_ = 0;
  std::vector<std::uint8_t> buffer_;
};

/// Whole-list conveniences over PackWriter for graphs that do fit in RAM
/// (tests, tools, checkpointing a generator's output).
struct GraphPack {
  static void write(const EdgeList& edges, const std::string& path);
  static void write(const WeightedEdgeList& edges, const std::string& path);
};

/// RAII read-only mapping of a pack file. Construction opens, maps
/// (MAP_PRIVATE, PROT_READ), advises MADV_SEQUENTIAL, and runs the full
/// decode-side validation pass over every record; a MappedGraph that
/// exists is a valid graph. The edges()/weighted_edges() views alias the
/// mapping — zero-copy, allocation-free (pinned in tests/allocation_test
/// .cpp) — and remain valid exactly as long as this object lives: the
/// EdgeSpan lifetime rule ("the viewed storage must outlive the span")
/// applies with the mapping as the storage.
class MappedGraph {
 public:
  explicit MappedGraph(const std::string& path);
  ~MappedGraph();

  MappedGraph(MappedGraph&& other) noexcept;
  MappedGraph& operator=(MappedGraph&& other) noexcept;
  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return num_edges_; }
  bool weighted() const { return weighted_; }
  std::uint64_t file_bytes() const { return file_bytes_; }

  /// The records as a zero-copy view over the mapping.
  EdgeSpan edges() const;                    // unweighted packs only
  WeightedEdgeSpan weighted_edges() const;   // weighted packs only

  /// Releases the resident pages backing records [begin_edge, end_edge)
  /// (madvise MADV_DONTNEED on the page-aligned inner range; partially
  /// covered boundary pages stay). The data is unchanged — the mapping is
  /// read-only and a later access faults the page back in — but the
  /// process's resident set shrinks, which is how a sequential pass over a
  /// larger-than-RAM pack keeps bounded residency without waiting for
  /// kernel memory pressure. The validation pass in the constructor drops
  /// its own window the same way, so merely opening a huge pack never
  /// balloons RSS.
  void drop_resident(std::size_t begin_edge, std::size_t end_edge) const;

 private:
  const std::uint8_t* record_base() const;
  std::size_t record_bytes() const { return weighted_ ? 16 : 8; }
  void validate(const std::string& path) const;

  void* map_ = nullptr;
  std::uint64_t file_bytes_ = 0;
  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  bool weighted_ = false;
};

}  // namespace rcc
