#include "distributed/summary_wire.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace rcc {

void wire_fail(const char* fmt, ...) {
  std::fputs("summary wire: ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

namespace {

/// Writes `v` little-endian at `out` and returns the byte after it.
template <typename T>
std::uint8_t* put(std::uint8_t* out, T v) {
  std::memcpy(out, &v, sizeof v);
  return out + sizeof v;
}

/// Cursor over a received payload. Reading past the end is a truncated
/// frame: wire_fail, not UB.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, bytes(sizeof v, "u32"), sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, bytes(sizeof v, "u64"), sizeof v);
    return v;
  }

  /// Consumes the next `size` bytes and returns them in place; fewer left
  /// is a truncated frame (`what` names the field in the diagnostic).
  const std::uint8_t* bytes(std::size_t size, const char* what) {
    if (size > size_ - cursor_) {
      wire_fail("truncated payload: %s needs %zu bytes at offset %zu, %zu left",
                what, size, cursor_, remaining());
    }
    const std::uint8_t* at = data_ + cursor_;
    cursor_ += size;
    return at;
  }

  std::size_t remaining() const { return size_ - cursor_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

}  // namespace

void encode_frame_header(const FrameHeader& header, std::uint8_t* out) {
  out = put(out, kWireMagic);
  out = put(out, kWireVersion);
  out = put(out, static_cast<std::uint16_t>(header.shape));
  out = put(out, header.machine);
  out = put(out, std::uint32_t{0});  // reserved
  put(out, header.payload_bytes);
}

FrameHeader decode_frame_header(const std::uint8_t* bytes) {
  WireReader reader(bytes, kFrameHeaderBytes);
  const std::uint32_t magic = reader.u32();
  if (magic != kWireMagic) {
    wire_fail("bad frame magic 0x%08x (expected 0x%08x)", magic, kWireMagic);
  }
  const std::uint32_t version_and_shape = reader.u32();
  const std::uint16_t version =
      static_cast<std::uint16_t>(version_and_shape & 0xffffu);
  const std::uint16_t shape =
      static_cast<std::uint16_t>(version_and_shape >> 16);
  if (version != kWireVersion) {
    wire_fail("frame version %u does not match this build's version %u",
              static_cast<unsigned>(version),
              static_cast<unsigned>(kWireVersion));
  }
  // Tags 3-6 are retired (SummaryShape), never reused.
  if (shape < static_cast<std::uint16_t>(SummaryShape::kEdgeList) ||
      shape > static_cast<std::uint16_t>(SummaryShape::kShutdown) ||
      (shape >= 3 && shape <= 6)) {
    wire_fail("unknown summary shape tag %u", static_cast<unsigned>(shape));
  }
  const std::uint32_t machine = reader.u32();
  const std::uint32_t reserved = reader.u32();
  if (reserved != 0) {
    wire_fail("reserved header word is 0x%08x, must be 0", reserved);
  }
  const std::uint64_t payload_bytes = reader.u64();
  if (payload_bytes > kMaxFramePayloadBytes) {
    wire_fail("payload length %llu exceeds the %llu-byte frame cap",
              static_cast<unsigned long long>(payload_bytes),
              static_cast<unsigned long long>(kMaxFramePayloadBytes));
  }
  return FrameHeader{static_cast<SummaryShape>(shape), machine, payload_bytes};
}

namespace {

// Edge records cross the wire as their memory layout: two packed u32s.
static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 8 &&
                  alignof(Edge) == 4 && sizeof(VertexId) == 4,
              "the wire's (u32 u, u32 v) records are Edge's memory layout");

/// Checks `m` received edge records: ids inside the n-vertex universe, no
/// self-loops; the first offending record is named. A branch-free scan
/// (it vectorizes) clears a valid list; only a bad one is walked again to
/// find the record to name.
void check_edge_records(const Edge* edges, std::size_t m, VertexId n) {
  bool bad = false;
  for (std::size_t i = 0; i < m; ++i) {
    bad |= (edges[i].u >= n) | (edges[i].v >= n) | (edges[i].u == edges[i].v);
  }
  if (!bad) return;
  for (std::size_t i = 0; i < m; ++i) {
    const Edge e = edges[i];
    if (e.u >= n || e.v >= n) {
      wire_fail("edge %zu = (%u, %u) leaves the %u-vertex universe", i, e.u,
                e.v, n);
    }
    if (e.u == e.v) wire_fail("edge %zu is a self-loop at vertex %u", i, e.u);
  }
}

/// The checked edge records of an EdgeList payload, still in the frame.
struct EdgeRecords {
  VertexId n = 0;
  std::size_t m = 0;
  const std::uint8_t* records = nullptr;
};

/// Reads an EdgeList payload's (num_vertices, num_edges) prefix and checks
/// its records in place, dying on a lying count or a bad record.
EdgeRecords read_edge_records(WireReader& reader) {
  EdgeRecords list;
  list.n = reader.u32();
  const std::uint64_t m = reader.u64();
  // Cheap sanity gate before reserving: each edge needs 8 payload bytes.
  if (m > reader.remaining() / 8) {
    wire_fail("edge list claims %llu edges but only %zu payload bytes remain",
              static_cast<unsigned long long>(m), reader.remaining());
  }
  list.m = static_cast<std::size_t>(m);
  list.records = reader.bytes(list.m * sizeof(Edge), "edges");
  check_edge_records(reinterpret_cast<const Edge*>(list.records), list.m,
                     list.n);
  return list;
}

/// The checked records of `list`, which lie inside `storage`, become the
/// edges of a list that owns `storage`: shifted to its front, each
/// normalized to u < v (the EdgeList invariant), in one pass. Every record
/// is read before the slots it lands on (at a lower address) are written.
EdgeList adopt_edge_records(std::vector<Edge>&& storage,
                            const EdgeRecords& list) {
  Edge* out = storage.data();
  for (std::size_t i = 0; i < list.m; ++i) {
    Edge e;
    std::memcpy(&e, list.records + i * sizeof(Edge), sizeof(Edge));
    out[i] = e.u < e.v ? e : Edge{e.v, e.u};
  }
  storage.resize(list.m);
  return EdgeList::adopt(list.n, std::move(storage));
}

/// Reads a VC coreset's fixed vertices (u64 count, then u32 ids in the
/// n-vertex universe) into `ids`: one block copy, then one check pass.
void read_fixed_vertices(WireReader& reader, VertexId n,
                         std::vector<VertexId>& ids) {
  const std::uint64_t fixed = reader.u64();
  if (fixed > reader.remaining() / 4) {
    wire_fail(
        "vc coreset claims %llu fixed vertices but only %zu payload bytes "
        "remain",
        static_cast<unsigned long long>(fixed), reader.remaining());
  }
  const std::uint8_t* records = reader.bytes(
      static_cast<std::size_t>(fixed) * sizeof(VertexId), "fixed vertices");
  ids.resize(static_cast<std::size_t>(fixed));
  if (fixed != 0) std::memcpy(ids.data(), records, ids.size() * sizeof(VertexId));
  bool bad = false;
  for (const VertexId v : ids) bad |= v >= n;
  for (std::size_t i = 0; bad && i < ids.size(); ++i) {
    if (ids[i] >= n) {
      wire_fail("fixed vertex %zu = %u leaves the %u-vertex universe", i,
                ids[i], n);
    }
  }
}

/// wire_fails unless `header` carries the `expected` shape tag.
void expect_shape(const FrameHeader& header, SummaryShape expected) {
  if (header.shape != expected) {
    wire_fail("frame from machine %u carries shape tag %u, expected %u",
              header.machine, static_cast<unsigned>(header.shape),
              static_cast<unsigned>(expected));
  }
}

/// wire_fails when a decode left `remaining` of the header's payload
/// bytes unread (trailing bytes are a framing error).
void expect_consumed(const FrameHeader& header, std::size_t remaining) {
  if (remaining != 0) {
    wire_fail("frame from machine %u leaves %zu trailing payload bytes",
              header.machine, remaining);
  }
}

}  // namespace

EdgeList SummaryCodec<EdgeList>::adopt(ReadyFrame&& frame) {
  expect_shape(frame.header, kShape);
  WireReader reader(frame.bytes(), frame.size());
  const EdgeRecords list = read_edge_records(reader);
  expect_consumed(frame.header, reader.remaining());
  return adopt_edge_records(std::move(frame.payload), list);
}

VcCoresetOutput SummaryCodec<VcCoresetOutput>::adopt(ReadyFrame&& frame) {
  expect_shape(frame.header, kShape);
  WireReader reader(frame.bytes(), frame.size());
  const EdgeRecords list = read_edge_records(reader);
  VcCoresetOutput coreset;
  read_fixed_vertices(reader, list.n, coreset.fixed_vertices);
  expect_consumed(frame.header, reader.remaining());
  coreset.residual_edges = adopt_edge_records(std::move(frame.payload), list);
  return coreset;
}

PieceDeliveryView decode_piece_frame_view(const FrameHeader& header,
                                          const std::uint8_t* payload) {
  expect_shape(header, SummaryShape::kPieceDelivery);
  WireReader reader(payload, static_cast<std::size_t>(header.payload_bytes));
  PieceDeliveryView view;
  view.round = reader.u32();
  for (std::uint64_t& word : view.rng_state) word = reader.u64();
  view.num_vertices = reader.u32();
  const std::uint64_t m = reader.u64();
  if (m > reader.remaining() / 8 || m * 8 != reader.remaining()) {
    wire_fail("piece frame claims %llu edges but %zu payload bytes remain",
              static_cast<unsigned long long>(m), reader.remaining());
  }
  view.num_edges = static_cast<std::size_t>(m);
  view.edges = reinterpret_cast<const Edge*>(
      reader.bytes(view.num_edges * sizeof(Edge), "edges"));
  check_edge_records(view.edges, view.num_edges, view.num_vertices);
  return view;
}

void encode_piece_frame_prefix(std::size_t num_edges, VertexId num_vertices,
                               const std::array<std::uint64_t, 4>& rng_state,
                               std::uint32_t round, std::uint32_t machine,
                               std::uint8_t* out) {
  const std::uint64_t payload =
      (kPieceFramePrefixBytes - kFrameHeaderBytes) + 8 * num_edges;
  if (payload > kMaxFramePayloadBytes) {
    wire_fail("machine %u piece payload (%llu bytes) exceeds the frame cap",
              machine, static_cast<unsigned long long>(payload));
  }
  encode_frame_header(
      FrameHeader{SummaryShape::kPieceDelivery, machine, payload}, out);
  std::uint8_t* p = put(out + kFrameHeaderBytes, round);
  for (const std::uint64_t word : rng_state) p = put(p, word);
  p = put(p, num_vertices);
  put(p, static_cast<std::uint64_t>(num_edges));
}

GatherFrame::GatherFrame(const EdgeList& summary, std::uint32_t machine) {
  begin(summary, SummaryCodec<EdgeList>::kShape, machine, 0);
}

GatherFrame::GatherFrame(const VcCoresetOutput& summary,
                         std::uint32_t machine) {
  const std::vector<VertexId>& fixed = summary.fixed_vertices;
  begin(summary.residual_edges, SummaryCodec<VcCoresetOutput>::kShape, machine,
        fixed_count_.size() + sizeof(VertexId) * fixed.size());
  put(fixed_count_.data(), static_cast<std::uint64_t>(fixed.size()));
  add(fixed_count_.data(), fixed_count_.size());
  add(fixed.data(), sizeof(VertexId) * fixed.size());
}

void GatherFrame::begin(const EdgeList& edges, SummaryShape shape,
                        std::uint32_t machine, std::uint64_t tail_bytes) {
  const std::uint64_t payload = (head_.size() - kFrameHeaderBytes) +
                                sizeof(Edge) * edges.num_edges() + tail_bytes;
  if (payload > kMaxFramePayloadBytes) {
    wire_fail("machine %u summary payload (%llu bytes) exceeds the frame cap",
              machine, static_cast<unsigned long long>(payload));
  }
  encode_frame_header(FrameHeader{shape, machine, payload}, head_.data());
  std::uint8_t* p = put(head_.data() + kFrameHeaderBytes, edges.num_vertices());
  put(p, static_cast<std::uint64_t>(edges.num_edges()));
  add(head_.data(), head_.size());
  add(edges.edges().data(), sizeof(Edge) * edges.num_edges());
}

void GatherFrame::add(const void* data, std::size_t size) {
  segments_[count_++] = FrameSegment{static_cast<const std::uint8_t*>(data),
                                     size};
}

std::vector<std::uint8_t> encode_shutdown_frame(std::uint32_t machine) {
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes, 0);
  encode_frame_header(FrameHeader{SummaryShape::kShutdown, machine, 0},
                      bytes.data());
  return bytes;
}

}  // namespace rcc
