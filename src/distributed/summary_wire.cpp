#include "distributed/summary_wire.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "distributed/protocols.hpp"

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

const std::uint8_t* WireReader::bytes(std::size_t size, const char* what) {
  if (size > size_ - cursor_) {
    wire_fail("truncated payload: %s needs %zu bytes at offset %zu, %zu left",
              what, size, cursor_, remaining());
  }
  const std::uint8_t* at = data_ + cursor_;
  cursor_ += size;
  return at;
}

void encode_frame_header(const FrameHeader& header, std::uint8_t* out) {
  std::uint8_t* p = out;
  const auto put32 = [&p](std::uint32_t v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  const auto put16 = [&p](std::uint16_t v) {
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
  };
  put32(kWireMagic);
  put16(kWireVersion);
  put16(static_cast<std::uint16_t>(header.shape));
  put32(header.machine);
  put32(0);  // reserved
  std::uint64_t payload = header.payload_bytes;
  std::memcpy(p, &payload, sizeof payload);
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
  // Tag 4 was the augmenting-path batch; it is retired, never reused.
  if (shape < static_cast<std::uint16_t>(SummaryShape::kEdgeList) ||
      shape > static_cast<std::uint16_t>(SummaryShape::kShutdown) ||
      shape == 4) {
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

/// Copies m checked records to `out`, each normalized to u < v (the
/// EdgeList invariant), in one pass. `out` may overlap the records at a
/// lower address: every record is read before the slots it lands on are
/// written, which is how a frame's own storage takes its records.
void copy_normalized(const std::uint8_t* records, Edge* out, std::size_t m) {
  for (std::size_t i = 0; i < m; ++i) {
    Edge e;
    std::memcpy(&e, records + i * sizeof(Edge), sizeof(Edge));
    out[i] = e.u < e.v ? e : Edge{e.v, e.u};
  }
}

/// The checked records of `list`, which lie inside `storage`, become the
/// edges of a list that owns `storage`: shifted to its front, normalized.
EdgeList adopt_edge_records(std::vector<Edge>&& storage,
                            const EdgeRecords& list) {
  copy_normalized(list.records, storage.data(), list.m);
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

}  // namespace

void expect_shape(const FrameHeader& header, SummaryShape expected) {
  if (header.shape != expected) {
    wire_fail("frame from machine %u carries shape tag %u, expected %u",
              header.machine, static_cast<unsigned>(header.shape),
              static_cast<unsigned>(expected));
  }
}

void expect_consumed(const FrameHeader& header, std::size_t remaining) {
  if (remaining != 0) {
    wire_fail("frame from machine %u leaves %zu trailing payload bytes",
              header.machine, remaining);
  }
}

void SummaryCodec<EdgeList>::encode(const EdgeList& list, WireWriter& writer) {
  writer.u32(list.num_vertices());
  writer.u64(list.num_edges());
  for (const Edge& e : list) {
    writer.u32(e.u);
    writer.u32(e.v);
  }
}

EdgeList SummaryCodec<EdgeList>::decode(WireReader& reader) {
  const EdgeRecords list = read_edge_records(reader);
  std::vector<Edge> edges(list.m);
  copy_normalized(list.records, edges.data(), list.m);
  return EdgeList::adopt(list.n, std::move(edges));
}

EdgeList SummaryCodec<EdgeList>::adopt(ReadyFrame&& frame) {
  expect_shape(frame.header, kShape);
  WireReader reader(frame.bytes(), frame.size());
  const EdgeRecords list = read_edge_records(reader);
  expect_consumed(frame.header, reader.remaining());
  return adopt_edge_records(std::move(frame.payload), list);
}

void SummaryCodec<VcCoresetOutput>::encode(const VcCoresetOutput& coreset,
                                           WireWriter& writer) {
  SummaryCodec<EdgeList>::encode(coreset.residual_edges, writer);
  writer.u64(coreset.fixed_vertices.size());
  for (const VertexId v : coreset.fixed_vertices) writer.u32(v);
}

VcCoresetOutput SummaryCodec<VcCoresetOutput>::decode(WireReader& reader) {
  VcCoresetOutput coreset;
  coreset.residual_edges = SummaryCodec<EdgeList>::decode(reader);
  read_fixed_vertices(reader, coreset.residual_edges.num_vertices(),
                      coreset.fixed_vertices);
  return coreset;
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

void SummaryCodec<WeightedCoresetOutput>::encode(
    const WeightedCoresetOutput& coreset, WireWriter& writer) {
  writer.u32(coreset.edges.num_vertices);
  writer.u64(coreset.edges.edges.size());
  for (const WeightedEdge& e : coreset.edges.edges) {
    writer.u32(e.u);
    writer.u32(e.v);
    writer.f64(e.weight);
  }
}

WeightedCoresetOutput SummaryCodec<WeightedCoresetOutput>::decode(
    WireReader& reader) {
  WeightedCoresetOutput coreset;
  const VertexId n = reader.u32();
  const std::uint64_t m = reader.u64();
  if (m > reader.remaining() / 16) {
    wire_fail(
        "weighted edge list claims %llu edges but only %zu payload bytes "
        "remain",
        static_cast<unsigned long long>(m), reader.remaining());
  }
  coreset.edges.num_vertices = n;
  coreset.edges.edges.reserve(static_cast<std::size_t>(m));
  for (std::uint64_t i = 0; i < m; ++i) {
    const VertexId u = reader.u32();
    const VertexId v = reader.u32();
    const double w = reader.f64();
    if (u >= n || v >= n || u == v) {
      wire_fail("weighted edge %llu = (%u, %u) is invalid for a %u-vertex "
                "universe",
                static_cast<unsigned long long>(i), u, v, n);
    }
    if (!(w >= 0.0)) {
      wire_fail("weighted edge %llu carries a negative or NaN weight",
                static_cast<unsigned long long>(i));
    }
    if (std::isinf(w)) {
      wire_fail("weighted edge %llu carries an infinite weight",
                static_cast<unsigned long long>(i));
    }
    coreset.edges.edges.push_back(WeightedEdge{u, v, w});
  }
  return coreset;
}

void SummaryCodec<std::vector<VcCoresetOutput>>::encode(
    const std::vector<VcCoresetOutput>& batch, WireWriter& writer) {
  writer.u64(batch.size());
  for (const VcCoresetOutput& coreset : batch) {
    SummaryCodec<VcCoresetOutput>::encode(coreset, writer);
  }
}

std::vector<VcCoresetOutput> SummaryCodec<std::vector<VcCoresetOutput>>::decode(
    WireReader& reader) {
  const std::uint64_t count = reader.u64();
  // Each nested coreset needs at least its fixed-size length fields.
  if (count > reader.remaining() / (4 + 8 + 8)) {
    wire_fail(
        "vc coreset batch claims %llu coresets but only %zu payload bytes "
        "remain",
        static_cast<unsigned long long>(count), reader.remaining());
  }
  std::vector<VcCoresetOutput> batch;
  batch.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    batch.push_back(SummaryCodec<VcCoresetOutput>::decode(reader));
  }
  return batch;
}

void SummaryCodec<GroupedVcSummary>::encode(const GroupedVcSummary& summary,
                                            WireWriter& writer) {
  SummaryCodec<VcCoresetOutput>::encode(summary.core, writer);
  writer.u64(summary.pinned_groups.size());
  for (const VertexId group : summary.pinned_groups) writer.u32(group);
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
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes, 0);
  bytes.reserve(kPieceFramePrefixBytes);
  WireWriter writer(bytes);
  writer.u32(round);
  for (const std::uint64_t word : rng_state) writer.u64(word);
  writer.u32(num_vertices);
  writer.u64(num_edges);
  RCC_CHECK(bytes.size() == kPieceFramePrefixBytes);
  const std::uint64_t payload =
      (kPieceFramePrefixBytes - kFrameHeaderBytes) + 8 * num_edges;
  if (payload > kMaxFramePayloadBytes) {
    wire_fail("machine %u piece payload (%llu bytes) exceeds the frame cap",
              machine, static_cast<unsigned long long>(payload));
  }
  encode_frame_header(
      FrameHeader{SummaryShape::kPieceDelivery, machine, payload},
      bytes.data());
  std::memcpy(out, bytes.data(), kPieceFramePrefixBytes);
}

GatherFrame::GatherFrame(const EdgeList& summary, std::uint32_t machine) {
  begin(summary, SummaryShape::kEdgeList, machine, 0);
}

GatherFrame::GatherFrame(const VcCoresetOutput& summary,
                         std::uint32_t machine) {
  const std::vector<VertexId>& fixed = summary.fixed_vertices;
  begin(summary.residual_edges, SummaryShape::kVcCoreset, machine,
        fixed_count_.size() + sizeof(VertexId) * fixed.size());
  const std::uint64_t count = fixed.size();
  std::memcpy(fixed_count_.data(), &count, sizeof count);
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
  const VertexId n = edges.num_vertices();
  const std::uint64_t m = edges.num_edges();
  std::memcpy(head_.data() + kFrameHeaderBytes, &n, sizeof n);
  std::memcpy(head_.data() + kFrameHeaderBytes + sizeof n, &m, sizeof m);
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

GroupedVcSummary SummaryCodec<GroupedVcSummary>::decode(WireReader& reader) {
  GroupedVcSummary summary;
  summary.core = SummaryCodec<VcCoresetOutput>::decode(reader);
  // Pinned group ids live in the same contracted universe as the core.
  const VertexId n_groups = summary.core.residual_edges.num_vertices();
  const std::uint64_t pinned = reader.u64();
  if (pinned > reader.remaining() / 4) {
    wire_fail(
        "grouped vc summary claims %llu pinned groups but only %zu payload "
        "bytes remain",
        static_cast<unsigned long long>(pinned), reader.remaining());
  }
  summary.pinned_groups.reserve(static_cast<std::size_t>(pinned));
  for (std::uint64_t i = 0; i < pinned; ++i) {
    const VertexId group = reader.u32();
    if (group >= n_groups) {
      wire_fail("pinned group %llu = %u leaves the %u-group universe",
                static_cast<unsigned long long>(i), group, n_groups);
    }
    summary.pinned_groups.push_back(group);
  }
  return summary;
}

}  // namespace rcc
