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

void WireReader::take(void* out, std::size_t size, const char* what) {
  if (size > size_ - cursor_) {
    wire_fail("truncated payload: %s needs %zu bytes at offset %zu, %zu left",
              what, size, cursor_, remaining());
  }
  std::memcpy(out, data_ + cursor_, size);
  cursor_ += size;
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
  if (shape < static_cast<std::uint16_t>(SummaryShape::kEdgeList) ||
      shape > static_cast<std::uint16_t>(SummaryShape::kShutdown)) {
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

void SummaryCodec<EdgeList>::encode(const EdgeList& list, WireWriter& writer) {
  writer.u32(list.num_vertices());
  writer.u64(list.num_edges());
  for (const Edge& e : list) {
    writer.u32(e.u);
    writer.u32(e.v);
  }
}

EdgeList SummaryCodec<EdgeList>::decode(WireReader& reader) {
  const VertexId n = reader.u32();
  const std::uint64_t m = reader.u64();
  // Cheap sanity gate before reserving: each edge needs 8 payload bytes.
  if (m > reader.remaining() / 8) {
    wire_fail("edge list claims %llu edges but only %zu payload bytes remain",
              static_cast<unsigned long long>(m), reader.remaining());
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (std::uint64_t i = 0; i < m; ++i) {
    const VertexId u = reader.u32();
    const VertexId v = reader.u32();
    if (u >= n || v >= n) {
      wire_fail("edge %llu = (%u, %u) leaves the %u-vertex universe",
                static_cast<unsigned long long>(i), u, v, n);
    }
    if (u == v) {
      wire_fail("edge %llu is a self-loop at vertex %u",
                static_cast<unsigned long long>(i), u);
    }
    edges.push_back(Edge{u, v});
  }
  return EdgeList(n, std::move(edges));
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
  const VertexId n = coreset.residual_edges.num_vertices();
  const std::uint64_t fixed = reader.u64();
  if (fixed > reader.remaining() / 4) {
    wire_fail(
        "vc coreset claims %llu fixed vertices but only %zu payload bytes "
        "remain",
        static_cast<unsigned long long>(fixed), reader.remaining());
  }
  coreset.fixed_vertices.reserve(static_cast<std::size_t>(fixed));
  for (std::uint64_t i = 0; i < fixed; ++i) {
    const VertexId v = reader.u32();
    if (v >= n) {
      wire_fail("fixed vertex %llu = %u leaves the %u-vertex universe",
                static_cast<unsigned long long>(i), v, n);
    }
    coreset.fixed_vertices.push_back(v);
  }
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

void SummaryCodec<std::vector<AugmentingPath>>::encode(
    const std::vector<AugmentingPath>& paths, WireWriter& writer) {
  writer.u64(paths.size());
  for (const AugmentingPath& path : paths) {
    writer.u32(static_cast<std::uint32_t>(path.vertices.size()));
    for (const VertexId v : path.vertices) writer.u32(v);
  }
}

std::vector<AugmentingPath> SummaryCodec<std::vector<AugmentingPath>>::decode(
    WireReader& reader) {
  const std::uint64_t count = reader.u64();
  // Each path needs at least its 4-byte length prefix.
  if (count > reader.remaining() / 4) {
    wire_fail("path batch claims %llu paths but only %zu payload bytes remain",
              static_cast<unsigned long long>(count), reader.remaining());
  }
  std::vector<AugmentingPath> paths;
  paths.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t length = reader.u32();
    if (length > reader.remaining() / 4) {
      wire_fail(
          "path %llu claims %u vertices but only %zu payload bytes remain",
          static_cast<unsigned long long>(i), length, reader.remaining());
    }
    AugmentingPath path;
    for (std::uint32_t j = 0; j < length; ++j) {
      path.vertices.push_back(reader.u32());
    }
    paths.push_back(std::move(path));
  }
  return paths;
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
  // The borrow below reinterprets wire records as Edge values; this is only
  // sound while Edge is exactly two packed little-endian u32s.
  static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 8 &&
                    sizeof(VertexId) == 4,
                "PieceDeliveryView assumes Edge is two packed u32s");
  if (header.shape != SummaryShape::kPieceDelivery) {
    wire_fail("frame from machine %u carries shape tag %u, expected %u",
              header.machine, static_cast<unsigned>(header.shape),
              static_cast<unsigned>(SummaryShape::kPieceDelivery));
  }
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
      payload + (static_cast<std::size_t>(header.payload_bytes) -
                 reader.remaining()));
  for (std::size_t i = 0; i < view.num_edges; ++i) {
    const Edge e = view.edges[i];
    if (e.u >= view.num_vertices || e.v >= view.num_vertices) {
      wire_fail("edge %zu = (%u, %u) leaves the %u-vertex universe", i, e.u,
                e.v, view.num_vertices);
    }
    if (e.u == e.v) {
      wire_fail("edge %zu is a self-loop at vertex %u", i, e.u);
    }
  }
  return view;
}

void encode_piece_frame_prefix(std::size_t num_edges, VertexId num_vertices,
                               const std::array<std::uint64_t, 4>& rng_state,
                               std::uint32_t round, std::uint32_t machine,
                               std::uint8_t* out) {
  static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 8,
                "the frame body streams Edge records as raw bytes");
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

void encode_edge_list_frame_prefix(const EdgeList& summary,
                                   std::uint32_t machine, std::uint8_t* out) {
  static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 8,
                "the frame body streams Edge records as raw bytes");
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes, 0);
  bytes.reserve(kEdgeListFramePrefixBytes);
  WireWriter writer(bytes);
  writer.u32(summary.num_vertices());
  writer.u64(summary.num_edges());
  RCC_CHECK(bytes.size() == kEdgeListFramePrefixBytes);
  const std::uint64_t payload =
      (kEdgeListFramePrefixBytes - kFrameHeaderBytes) + 8 * summary.num_edges();
  if (payload > kMaxFramePayloadBytes) {
    wire_fail("machine %u summary payload (%llu bytes) exceeds the frame cap",
              machine, static_cast<unsigned long long>(payload));
  }
  encode_frame_header(FrameHeader{SummaryShape::kEdgeList, machine, payload},
                      bytes.data());
  std::memcpy(out, bytes.data(), kEdgeListFramePrefixBytes);
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
