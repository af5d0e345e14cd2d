// Wire format of machine summaries (distributed/summary_wire.hpp):
//
//   (a) golden bytes: literal frames pin both summary layouts (an edge
//       list, a VC coreset without and with fixed vertices); encode_frame
//       and GatherFrame reproduce them byte for byte, and
//       decode_frame_payload and decode_frame read them back,
//   (b) round-trip: decode(encode(s)) is IDENTICAL to s for both summary
//       shapes over a generator x seed grid, and the frame header survives
//       its own codec and self-describes the payload length,
//   (c) the bulk paths: a piece frame sent as encode_piece_frame_prefix +
//       the shard's raw edge bytes decodes through decode_piece_frame_view
//       to the same piece, borrowed in place, and decode_frame's edge list
//       keeps the received storage, (v, u) records normalized,
//   (d) adversarial inputs DIE with a "summary wire:" diagnostic instead of
//       reaching a fold: bad magic, version skew, unknown or retired shape
//       tags, nonzero reserved word, oversize payload claim, shape
//       mismatch, truncation, trailing bytes, out-of-range ids, self-loops,
//       lying length prefixes, and piece frames whose edge count, ids or
//       shape tag are wrong; the decoder's exact diagnostics and the order
//       of its checks are pinned.
#include "distributed/summary_wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

/// Little-endian byte builder for hand-made payloads.
struct Bytes {
  Bytes& u32(std::uint32_t v) { return append(&v, sizeof v); }
  Bytes& u64(std::uint64_t v) { return append(&v, sizeof v); }
  Bytes& append(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + size);
    return *this;
  }
  std::vector<std::uint8_t> bytes;
};

/// Encodes `summary` as machine `machine` and decodes it through the same
/// header-validation path the socket coordinator uses.
template <typename T>
T round_trip(const T& summary, std::uint32_t machine = 0) {
  const std::vector<std::uint8_t> frame = encode_frame(summary, machine);
  const FrameHeader header = decode_frame_header(frame.data());
  EXPECT_EQ(header.machine, machine);
  EXPECT_EQ(header.payload_bytes, frame.size() - kFrameHeaderBytes);
  return decode_frame_payload<T>(header, frame.data() + kFrameHeaderBytes);
}

TEST(SummaryWire, EdgeListRoundTripsOverGeneratorGrid) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (const EdgeList& el :
         {gnp(200, 0.05, rng), random_bipartite(60, 80, 0.1, rng),
          EdgeList(5)}) {
      const EdgeList back = round_trip(el, static_cast<std::uint32_t>(seed));
      EXPECT_EQ(back.num_vertices(), el.num_vertices());
      EXPECT_EQ(back.edges(), el.edges());
    }
  }
}

TEST(SummaryWire, VcCoresetRoundTrips) {
  Rng rng(7);
  VcCoresetOutput coreset;
  coreset.residual_edges = gnp(120, 0.04, rng);
  coreset.fixed_vertices = {0, 3, 17, 119};
  const VcCoresetOutput back = round_trip(coreset);
  EXPECT_EQ(back.residual_edges.edges(), coreset.residual_edges.edges());
  EXPECT_EQ(back.fixed_vertices, coreset.fixed_vertices);
}

TEST(SummaryWire, EmptySummariesRoundTrip) {
  EXPECT_EQ(round_trip(EdgeList(0)).num_edges(), 0u);
  const VcCoresetOutput empty_vc = round_trip(VcCoresetOutput{});
  EXPECT_EQ(empty_vc.residual_edges.num_edges(), 0u);
  EXPECT_TRUE(empty_vc.fixed_vertices.empty());
}

/// A frame as the coordinator's reassembly hands it on: `header`, and the
/// payload bytes in the frame's own storage.
ReadyFrame received(const FrameHeader& header, const std::uint8_t* payload) {
  ReadyFrame frame(header);
  if (frame.size() != 0) std::memcpy(frame.bytes(), payload, frame.size());
  return frame;
}

ReadyFrame received(const std::vector<std::uint8_t>& frame) {
  return received(decode_frame_header(frame.data()),
                  frame.data() + kFrameHeaderBytes);
}

const EdgeList& edges_of(const EdgeList& list) { return list; }
const EdgeList& edges_of(const VcCoresetOutput& coreset) {
  return coreset.residual_edges;
}

/// decode_frame over `frame`; the result's edge list must be the received
/// storage itself.
template <typename T>
T adopted(const std::vector<std::uint8_t>& frame) {
  ReadyFrame ready = received(frame);
  const std::uint8_t* storage = ready.bytes();
  T value = decode_frame<T>(std::move(ready));
  const EdgeList& edges = edges_of(value);
  if (!edges.empty()) {
    EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(edges.edges().data()),
              storage);
  }
  return value;
}

/// GatherFrame's segments of `summary`, concatenated.
template <typename T>
std::vector<std::uint8_t> gathered(const T& summary, std::uint32_t machine) {
  const GatherFrame frame(summary, machine);
  std::vector<std::uint8_t> bytes;
  for (const FrameSegment& segment : frame.segments()) {
    bytes.insert(bytes.end(), segment.data, segment.data + segment.size);
  }
  return bytes;
}

// Golden frames: the wire format version 1 defines these bytes, so a change
// to either summary layout fails here before it reaches a peer.

/// EdgeList(6) {(0, 1), (2, 5), (3, 4)} from machine 3.
const std::vector<std::uint8_t> kGoldenEdgeList = {
    0x57, 0x43, 0x43, 0x52, 0x01, 0x00, 0x01, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x24, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00};

/// VC coreset from machine 1: residual EdgeList(5) {(0, 2), (1, 3)}, no
/// fixed vertices.
const std::vector<std::uint8_t> kGoldenVc = {
    0x57, 0x43, 0x43, 0x52, 0x01, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x24, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

/// VC coreset from machine 2: residual EdgeList(7) {(1, 2), (4, 6)}, fixed
/// vertices {0, 3, 5}.
const std::vector<std::uint8_t> kGoldenVcFixed = {
    0x57, 0x43, 0x43, 0x52, 0x01, 0x00, 0x02, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x07, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x06, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00};

/// Both encoders of `summary` give `golden`, and both decoders read
/// `golden` back to `summary`.
template <typename T>
void expect_golden(const T& summary, std::uint32_t machine,
                   const std::vector<std::uint8_t>& golden) {
  EXPECT_EQ(encode_frame(summary, machine), golden);
  EXPECT_EQ(gathered(summary, machine), golden);
  const FrameHeader header = decode_frame_header(golden.data());
  EXPECT_EQ(header.shape, SummaryCodec<T>::kShape);
  EXPECT_EQ(header.machine, machine);
  for (const T& back :
       {decode_frame_payload<T>(header, golden.data() + kFrameHeaderBytes),
        adopted<T>(golden)}) {
    EXPECT_EQ(edges_of(back).num_vertices(), edges_of(summary).num_vertices());
    EXPECT_EQ(edges_of(back).edges(), edges_of(summary).edges());
    if constexpr (std::is_same_v<T, VcCoresetOutput>) {
      EXPECT_EQ(back.fixed_vertices, summary.fixed_vertices);
    }
  }
}

TEST(SummaryWire, GoldenFramesPinBothSummaryLayouts) {
  EdgeList el(6);
  el.add(0, 1);
  el.add(5, 2);  // stored normalized, as (2, 5)
  el.add(3, 4);
  expect_golden(el, 3, kGoldenEdgeList);

  VcCoresetOutput vc;
  vc.residual_edges = EdgeList(5);
  vc.residual_edges.add(0, 2);
  vc.residual_edges.add(1, 3);
  expect_golden(vc, 1, kGoldenVc);

  VcCoresetOutput fixed;
  fixed.residual_edges = EdgeList(7);
  fixed.residual_edges.add(1, 2);
  fixed.residual_edges.add(4, 6);
  fixed.fixed_vertices = {0, 3, 5};
  expect_golden(fixed, 2, kGoldenVcFixed);
}

TEST(SummaryWire, DecodeFrameAdoptsTheReceivedStorage) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (const EdgeList& el :
         {gnp(200, 0.05, rng), random_bipartite(60, 80, 0.1, rng),
          EdgeList(5), EdgeList()}) {
      EXPECT_EQ(adopted<EdgeList>(encode_frame(el, seed)).edges(), el.edges());
      VcCoresetOutput coreset;
      coreset.residual_edges = el;
      for (VertexId v = 0; v < el.num_vertices(); v += 3) {
        coreset.fixed_vertices.push_back(v);
      }
      const VcCoresetOutput back =
          adopted<VcCoresetOutput>(encode_frame(coreset, seed));
      EXPECT_EQ(back.residual_edges.edges(), el.edges());
      EXPECT_EQ(back.fixed_vertices, coreset.fixed_vertices);
    }
  }
  // Records sent as (v, u) come back normalized.
  Bytes frame;
  frame.bytes.resize(kFrameHeaderBytes);
  frame.u32(6).u64(3);
  for (const VertexId id : {5u, 1u, 0u, 4u, 3u, 2u}) frame.u32(id);
  encode_frame_header(FrameHeader{SummaryShape::kEdgeList, 1,
                                  frame.bytes.size() - kFrameHeaderBytes},
                      frame.bytes.data());
  EXPECT_EQ(adopted<EdgeList>(frame.bytes).edges(),
            (std::vector<Edge>{{1, 5}, {0, 4}, {2, 3}}));
}

/// A piece frame the way the worker host sends one: the fixed prefix, then
/// the shard's edge records as raw bytes.
std::vector<std::uint8_t> piece_frame(const std::vector<Edge>& edges,
                                      VertexId num_vertices,
                                      const std::array<std::uint64_t, 4>& state,
                                      std::uint32_t round,
                                      std::uint32_t machine) {
  std::vector<std::uint8_t> frame(kPieceFramePrefixBytes +
                                  sizeof(Edge) * edges.size());
  encode_piece_frame_prefix(edges.size(), num_vertices, state, round, machine,
                            frame.data());
  if (!edges.empty()) {
    std::memcpy(frame.data() + kPieceFramePrefixBytes, edges.data(),
                sizeof(Edge) * edges.size());
  }
  return frame;
}

PieceDeliveryView decode_piece(const std::vector<std::uint8_t>& frame) {
  const FrameHeader header = decode_frame_header(frame.data());
  return decode_piece_frame_view(header, frame.data() + kFrameHeaderBytes);
}

TEST(SummaryWire, PieceFramePrefixPlusRawEdgesRoundTripsThroughTheView) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (const EdgeList& piece : {gnp(200, 0.05, rng), EdgeList(7)}) {
      const std::array<std::uint64_t, 4> state = rng.state();
      const std::vector<std::uint8_t> frame = piece_frame(
          piece.edges(), piece.num_vertices(), state, seed, 3 + seed);
      const FrameHeader header = decode_frame_header(frame.data());
      EXPECT_EQ(header.shape, SummaryShape::kPieceDelivery);
      EXPECT_EQ(header.machine, 3 + seed);
      EXPECT_EQ(header.payload_bytes, frame.size() - kFrameHeaderBytes);
      const PieceDeliveryView view = decode_piece(frame);
      EXPECT_EQ(view.round, seed);
      EXPECT_EQ(view.rng_state, state);
      EXPECT_EQ(view.num_vertices, piece.num_vertices());
      ASSERT_EQ(view.num_edges, piece.num_edges());
      // Borrowed in place: the view reads the frame's own edge records.
      EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(view.edges),
                frame.data() + kPieceFramePrefixBytes);
      EXPECT_EQ(std::vector<Edge>(view.edges, view.edges + view.num_edges),
                piece.edges());
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial frames. Every mutation of a valid frame must abort through
// wire_fail with a "summary wire:" diagnostic — death tests, because decode
// errors are protocol violations, not recoverable conditions.

using SummaryWireDeathTest = ::testing::Test;

std::vector<std::uint8_t> valid_frame() {
  EdgeList el(4);
  el.add(0, 1);
  el.add(2, 3);
  return encode_frame(el, /*machine=*/2);
}

void decode_full_frame(const std::vector<std::uint8_t>& frame) {
  const FrameHeader header = decode_frame_header(frame.data());
  (void)decode_frame_payload<EdgeList>(header, frame.data() + kFrameHeaderBytes);
}

TEST(SummaryWireDeathTest, BadMagicDies) {
  std::vector<std::uint8_t> frame = valid_frame();
  frame[0] ^= 0xff;
  EXPECT_DEATH(decode_full_frame(frame), "summary wire: bad frame magic");
}

TEST(SummaryWireDeathTest, VersionSkewDies) {
  std::vector<std::uint8_t> frame = valid_frame();
  frame[4] = 9;  // version word
  EXPECT_DEATH(decode_full_frame(frame),
               "summary wire: frame version 9 does not match");
}

TEST(SummaryWireDeathTest, UnknownShapeTagDies) {
  std::vector<std::uint8_t> frame = valid_frame();
  frame[6] = 0;  // shape tag below the valid range
  EXPECT_DEATH(decode_full_frame(frame),
               "summary wire: unknown summary shape tag 0");
  for (const std::uint8_t retired : {3, 4, 5, 6}) {
    // Weighted edges, augmenting-path batch, VC coreset batch, grouped VC.
    frame[6] = retired;
    EXPECT_DEATH(decode_full_frame(frame),
                 "summary wire: unknown summary shape tag " +
                     std::to_string(retired));
  }
  frame[6] = 9;  // beyond kShutdown
  EXPECT_DEATH(decode_full_frame(frame),
               "summary wire: unknown summary shape tag 9");
}

TEST(SummaryWireDeathTest, NonzeroReservedWordDies) {
  std::vector<std::uint8_t> frame = valid_frame();
  frame[12] = 1;
  EXPECT_DEATH(decode_full_frame(frame), "summary wire: reserved header word");
}

TEST(SummaryWireDeathTest, OversizePayloadClaimDies) {
  std::vector<std::uint8_t> frame = valid_frame();
  const std::uint64_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof huge);
  EXPECT_DEATH(decode_full_frame(frame),
               "summary wire: payload length .* exceeds");
}

TEST(SummaryWireDeathTest, ShapeMismatchDies) {
  const std::vector<std::uint8_t> frame = valid_frame();
  const FrameHeader header = decode_frame_header(frame.data());
  EXPECT_DEATH((void)decode_frame_payload<VcCoresetOutput>(
                   header, frame.data() + kFrameHeaderBytes),
               "summary wire: frame from machine 2 carries shape tag 1");
}

TEST(SummaryWireDeathTest, TruncatedPayloadDies) {
  std::vector<std::uint8_t> frame = valid_frame();
  FrameHeader header = decode_frame_header(frame.data());
  header.payload_bytes -= 3;  // collector delivers exactly the declared bytes
  EXPECT_DEATH((void)decode_frame_payload<EdgeList>(
                   header, frame.data() + kFrameHeaderBytes),
               "summary wire: .*(truncated payload|payload bytes remain)");
}

TEST(SummaryWireDeathTest, TrailingBytesDie) {
  EdgeList el(4);
  el.add(0, 1);
  std::vector<std::uint8_t> frame = encode_frame(el, 0);
  frame.push_back(0xee);  // one stray byte after the payload
  FrameHeader header = decode_frame_header(frame.data());
  header.payload_bytes += 1;
  EXPECT_DEATH((void)decode_frame_payload<EdgeList>(
                   header, frame.data() + kFrameHeaderBytes),
               "summary wire: frame from machine 0 leaves 1 trailing");
}

/// Decodes a hand-made edge list payload from machine 0.
void decode_edge_list(const Bytes& payload) {
  (void)decode_frame_payload<EdgeList>(
      FrameHeader{SummaryShape::kEdgeList, 0, payload.bytes.size()},
      payload.bytes.data());
}

TEST(SummaryWireDeathTest, OutOfRangeVertexDies) {
  // A universe of 4 vertices, one edge (1, 4): 4 == n is out of range.
  EXPECT_DEATH(decode_edge_list(Bytes().u32(4).u64(1).u32(1).u32(4)),
               "summary wire: edge 0 = \\(1, 4\\) leaves the 4-vertex");
}

TEST(SummaryWireDeathTest, SelfLoopDies) {
  EXPECT_DEATH(decode_edge_list(Bytes().u32(4).u64(1).u32(2).u32(2)),
               "summary wire: edge 0 is a self-loop at vertex 2");
}

TEST(SummaryWireDeathTest, LyingLengthPrefixesDie) {
  // An edge list claiming more edges than the payload could hold must die at
  // the sanity gate, BEFORE any reserve.
  EXPECT_DEATH(decode_edge_list(Bytes().u32(4).u64(std::uint64_t{1} << 60)),
               "summary wire: edge list claims .* edges but only");
}

/// Offset of a piece frame's u64 edge count: header, round, rng state,
/// num_vertices.
constexpr std::size_t kPieceCountOffset = kFrameHeaderBytes + 4 + 32 + 4;

TEST(SummaryWireDeathTest, PieceEdgeCountDisagreeingWithPayloadDies) {
  const std::vector<Edge> edges = {{0, 1}, {2, 3}};
  std::vector<std::uint8_t> frame = piece_frame(edges, 4, {}, 0, 1);
  for (const std::uint64_t lie : {std::uint64_t{1}, std::uint64_t{3},
                                  std::uint64_t{1} << 60}) {
    std::vector<std::uint8_t> forged = frame;
    std::memcpy(forged.data() + kPieceCountOffset, &lie, sizeof lie);
    EXPECT_DEATH((void)decode_piece(forged),
                 "summary wire: piece frame claims [0-9]+ edges but 16 "
                 "payload bytes remain");
  }
}

TEST(SummaryWireDeathTest, PieceOutOfRangeVertexDies) {
  const std::vector<Edge> edges = {{0, 1}, {1, 4}};  // 4 == n: out of range
  EXPECT_DEATH((void)decode_piece(piece_frame(edges, 4, {}, 0, 1)),
               "summary wire: edge 1 = \\(1, 4\\) leaves the 4-vertex "
               "universe");
}

TEST(SummaryWireDeathTest, PieceSelfLoopDies) {
  const std::vector<Edge> edges = {{2, 2}};
  EXPECT_DEATH((void)decode_piece(piece_frame(edges, 4, {}, 0, 1)),
               "summary wire: edge 0 is a self-loop at vertex 2");
}

TEST(SummaryWireDeathTest, PieceViewOfAnotherShapeDies) {
  const std::vector<std::uint8_t> frame = valid_frame();  // a kEdgeList frame
  EXPECT_DEATH((void)decode_piece(frame),
               "summary wire: frame from machine 2 carries shape tag 1, "
               "expected 7");
}

/// decode_frame over a received `payload` of `shape` dies with
/// `diagnostic`.
template <typename T>
void expect_decode_dies(SummaryShape shape,
                        const std::vector<std::uint8_t>& payload,
                        const char* diagnostic) {
  const FrameHeader header{shape, 0, payload.size()};
  EXPECT_DEATH((void)decode_frame<T>(received(header, payload.data())),
               diagnostic);
}

TEST(SummaryWireDeathTest, DecodeFrameDiesWithExactDiagnostics) {
  // Shape, truncation and trailing bytes of a whole frame.
  std::vector<std::uint8_t> frame = valid_frame();
  EXPECT_DEATH((void)decode_frame<VcCoresetOutput>(received(frame)),
               "summary wire: frame from machine 2 carries shape tag 1, "
               "expected 2");
  FrameHeader header = decode_frame_header(frame.data());
  header.payload_bytes -= 3;
  EXPECT_DEATH(
      (void)decode_frame<EdgeList>(
          received(header, frame.data() + kFrameHeaderBytes)),
      "summary wire: edge list claims 2 edges but only 13 payload bytes "
      "remain");
  frame.push_back(0xee);
  header.payload_bytes += 4;
  EXPECT_DEATH(
      (void)decode_frame<EdgeList>(
          received(header, frame.data() + kFrameHeaderBytes)),
      "summary wire: frame from machine 2 leaves 1 trailing payload bytes");

  for (const SummaryShape shape :
       {SummaryShape::kEdgeList, SummaryShape::kVcCoreset}) {
    const auto die = [&](const Bytes& bytes, const char* diagnostic) {
      if (shape == SummaryShape::kEdgeList) {
        expect_decode_dies<EdgeList>(shape, bytes.bytes, diagnostic);
      } else {
        expect_decode_dies<VcCoresetOutput>(shape, bytes.bytes, diagnostic);
      }
    };
    die(Bytes().u32(4).u64(1).u32(1).u32(4),
        "summary wire: edge 0 = \\(1, 4\\) leaves the 4-vertex universe");
    die(Bytes().u32(4).u64(1).u32(2).u32(2),
        "summary wire: edge 0 is a self-loop at vertex 2");
    die(Bytes().u32(4).u64(std::uint64_t{1} << 60),
        "summary wire: edge list claims 1152921504606846976 edges but only 0 "
        "payload bytes remain");
  }
  // The VC tail: checked after the edges, so a bad edge is named first.
  const Bytes vc = Bytes().u32(4).u64(0);
  expect_decode_dies<VcCoresetOutput>(
      SummaryShape::kVcCoreset, vc.bytes,
      "summary wire: truncated payload: u64 needs 8 bytes at offset 12, 0 "
      "left");
  expect_decode_dies<VcCoresetOutput>(
      SummaryShape::kVcCoreset, Bytes(vc).u64(std::uint64_t{1} << 60).bytes,
      "summary wire: vc coreset claims 1152921504606846976 fixed vertices but "
      "only 0 payload bytes remain");
  expect_decode_dies<VcCoresetOutput>(
      SummaryShape::kVcCoreset, Bytes(vc).u64(1).u32(4).bytes,
      "summary wire: fixed vertex 0 = 4 leaves the 4-vertex universe");
  expect_decode_dies<VcCoresetOutput>(
      SummaryShape::kVcCoreset,
      Bytes().u32(4).u64(1).u32(3).u32(3).u64(std::uint64_t{1} << 60).bytes,
      "summary wire: edge 0 is a self-loop at vertex 3");
}

}  // namespace
}  // namespace rcc
