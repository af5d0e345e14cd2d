// Wire format of machine summaries (distributed/summary_wire.hpp):
//
//   (a) round-trip: decode(encode(s)) is IDENTICAL to s for every summary
//       shape the transport carries, over a generator x seed grid — doubles
//       bit-exactly (the weighted differential depends on it),
//   (b) the frame header survives its own codec and self-describes the
//       payload length,
//   (c) the downlink piece path: a piece frame sent as
//       encode_piece_frame_prefix + the shard's raw edge bytes decodes
//       through decode_piece_frame_view to the same piece, borrowed in place,
//   (d) adversarial inputs DIE with a "summary wire:" diagnostic instead of
//       reaching a fold: bad magic, version skew, unknown shape tag,
//       nonzero reserved word, oversize payload claim, shape mismatch,
//       truncation, trailing bytes, out-of-range ids, self-loops, negative,
//       NaN and infinite weights, lying length prefixes, and piece frames
//       whose edge count, ids or shape tag are wrong.
#include "distributed/summary_wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "distributed/protocols.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rcc {
namespace {

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

TEST(SummaryWire, WeightedEdgesRoundTripBitExactly) {
  WeightedCoresetOutput coreset;
  coreset.edges.num_vertices = 16;
  // Weights chosen to catch any decimal detour: subnormal, non-representable
  // fractions, huge magnitudes.
  coreset.edges.edges = {{0, 1, 0.1}, {2, 3, 1.0 / 3.0},
                         {4, 5, std::numeric_limits<double>::denorm_min()},
                         {6, 7, 1e300}, {8, 9, 0.0}};
  const WeightedCoresetOutput back = round_trip(coreset);
  ASSERT_EQ(back.edges.edges.size(), coreset.edges.edges.size());
  for (std::size_t i = 0; i < coreset.edges.edges.size(); ++i) {
    EXPECT_EQ(back.edges.edges[i].u, coreset.edges.edges[i].u);
    EXPECT_EQ(back.edges.edges[i].v, coreset.edges.edges[i].v);
    std::uint64_t before, after;
    std::memcpy(&before, &coreset.edges.edges[i].weight, sizeof before);
    std::memcpy(&after, &back.edges.edges[i].weight, sizeof after);
    EXPECT_EQ(before, after) << "weight bits drifted at edge " << i;
  }
}

TEST(SummaryWire, PathBatchRoundTrips) {
  std::vector<AugmentingPath> paths(3);
  paths[0].vertices = {1, 2};
  paths[1].vertices = {3, 4, 5, 6};
  paths[2].vertices = {7, 8, 9, 10, 11, 12, 13, 14, 15, 16};  // spills inline
  const std::vector<AugmentingPath> back = round_trip(paths);
  EXPECT_EQ(back, paths);
}

TEST(SummaryWire, VcCoresetBatchRoundTrips) {
  Rng rng(11);
  std::vector<VcCoresetOutput> batch(3);
  for (VcCoresetOutput& coreset : batch) {
    coreset.residual_edges = gnp(50, 0.08, rng);
    coreset.fixed_vertices = {1, 2, 49};
  }
  batch[1].fixed_vertices.clear();  // an empty class must survive too
  const std::vector<VcCoresetOutput> back = round_trip(batch);
  ASSERT_EQ(back.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(back[i].residual_edges.edges(), batch[i].residual_edges.edges());
    EXPECT_EQ(back[i].fixed_vertices, batch[i].fixed_vertices);
  }
}

TEST(SummaryWire, GroupedVcSummaryRoundTrips) {
  Rng rng(13);
  GroupedVcSummary summary;
  summary.core.residual_edges = gnp(60, 0.06, rng);  // the group universe
  summary.core.fixed_vertices = {2, 5, 59};
  summary.pinned_groups = {0, 7, 41, 59};
  const GroupedVcSummary back = round_trip(summary);
  EXPECT_EQ(back.core.residual_edges.edges(),
            summary.core.residual_edges.edges());
  EXPECT_EQ(back.core.fixed_vertices, summary.core.fixed_vertices);
  EXPECT_EQ(back.pinned_groups, summary.pinned_groups);
}

TEST(SummaryWire, EmptySummariesRoundTrip) {
  EXPECT_EQ(round_trip(EdgeList(0)).num_edges(), 0u);
  EXPECT_TRUE(round_trip(std::vector<AugmentingPath>{}).empty());
  EXPECT_TRUE(round_trip(std::vector<VcCoresetOutput>{}).empty());
  const GroupedVcSummary empty_grouped = round_trip(GroupedVcSummary{});
  EXPECT_EQ(empty_grouped.core.residual_edges.num_edges(), 0u);
  EXPECT_TRUE(empty_grouped.pinned_groups.empty());
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

TEST(SummaryWireDeathTest, OutOfRangeVertexDies) {
  std::vector<std::uint8_t> payload;
  WireWriter writer(payload);
  writer.u32(4);   // universe of 4 vertices
  writer.u64(1);   // one edge
  writer.u32(1);
  writer.u32(4);   // == n: out of range
  WireReader reader(payload.data(), payload.size());
  EXPECT_DEATH((void)SummaryCodec<EdgeList>::decode(reader),
               "summary wire: edge 0 = \\(1, 4\\) leaves the 4-vertex");
}

TEST(SummaryWireDeathTest, SelfLoopDies) {
  std::vector<std::uint8_t> payload;
  WireWriter writer(payload);
  writer.u32(4);
  writer.u64(1);
  writer.u32(2);
  writer.u32(2);
  WireReader reader(payload.data(), payload.size());
  EXPECT_DEATH((void)SummaryCodec<EdgeList>::decode(reader),
               "summary wire: edge 0 is a self-loop at vertex 2");
}

TEST(SummaryWireDeathTest, NegativeAndNanWeightsDie) {
  for (const double bad :
       {-1.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<std::uint8_t> payload;
    WireWriter writer(payload);
    writer.u32(4);
    writer.u64(1);
    writer.u32(0);
    writer.u32(1);
    writer.f64(bad);
    WireReader reader(payload.data(), payload.size());
    EXPECT_DEATH((void)SummaryCodec<WeightedCoresetOutput>::decode(reader),
                 "summary wire: weighted edge 0 carries a negative or NaN");
  }
}

TEST(SummaryWireDeathTest, InfiniteWeightDies) {
  std::vector<std::uint8_t> payload;
  WireWriter writer(payload);
  writer.u32(4);
  writer.u64(1);
  writer.u32(0);
  writer.u32(1);
  writer.f64(std::numeric_limits<double>::infinity());
  WireReader reader(payload.data(), payload.size());
  EXPECT_DEATH((void)SummaryCodec<WeightedCoresetOutput>::decode(reader),
               "summary wire: weighted edge 0 carries an infinite weight");
}

TEST(SummaryWireDeathTest, LyingLengthPrefixesDie) {
  // An edge list claiming more edges than the payload could hold must die at
  // the sanity gate, BEFORE any reserve.
  std::vector<std::uint8_t> payload;
  WireWriter writer(payload);
  writer.u32(4);
  writer.u64(std::uint64_t{1} << 60);
  WireReader reader(payload.data(), payload.size());
  EXPECT_DEATH((void)SummaryCodec<EdgeList>::decode(reader),
               "summary wire: edge list claims .* edges but only");

  // Same for a path batch whose path lies about its vertex count.
  std::vector<std::uint8_t> batch;
  WireWriter batch_writer(batch);
  batch_writer.u64(1);
  batch_writer.u32(1000);  // 1000 vertices, zero bytes behind them
  WireReader batch_reader(batch.data(), batch.size());
  EXPECT_DEATH(
      (void)SummaryCodec<std::vector<AugmentingPath>>::decode(batch_reader),
      "summary wire: path 0 claims 1000 vertices");

  // And for a grouped summary lying about its pinned-group count.
  std::vector<std::uint8_t> grouped;
  WireWriter grouped_writer(grouped);
  grouped_writer.u32(4);  // core: empty edge list over 4 groups
  grouped_writer.u64(0);
  grouped_writer.u64(0);  // no fixed vertices
  grouped_writer.u64(std::uint64_t{1} << 60);
  WireReader grouped_reader(grouped.data(), grouped.size());
  EXPECT_DEATH((void)SummaryCodec<GroupedVcSummary>::decode(grouped_reader),
               "summary wire: grouped vc summary claims .* pinned groups");
}

TEST(SummaryWireDeathTest, OutOfRangePinnedGroupDies) {
  std::vector<std::uint8_t> payload;
  WireWriter writer(payload);
  writer.u32(4);  // core: empty edge list over a 4-group universe
  writer.u64(0);
  writer.u64(0);  // no fixed vertices
  writer.u64(1);  // one pinned group...
  writer.u32(4);  // ...== n_groups: out of range
  WireReader reader(payload.data(), payload.size());
  EXPECT_DEATH((void)SummaryCodec<GroupedVcSummary>::decode(reader),
               "summary wire: pinned group 0 = 4 leaves the 4-group universe");
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

}  // namespace
}  // namespace rcc
