// Versioned wire format for machine summaries.
//
// The coordinator model is only honest about communication once a summary
// actually crosses a process boundary: this header defines the frame every
// worker process sends through its channel (worker_host.hpp).
// A frame is a fixed 24-byte header followed by a shape-tagged payload:
//
//   offset  size  field
//        0     4  magic          0x52434357 ("WCCR" little-endian)
//        4     2  version        kWireVersion (= 1)
//        6     2  shape          SummaryShape tag of the payload
//        8     4  machine        sending machine's id in [0, k)
//       12     4  reserved       must be 0
//       16     8  payload_bytes  payload length (<= kMaxFramePayloadBytes)
//
// All scalars are little-endian; doubles travel as their IEEE-754 bit
// pattern in a u64, so weighted summaries round-trip BIT-identically (the
// seed-for-seed differential depends on that — a decimal detour would
// perturb the weighted merge).
//
// Error philosophy matches the rest of the library: a malformed frame
// (bad magic, version skew, truncation, oversize, trailing bytes,
// out-of-range vertex ids) is a protocol violation, not a recoverable
// condition — wire_fail prints a "summary wire:" diagnostic naming what was
// wrong and aborts, so the adversarial-input tests are death tests and no
// malformed byte ever reaches a fold.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "coreset/coreset.hpp"
#include "coreset/weighted_coreset.hpp"
#include "graph/edge_list.hpp"
#include "util/types.hpp"

namespace rcc {

// Frames are defined little-endian; the library targets little-endian hosts
// (x86-64 / AArch64), so scalar encode/decode is a plain memcpy.
static_assert(std::endian::native == std::endian::little,
              "summary wire codecs assume a little-endian host");

inline constexpr std::uint32_t kWireMagic = 0x52434357u;  // "WCCR" on the wire
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Per-frame payload cap: a summary is a COMPRESSED view of a machine's
/// piece, so anything beyond 1 GiB is a corrupt length field, not data.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1} << 30;

/// Payload tag of a frame: one per summary type a round-combiner sends,
/// plus the coordinator->worker frames of the worker host (pieces ride the
/// same versioned framing as summaries, so one header decoder and one
/// validation funnel serve both directions).
enum class SummaryShape : std::uint16_t {
  kEdgeList = 1,       // coreset matching / filtering rounds
  kVcCoreset = 2,      // vertex cover: residual edges + fixed vertices
  kWeightedEdges = 3,  // Crouch-Stubbs weighted matching coreset
  // 4 is retired (the augmenting-path batch); the decoder rejects it.
  kVcCoresetBatch = 5, // weighted VC: one VcCoresetOutput per weight level
  kGroupedVc = 6,      // grouped VC: core coreset + pinned group ids
  kPieceDelivery = 7,  // downlink: one round's piece + forked RNG stream
  kShutdown = 8,       // downlink: worker exit handshake (empty)
};

/// Prints "summary wire: <formatted message>" to stderr and aborts. Every
/// decode-side validation funnels through here so malformed input dies with
/// a diagnostic instead of corrupting a fold.
[[noreturn]] void wire_fail(const char* fmt, ...);

/// Appends little-endian scalars to a byte buffer. Encoding never fails —
/// writers serialize in-memory values that already satisfy the library's
/// invariants.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  /// IEEE-754 bit pattern via u64: bit-exact, NaN payloads included.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

 private:
  void append(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + size);
  }
  std::vector<std::uint8_t>* out_;
};

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
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Consumes the next `size` bytes and returns them in place; fewer left
  /// is a truncated frame (`what` names the field in the diagnostic).
  const std::uint8_t* bytes(std::size_t size, const char* what);

  std::size_t remaining() const { return size_ - cursor_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

/// Shape tag + byte-level codec for one summary type. Specializations are
/// the single source of truth for each payload layout; encode and decode
/// are exact inverses (decode(encode(s)) is bit-identical to s).
template <typename T>
struct SummaryCodec;  // specialized per summary shape below

/// A summary type the cross-process transports can carry.
template <typename T>
concept WireSerializable =
    requires(const T& value, WireWriter& writer, WireReader& reader) {
      { SummaryCodec<T>::kShape } -> std::convertible_to<SummaryShape>;
      SummaryCodec<T>::encode(value, writer);
      { SummaryCodec<T>::decode(reader) } -> std::same_as<T>;
    };

/// Decoded frame header; `payload_bytes` bytes of payload follow on the wire.
struct FrameHeader {
  SummaryShape shape;
  std::uint32_t machine;
  std::uint64_t payload_bytes;
};

/// One received frame: its validated header and its payload. The payload
/// is held in 8-byte records, so decode_frame can hand the storage itself
/// to the decoded summary's edge list instead of copying out of it.
struct ReadyFrame {
  ReadyFrame() = default;
  /// Storage for `header`'s payload; the receiver fills bytes().
  explicit ReadyFrame(const FrameHeader& header)
      : header(header), payload((header.payload_bytes + 7) / 8) {}

  std::uint8_t* bytes() {
    return reinterpret_cast<std::uint8_t*>(payload.data());
  }
  const std::uint8_t* bytes() const {
    return reinterpret_cast<const std::uint8_t*>(payload.data());
  }
  std::size_t size() const {
    return static_cast<std::size_t>(header.payload_bytes);
  }

  FrameHeader header{};
  std::vector<Edge> payload;  // size() bytes, rounded up to whole records
};

template <>
struct SummaryCodec<EdgeList> {
  static constexpr SummaryShape kShape = SummaryShape::kEdgeList;
  // Layout: u32 num_vertices, u64 num_edges, then (u32 u, u32 v) per edge.
  static void encode(const EdgeList& list, WireWriter& writer);
  static EdgeList decode(WireReader& reader);
  /// decode_frame's path: the list adopts the frame's storage.
  static EdgeList adopt(ReadyFrame&& frame);
};

template <>
struct SummaryCodec<VcCoresetOutput> {
  static constexpr SummaryShape kShape = SummaryShape::kVcCoreset;
  // Layout: EdgeList residual, u64 fixed count, u32 per fixed vertex.
  static void encode(const VcCoresetOutput& coreset, WireWriter& writer);
  static VcCoresetOutput decode(WireReader& reader);
  /// decode_frame's path: the residual list adopts the frame's storage.
  static VcCoresetOutput adopt(ReadyFrame&& frame);
};

template <>
struct SummaryCodec<WeightedCoresetOutput> {
  static constexpr SummaryShape kShape = SummaryShape::kWeightedEdges;
  // Layout: u32 num_vertices, u64 num_edges, then (u32, u32, f64-bits).
  static void encode(const WeightedCoresetOutput& coreset, WireWriter& writer);
  static WeightedCoresetOutput decode(WireReader& reader);
};

template <>
struct SummaryCodec<std::vector<VcCoresetOutput>> {
  static constexpr SummaryShape kShape = SummaryShape::kVcCoresetBatch;
  // Layout: u64 coreset count, then each VcCoresetOutput as above.
  static void encode(const std::vector<VcCoresetOutput>& batch,
                     WireWriter& writer);
  static std::vector<VcCoresetOutput> decode(WireReader& reader);
};

struct GroupedVcSummary;  // distributed/protocols.hpp

template <>
struct SummaryCodec<GroupedVcSummary> {
  static constexpr SummaryShape kShape = SummaryShape::kGroupedVc;
  // Layout: VcCoresetOutput core (in the contracted group universe — its
  // residual edge list's num_vertices IS the group count), u64 pinned-group
  // count, u32 per pinned group id.
  static void encode(const GroupedVcSummary& summary, WireWriter& writer);
  static GroupedVcSummary decode(WireReader& reader);
};

/// Frame header plus the fixed head of a kPieceDelivery payload (round, rng
/// state, num_vertices, num_edges): everything before the edge records.
inline constexpr std::size_t kPieceFramePrefixBytes =
    kFrameHeaderBytes + 4 + 32 + 4 + 8;

/// One contiguous run of a frame's bytes.
struct FrameSegment {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// A bulk summary frame laid out for a gather write — the uplink
/// counterpart of encode_piece_frame_prefix. The fixed-width fields are
/// staged in this object; the edge records and fixed vertices are pointed
/// at in the summary's own storage (the wire's u32 records are their memory
/// layout), so a worker writes its summary with no frame-sized staging
/// copy. The segments back to back are byte-identical to encode_frame over
/// the same summary. Borrows the summary, which must outlive the frame.
class GatherFrame {
 public:
  GatherFrame(const EdgeList& summary, std::uint32_t machine);
  GatherFrame(const VcCoresetOutput& summary, std::uint32_t machine);
  GatherFrame(const GatherFrame&) = delete;  // segments point into it
  GatherFrame& operator=(const GatherFrame&) = delete;

  std::span<const FrameSegment> segments() const {
    return {segments_.data(), count_};
  }

 private:
  /// Stages the header and the edge list's (num_vertices, num_edges) head
  /// and points at its edge records; `tail_bytes` more payload follows.
  void begin(const EdgeList& edges, SummaryShape shape, std::uint32_t machine,
             std::uint64_t tail_bytes);
  void add(const void* data, std::size_t size);

  std::array<std::uint8_t, kFrameHeaderBytes + 4 + 8> head_{};
  std::array<std::uint8_t, 8> fixed_count_{};
  std::array<FrameSegment, 4> segments_{};
  std::size_t count_ = 0;
};

/// A summary type with a gather layout (GatherFrame).
template <typename T>
concept GatherWritable =
    std::constructible_from<GatherFrame, const T&, std::uint32_t>;

/// Writes the header + fixed payload prefix of a piece frame into `out`
/// (kPieceFramePrefixBytes of space). The num_edges * 8 edge bytes follow
/// directly on the wire, and the wire's (u32 u, u32 v) records are Edge's
/// memory layout — so a sender streams the shard span itself as the frame
/// body with no staging copy. The kPieceDelivery payload is u32 round,
/// 4 x u64 rng state (the machine RNG stream the coordinator forked for
/// this round), then an EdgeList piece laid out as in SummaryCodec<EdgeList>.
void encode_piece_frame_prefix(std::size_t num_edges, VertexId num_vertices,
                               const std::array<std::uint64_t, 4>& rng_state,
                               std::uint32_t round, std::uint32_t machine,
                               std::uint8_t* out);

/// Encodes the (payload-free) shutdown frame of the worker exit
/// handshake.
std::vector<std::uint8_t> encode_shutdown_frame(std::uint32_t machine);

/// Writes the 24-byte header into `out` (caller guarantees the space).
void encode_frame_header(const FrameHeader& header, std::uint8_t* out);

/// Parses and VALIDATES a 24-byte header: magic, version, reserved word,
/// shape tag range, and the payload cap all wire_fail on violation.
FrameHeader decode_frame_header(const std::uint8_t* bytes);

/// Zero-copy view of a received kPieceDelivery payload: `edges` points INTO
/// the frame payload (the wire's (u32 u, u32 v) records are Edge's memory
/// layout, asserted in the codec), so a worker reads its piece
/// without materializing an owning EdgeList. Runs the checks of
/// SummaryCodec<EdgeList>::decode — ids in range, no self-loops — plus exact
/// payload consumption, just without the copy. The view borrows the payload
/// buffer: it is valid only while the frame it was decoded from lives.
struct PieceDeliveryView {
  std::uint32_t round = 0;
  std::array<std::uint64_t, 4> rng_state{};
  VertexId num_vertices = 0;
  const Edge* edges = nullptr;
  std::size_t num_edges = 0;
};

/// Decodes and validates a piece frame as a borrowing view (shape-checked
/// against kPieceDelivery; wire_fails on any violation, like
/// decode_frame_payload).
PieceDeliveryView decode_piece_frame_view(const FrameHeader& header,
                                          const std::uint8_t* payload);

/// Encodes one complete frame (header + payload) ready for send_all.
template <WireSerializable T>
std::vector<std::uint8_t> encode_frame(const T& summary,
                                       std::uint32_t machine) {
  std::vector<std::uint8_t> bytes(kFrameHeaderBytes, 0);
  WireWriter writer(bytes);
  SummaryCodec<T>::encode(summary, writer);
  const std::uint64_t payload = bytes.size() - kFrameHeaderBytes;
  if (payload > kMaxFramePayloadBytes) {
    wire_fail("machine %u summary payload (%llu bytes) exceeds the frame cap",
              machine, static_cast<unsigned long long>(payload));
  }
  encode_frame_header(FrameHeader{SummaryCodec<T>::kShape, machine, payload},
                      bytes.data());
  return bytes;
}

/// wire_fails unless `header` carries the `expected` shape tag.
void expect_shape(const FrameHeader& header, SummaryShape expected);

/// wire_fails when a decode left `remaining` of the header's payload
/// bytes unread (trailing bytes are a framing error).
void expect_consumed(const FrameHeader& header, std::size_t remaining);

/// Decodes a received payload against a validated header: the shape must
/// match T's and the payload must be consumed exactly.
template <WireSerializable T>
T decode_frame_payload(const FrameHeader& header, const std::uint8_t* data) {
  expect_shape(header, SummaryCodec<T>::kShape);
  WireReader reader(data, static_cast<std::size_t>(header.payload_bytes));
  T value = SummaryCodec<T>::decode(reader);
  expect_consumed(header, reader.remaining());
  return value;
}

/// A summary type whose decoder can adopt a received frame's storage.
template <typename T>
concept FrameAdoptable = requires(ReadyFrame&& frame) {
  { SummaryCodec<T>::adopt(std::move(frame)) } -> std::same_as<T>;
};

/// Decodes a received frame: the checks, diagnostics and result of
/// decode_frame_payload. An EdgeList or VcCoresetOutput takes the frame's
/// storage as its (residual) edge list: the records move over the list's
/// 12-byte prefix in place, normalized as they go, so the decode allocates
/// no second edge buffer and copies no record out of the frame.
template <WireSerializable T>
T decode_frame(ReadyFrame&& frame) {
  if constexpr (FrameAdoptable<T>) {
    return SummaryCodec<T>::adopt(std::move(frame));
  } else {
    return decode_frame_payload<T>(frame.header, frame.bytes());
  }
}

}  // namespace rcc
