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
// All scalars are little-endian. Two summary shapes cross a process: an
// edge list (Theorem 1's matching coreset, filtering's sample) and a VC
// coreset (Theorem 2's peeling summary). Each has one encoder, GatherFrame,
// and one decoder, SummaryCodec<T>::adopt; encode_frame and
// decode_frame_payload are thin wrappers over those two.
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

/// Payload tag of a frame: one per summary type that crosses a process,
/// plus the coordinator->worker frames of the worker host (pieces ride the
/// same versioned framing as summaries, so one header decoder and one
/// validation funnel serve both directions).
enum class SummaryShape : std::uint16_t {
  kEdgeList = 1,       // coreset matching / filtering rounds
  kVcCoreset = 2,      // vertex cover: residual edges + fixed vertices
  // 3-6 are retired: weighted edges, the augmenting-path batch, the VC
  // coreset batch and grouped VC. The header decoder rejects them, and
  // they are never reused.
  kPieceDelivery = 7,  // downlink: one round's piece + forked RNG stream
  kShutdown = 8,       // downlink: worker exit handshake (empty)
};

/// Prints "summary wire: <formatted message>" to stderr and aborts. Every
/// decode-side validation funnels through here so malformed input dies with
/// a diagnostic instead of corrupting a fold.
[[noreturn]] void wire_fail(const char* fmt, ...);

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

/// Frame header plus the fixed head of a kPieceDelivery payload (round, rng
/// state, num_vertices, num_edges): everything before the edge records.
inline constexpr std::size_t kPieceFramePrefixBytes =
    kFrameHeaderBytes + 4 + 32 + 4 + 8;

/// One contiguous run of a frame's bytes.
struct FrameSegment {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// The one encoder of a summary frame, laid out for a gather write — the
/// uplink counterpart of encode_piece_frame_prefix. The fixed-width fields
/// are staged in this object; the edge records and fixed vertices are
/// pointed at in the summary's own storage (the wire's u32 records are
/// their memory layout), so a worker writes its summary with no frame-sized
/// staging copy. Borrows the summary, which must outlive the frame.
class GatherFrame {
 public:
  /// kEdgeList payload: u32 num_vertices, u64 num_edges, then (u32 u,
  /// u32 v) per edge.
  GatherFrame(const EdgeList& summary, std::uint32_t machine);
  /// kVcCoreset payload: the residual edge list laid out as above, u64
  /// fixed count, u32 per fixed vertex.
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

/// The one decoder of a summary shape: its tag, and adopt(), which checks a
/// received frame (shape, lengths, ids, exact consumption) and hands the
/// frame's storage to the summary's edge list. The records move over the
/// list's 12-byte prefix in place, normalized to u < v as they go, so a
/// decode allocates no second edge buffer and copies no record out of the
/// frame.
template <typename T>
struct SummaryCodec;

template <>
struct SummaryCodec<EdgeList> {
  static constexpr SummaryShape kShape = SummaryShape::kEdgeList;
  static EdgeList adopt(ReadyFrame&& frame);
};

template <>
struct SummaryCodec<VcCoresetOutput> {
  static constexpr SummaryShape kShape = SummaryShape::kVcCoreset;
  static VcCoresetOutput adopt(ReadyFrame&& frame);
};

/// A summary type the cross-process transports can carry: an EdgeList or a
/// VcCoresetOutput.
template <typename T>
concept WireSerializable =
    std::constructible_from<GatherFrame, const T&, std::uint32_t> &&
    requires(ReadyFrame&& frame) {
      { SummaryCodec<T>::adopt(std::move(frame)) } -> std::same_as<T>;
    };

/// Writes the header + fixed payload prefix of a piece frame into `out`
/// (kPieceFramePrefixBytes of space). The num_edges * 8 edge bytes follow
/// directly on the wire, and the wire's (u32 u, u32 v) records are Edge's
/// memory layout — so a sender streams the shard span itself as the frame
/// body with no staging copy. The kPieceDelivery payload is u32 round,
/// 4 x u64 rng state (the machine RNG stream the coordinator forked for
/// this round), then an edge list piece laid out as a kEdgeList payload.
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
/// without materializing an owning EdgeList. Runs the edge list decoder's
/// checks — ids in range, no self-loops — plus exact payload consumption,
/// just without taking the storage. The view borrows the payload buffer: it
/// is valid only while the frame it was decoded from lives.
struct PieceDeliveryView {
  std::uint32_t round = 0;
  std::array<std::uint64_t, 4> rng_state{};
  VertexId num_vertices = 0;
  const Edge* edges = nullptr;
  std::size_t num_edges = 0;
};

/// Decodes and validates a piece frame as a borrowing view (shape-checked
/// against kPieceDelivery; wire_fails on any violation, like
/// decode_frame).
PieceDeliveryView decode_piece_frame_view(const FrameHeader& header,
                                          const std::uint8_t* payload);

/// Encodes one complete frame (header + payload) into one buffer: the
/// GatherFrame's segments back to back.
template <WireSerializable T>
std::vector<std::uint8_t> encode_frame(const T& summary,
                                       std::uint32_t machine) {
  const GatherFrame frame(summary, machine);
  std::size_t size = 0;
  for (const FrameSegment& segment : frame.segments()) size += segment.size;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(size);
  for (const FrameSegment& segment : frame.segments()) {
    bytes.insert(bytes.end(), segment.data, segment.data + segment.size);
  }
  return bytes;
}

/// Decodes a received frame through T's decoder; wire_fails on any
/// violation, shape mismatch and trailing bytes included.
template <WireSerializable T>
T decode_frame(ReadyFrame&& frame) {
  return SummaryCodec<T>::adopt(std::move(frame));
}

/// Decodes a payload that lies in the caller's storage against a validated
/// header: the payload is copied into a ReadyFrame and decoded by
/// decode_frame, so its checks, diagnostics and result are that path's.
template <WireSerializable T>
T decode_frame_payload(const FrameHeader& header, const std::uint8_t* data) {
  ReadyFrame frame(header);
  if (frame.size() != 0) std::memcpy(frame.bytes(), data, frame.size());
  return decode_frame<T>(std::move(frame));
}

}  // namespace rcc
