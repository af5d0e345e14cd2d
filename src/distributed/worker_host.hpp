// The one cross-process seam of the machine phase: a worker host, a
// per-machine frame channel, and one fault plan, behind both process media.
//
// In the simultaneous model every machine sends one summary to the
// coordinator; that is the only step that crosses a process. WorkerHost owns
// everything about those processes. It creates machine i's channel right
// before forking machine i's worker, so the machine id is known by
// construction. It ships piece frames down and reassembles summary frames
// coming up (both in the versioned framing of summary_wire.hpp), diagnoses a
// dead worker by machine id and round, runs the shutdown handshake, and
// reaps. Every worker runs the engine's one loop (protocol_engine.hpp): read
// a piece frame, build, write the summary frame, until a shutdown frame.
//
// Two media carry the same frames byte for byte:
//   socket — a connected loopback-TCP pair per machine (the coordinator
//            connects and accepts; each side closes the other's end);
//   shm    — a pair of SPSC byte rings per machine in one MAP_SHARED mapping
//            made before the first fork, futex-signaled; workers bump one
//            shared doorbell word so the coordinator can wait on k uplinks.
// The only per-medium code is write bytes / read available bytes / wait for
// progress. Reassembly, deadlines, fault injection and diagnostics are shared.
//
// Host lifetimes: a single-round engine call spawns a host for that round and
// queues each worker's shutdown frame right behind its round-0 frame, so
// workers exit once their summary is written. run_mpc_rounds keeps one host
// for a whole run of a round-invariant build: k forks serve every round.
//
// Every coordinator wait is bounded by timeout_ms. Failures die through
// transport_fail ("<medium> transport: ...") naming the machine and round:
// a lost worker is a failed run, never a hang.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "distributed/summary_wire.hpp"

namespace rcc {

/// How machine summaries reach the coordinator.
enum class EngineTransport {
  kInproc,  // shared address space: one thread-pool task per machine
  kSocket,  // forked workers, one loopback-TCP pair per machine
  kShm,     // forked workers, one shared-memory ring pair per machine
};

/// Fault injection for the forked workers, so tests can pin every failure
/// path; production runs leave every machine field at -1.
struct FaultPlan {
  /// This machine's worker exits silently right after reading its round
  /// `kill_round` piece frame.
  int kill_machine = -1;
  int kill_round = 0;
  /// This machine's worker writes its frame header plus half the payload,
  /// then dies (the torn-frame case).
  int partial_frame_machine = -1;
  /// This machine's worker ignores the shutdown frame and sleeps; the host
  /// must SIGKILL it after timeout_ms and name it.
  int ignore_shutdown_machine = -1;
};

class WorkerHost;

/// How the machine phase reaches the coordinator.
struct StreamingOptions {
  /// Where the machine phase runs. kSocket and kShm take Edge pieces and a
  /// summary with a wire layout (WireSerializable: an EdgeList or a
  /// VcCoresetOutput), so they serve the coreset matching and VC protocols,
  /// the coreset MPC drivers and filtering; they ignore the thread pool —
  /// the worker processes are the parallelism.
  EngineTransport transport = EngineTransport::kInproc;
  /// Deadline of every coordinator wait and of a worker's mid-frame waits.
  /// A worker silent this long fails the run with its machine id.
  int timeout_ms = 10000;
  /// Data capacity of each shm ring (rounded up to a power of two). Larger
  /// frames still flow, chunked; this sizes the overlap window only.
  std::size_t ring_bytes = std::size_t{1} << 20;
  FaultPlan faults;
  /// A host kept alive across engine calls, or null. run_mpc_rounds sets
  /// this for round-invariant builds: the host spawns inside round 0, right
  /// after the first partition, so round 0's pieces ride the fork and later
  /// rounds ship theirs down the channels. Null means each engine call
  /// spawns and reaps its own host. Edge-typed pieces only.
  WorkerHost* worker_host = nullptr;
};

/// Prints "<medium> transport: <formatted message>" to stderr and aborts.
/// Transport failures (timeouts, torn frames, dead workers) are protocol
/// violations, the same philosophy as wire_fail.
[[noreturn]] void transport_fail(EngineTransport medium, const char* fmt, ...);

namespace host_detail {
class ChannelEnd;
class Medium;
}  // namespace host_detail

/// A worker's end of its machine channel. Lives only in the forked child,
/// and applies the host's FaultPlan to its own machine.
class WorkerChannel {
 public:
  /// Next complete frame from the coordinator. Waiting for a frame to start
  /// is unbounded (a kept worker idles here between rounds) but exits
  /// quietly once the coordinator is gone; the rest of a started frame must
  /// land within timeout_ms.
  ReadyFrame read_frame();

  /// Writes one frame as its segments back to back, so a bulk summary
  /// streams straight off its storage (GatherFrame) without a staging copy.
  void write_frame(std::span<const FrameSegment> segments);
  void write_frame(const std::uint8_t* bytes, std::size_t size) {
    const FrameSegment whole{bytes, size};
    write_frame({&whole, 1});
  }

  std::size_t machine() const { return machine_; }

 private:
  friend class WorkerHost;
  WorkerChannel(host_detail::ChannelEnd& end, std::size_t machine,
                pid_t coordinator, EngineTransport medium, int timeout_ms,
                const FaultPlan& faults);

  void write_bytes(const std::uint8_t* bytes, std::size_t size);
  /// Exits quietly when the coordinator died: the failure is its, not ours.
  void exit_if_orphaned() const;

  host_detail::ChannelEnd& end_;
  std::size_t machine_;
  pid_t coordinator_;
  EngineTransport medium_;
  int timeout_ms_;
  FaultPlan faults_;
  std::uint32_t pieces_read_ = 0;
};

/// Coordinator side: k forked workers, one channel each. Call spawn() once,
/// then any number of { begin_round(); send_frame() x k; next_ready() x k },
/// then send_shutdown() and reap(). The destructor SIGKILLs and reaps any
/// worker still alive.
class WorkerHost {
 public:
  WorkerHost(std::size_t machines, const StreamingOptions& options);
  ~WorkerHost();

  WorkerHost(const WorkerHost&) = delete;
  WorkerHost& operator=(const WorkerHost&) = delete;

  /// Forks one worker per machine, creating each channel right before its
  /// fork; worker i runs body(channel) in the child and _exit(0)s when it
  /// returns. Call exactly once. Free heap pages go back to the kernel
  /// first, so no worker maps, counts or copy-on-write-shares the
  /// coordinator's dead heap.
  template <typename Body>
  void spawn(const Body& body) {
    spawn_impl(
        [](void* ctx, WorkerChannel& channel) {
          (*static_cast<const Body*>(ctx))(channel);
        },
        const_cast<void*>(static_cast<const void*>(&body)));
  }
  bool spawned() const { return !pids_.empty(); }

  /// Opens the next collection round (the first call opens round 0): the
  /// next machines() next_ready() calls belong to it.
  void begin_round();

  /// Writes one frame (`prefix` then `body`) down machine's channel,
  /// bounded by timeout_ms per stall; a worker that died mid-delivery is
  /// named with the round.
  void send_frame(std::size_t machine, const std::uint8_t* prefix,
                  std::size_t prefix_bytes, const std::uint8_t* body = nullptr,
                  std::size_t body_bytes = 0);

  /// Next completed summary frame of the current round, in arrival order.
  /// Must be called exactly machines() times per round. Foreign machine
  /// ids, bytes past a frame, torn frames, dead workers and deadline
  /// overruns all transport_fail naming the machines and the round.
  ReadyFrame next_ready();

  /// Queues a shutdown frame to every worker still reachable.
  void send_shutdown();

  /// Waits (bounded by timeout_ms) for every live worker to exit cleanly
  /// after its shutdown frame; one that ignores it is SIGKILLed and named.
  void reap();

  std::size_t machines() const { return machines_; }
  EngineTransport medium() const { return medium_kind_; }
  std::uint32_t round() const { return round_; }
  /// Summary-frame bytes received (headers + payloads), cumulative.
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  /// Piece-frame bytes sent down (shutdown frames excluded), cumulative.
  std::uint64_t piece_bytes() const { return piece_bytes_; }
  /// Worker processes forked over the host's lifetime.
  std::uint64_t forks() const { return pids_.size(); }
  /// Largest peak RSS (ru_maxrss) among the workers reaped so far, in
  /// bytes: each worker's own high-water mark, not a process-lifetime
  /// maximum over every child the coordinator ever had.
  std::uint64_t worker_peak_rss_bytes() const {
    return worker_peak_rss_bytes_;
  }

 private:
  /// Per-machine frame reassembly: the header lands in a fixed array and
  /// the payload is read directly into the storage the ReadyFrame ships
  /// (which decode_frame hands on to the summary).
  struct Assembly {
    std::size_t header_filled = 0;
    std::array<std::uint8_t, kFrameHeaderBytes> header_bytes{};
    bool header_parsed = false;
    std::size_t payload_filled = 0;
    ReadyFrame frame;
  };

  using WorkerFn = void (*)(void* ctx, WorkerChannel& channel);
  void spawn_impl(WorkerFn fn, void* ctx);
  /// Writes `size` bytes down machine's channel; returns fewer only when
  /// the worker is gone.
  std::size_t deliver(std::size_t machine, const std::uint8_t* bytes,
                      std::size_t size);
  /// True when machine's worker has exited or closed its channel.
  bool worker_gone(std::size_t machine);
  /// wait4 on machine's worker; on reaping it, marks it dead and records
  /// its peak RSS. Returns wait4's result.
  pid_t wait_worker(std::size_t machine, int* status, int options);
  /// Reads machine's available bytes into its assembly; completed frames
  /// move to ready_. Returns true when any byte arrived.
  bool drain(std::size_t machine);
  /// A machine that still owes this round's frame and whose worker is
  /// gone gets a final drain, then transport_fail naming it.
  void check_for_dead_workers();
  [[noreturn]] void fail_missing() const;

  std::size_t machines_;
  EngineTransport medium_kind_;
  int timeout_ms_;
  FaultPlan faults_;
  std::unique_ptr<host_detail::Medium> medium_;
  std::vector<std::unique_ptr<host_detail::ChannelEnd>> ends_;
  std::vector<pid_t> pids_;
  std::vector<char> alive_;
  std::vector<Assembly> assembly_;
  std::vector<char> completed_;  // frame landed this round
  std::deque<ReadyFrame> ready_;
  std::uint32_t round_ = 0;
  bool round_open_ = false;
  std::size_t delivered_this_round_ = 0;
  std::uint64_t wire_bytes_ = 0;
  std::uint64_t piece_bytes_ = 0;
  std::uint64_t worker_peak_rss_bytes_ = 0;
};

}  // namespace rcc
