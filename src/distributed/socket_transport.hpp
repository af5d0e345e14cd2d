// Loopback socket transport for the cross-process machine phase.
//
// The first execution path where the paper's k machines are genuinely
// separate processes: the coordinator binds one listening socket on
// 127.0.0.1, forks k workers, and every worker builds its summary on its
// (copy-on-write inherited) piece, frames it per summary_wire.hpp, connects
// to the coordinator's port, streams the frame, and exits. This is the
// degenerate single-listener form of the leader/pivot port scheme of the
// multi-party exemplars: one well-known leader port, and the sender's role
// (machine id) rides in the frame header instead of being implied by which
// port it dialed — one coordinator needs no per-role ports.
//
// The coordinator side is poll()-driven and fully bounded: FrameCollector
// accepts connections lazily, reassembles length-prefixed frames as bytes
// arrive, and hands back completed frames in ARRIVAL order; the engine
// decodes each into its machine's slot and combines only after all k
// landed, which is what makes the socket path seed-for-seed identical to
// the in-process path. Every wait carries a deadline: a worker that dies
// before (or while) sending its frame surfaces as a transport_fail
// diagnostic naming the missing machine id within timeout_ms, never a hang.
//
// Fault-injection knobs (fault_kill_machine / fault_partial_frame_machine)
// exist so tests can pin the failure paths; production runs leave them -1.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "distributed/summary_wire.hpp"

namespace rcc {

/// Knobs of the loopback socket transport.
struct SocketTransportOptions {
  /// Coordinator listening port; 0 asks the kernel for an ephemeral port
  /// (the default — concurrent test runs never collide).
  std::uint16_t leader_port = 0;

  /// Deadline for every coordinator wait (connect backlog, frame bytes) and
  /// for worker-side connects. A worker silent for this long is declared
  /// dead and the run aborts with its machine id.
  int timeout_ms = 10000;

  /// Fault injection: this machine's worker exits before connecting (the
  /// "killed mid-round" test); -1 disables.
  int fault_kill_machine = -1;

  /// Fault injection: this machine's worker sends its header plus half the
  /// payload, then dies (the torn-frame test); -1 disables.
  int fault_partial_frame_machine = -1;
};

/// Prints "socket transport: <formatted message>" to stderr and aborts.
/// Transport failures (timeouts, torn frames, dead workers) are protocol
/// violations, same philosophy as wire_fail.
[[noreturn]] void transport_fail(const char* fmt, ...);

/// RAII listening socket bound to 127.0.0.1. Created BEFORE forking workers
/// so a worker's connect can never race the bind.
class LoopbackListener {
 public:
  /// port 0 = ephemeral (read the realized port back via port()).
  explicit LoopbackListener(std::uint16_t port);
  ~LoopbackListener();

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Worker side: connects to the coordinator's loopback port, retrying
/// briefly (the listener pre-exists the fork, so one attempt normally
/// suffices); transport_fail after timeout_ms.
int connect_to_leader(std::uint16_t port, int timeout_ms);

/// Writes the whole buffer to a blocking socket; transport_fail on error.
void send_all(int fd, const void* data, std::size_t size);

/// Fault-injection exits for worker bodies, used by the engine when the
/// corresponding SocketTransportOptions knob names the worker's machine.
/// Dies without ever connecting (the "worker killed mid-round" scenario —
/// the coordinator's deadline must surface the machine id).
[[noreturn]] void worker_exit_silently();
/// Sends the header plus half the payload of a complete frame, then dies
/// (the torn-frame scenario — the coordinator must reject the EOF).
[[noreturn]] void send_partial_frame_and_die(int fd, const std::uint8_t* frame,
                                             std::size_t size);

/// One fully reassembled summary frame.
struct ReadyFrame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Coordinator side: accepts up to `expected` connections on the listener
/// and reassembles their frames. next_ready() blocks (bounded by
/// timeout_ms) until SOME machine's frame is complete and returns it —
/// completion order. Duplicate machine ids, out-of-range ids, torn frames,
/// and deadline overruns all transport_fail with the offending/missing
/// machine ids.
class FrameCollector {
 public:
  FrameCollector(const LoopbackListener& listener, std::size_t expected,
                 int timeout_ms);
  ~FrameCollector();

  FrameCollector(const FrameCollector&) = delete;
  FrameCollector& operator=(const FrameCollector&) = delete;

  /// Next completed frame, in arrival order. Must be called exactly
  /// `expected` times.
  ReadyFrame next_ready();

  /// Total framed bytes received so far (headers + payloads): the measured
  /// on-the-wire cost of the machine phase.
  std::uint64_t wire_bytes() const { return wire_bytes_; }
  std::uint64_t frames_delivered() const { return delivered_; }

 private:
  struct Connection {
    int fd = -1;
    bool header_parsed = false;
    FrameHeader header{};
    std::vector<std::uint8_t> buffer;  // raw bytes until the frame completes
  };

  void pump(int deadline_ms_remaining);
  [[noreturn]] void fail_missing() const;

  int listener_fd_;
  std::size_t expected_;
  int timeout_ms_;
  std::vector<Connection> connections_;
  std::vector<char> seen_machine_;    // frame COMPLETED (timeout diagnostic)
  std::vector<char> claimed_machine_; // header parsed claiming this id
  std::deque<ReadyFrame> ready_;
  std::size_t delivered_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

namespace transport_detail {
using WorkerFn = void (*)(void* ctx, std::size_t machine);
/// fork(); the child runs fn(ctx, machine) then _exit(0).
pid_t fork_worker(std::size_t machine, WorkerFn fn, void* ctx);
}  // namespace transport_detail

/// Forks one worker per machine; worker i runs body(i) and _exit(0)s (no
/// atexit handlers, no static destructors — the child shares the parent's
/// address space copy-on-write and must not tear it down). Returns the k
/// child pids for reap_workers.
template <typename Body>
std::vector<pid_t> spawn_workers(std::size_t k, const Body& body) {
  std::vector<pid_t> pids;
  pids.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    pids.push_back(transport_detail::fork_worker(
        i,
        [](void* ctx, std::size_t m) { (*static_cast<const Body*>(ctx))(m); },
        const_cast<void*>(static_cast<const void*>(&body))));
  }
  return pids;
}

/// Reaps every worker. Workers that exited nonzero or died on a signal are
/// reported (stderr) but do not abort the run when `require_clean` is false
/// — by the time the collector has all k frames the round's data is safe,
/// and a worker that died AFTER sending already made the round fail through
/// the collector if its frame was short.
void reap_workers(const std::vector<pid_t>& pids, bool require_clean = true);

}  // namespace rcc
