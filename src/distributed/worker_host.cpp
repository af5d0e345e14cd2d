#include "distributed/worker_host.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <linux/futex.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>
#include <utility>

namespace rcc {

void transport_fail(EngineTransport medium, const char* fmt, ...) {
  std::fputs(medium == EngineTransport::kShm ? "shm transport: "
                                             : "socket transport: ",
             stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::abort();
}

namespace {

std::int64_t monotonic_ms() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Slice of a bounded wait: short enough that liveness checks (parent pid,
/// waitpid) stay responsive, long enough that an idle wait burns no CPU.
constexpr int kWaitSliceMs = 50;

long futex_syscall(std::atomic<std::uint32_t>* word, int op, std::uint32_t val,
                   const timespec* timeout) {
  // No FUTEX_PRIVATE_FLAG: the words live in a MAP_SHARED mapping and the
  // waiter and waker are different processes.
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val,
                   timeout, nullptr, 0);
}

/// Bounded futex sleep until `word` changes away from `seen`. EAGAIN (the
/// word already changed), EINTR and ETIMEDOUT are all fine: callers
/// re-check their condition in a loop.
void futex_wait_for_change(std::atomic<std::uint32_t>* word,
                           std::uint32_t seen, int timeout_ms) {
  timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000;
  futex_syscall(word, FUTEX_WAIT, seen, &ts);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  futex_syscall(word, FUTEX_WAKE, INT_MAX, nullptr);
}

/// Producer/consumer cursors of one SPSC ring, each on its own cache line
/// (they are also the futex words, so cross-process waits land here).
struct RingControl {
  alignas(64) std::atomic<std::uint32_t> head;  // consumer cursor
  alignas(64) std::atomic<std::uint32_t> tail;  // producer cursor
};
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "ring cursors must be lock-free to live in shared memory");

/// One byte ring inside the shared mapping. Cursors run free over 32 bits
/// and the capacity is a power of two below 2^31, so `tail - head` is the
/// used byte count under wraparound.
struct Ring {
  RingControl* ctl = nullptr;
  std::uint8_t* data = nullptr;
  std::uint32_t capacity = 0;
};

}  // namespace

namespace host_detail {

/// One end of a machine's bidirectional byte channel. The only code that
/// differs between media: move bytes without blocking, and wait (bounded)
/// until moving bytes may succeed.
class ChannelEnd {
 public:
  virtual ~ChannelEnd() = default;
  /// Copies what fits of `size` bytes into the outgoing stream; 0 when it is
  /// full or the peer is gone.
  virtual std::size_t write_some(const std::uint8_t* src,
                                 std::size_t size) = 0;
  /// Copies up to `size` available bytes; 0 when none or the peer is gone.
  virtual std::size_t read_some(std::uint8_t* dst, std::size_t size) = 0;
  virtual void wait_writable(int timeout_ms) = 0;
  virtual void wait_readable(int timeout_ms) = 0;
  /// True once the peer closed its end. Rings never close: a dead ring
  /// peer shows up only in waitpid / getppid.
  virtual bool peer_closed() const { return false; }
  /// Descriptor for poll(), or -1 when the end has none (or is closed).
  virtual int poll_fd() const { return -1; }
};

/// Makes the channels and multiplexes the coordinator's wait on them.
class Medium {
 public:
  virtual ~Medium() = default;
  /// Creates machine's channel: {coordinator end, worker end}.
  virtual std::pair<std::unique_ptr<ChannelEnd>, std::unique_ptr<ChannelEnd>>
  open(std::size_t machine) = 0;
  /// Snapshot taken BEFORE the coordinator drains; wait_any returns at once
  /// if any worker wrote after it.
  virtual std::uint32_t progress_token() const { return 0; }
  /// Bounded wait until some coordinator end may have new bytes.
  virtual void wait_any(const std::vector<std::unique_ptr<ChannelEnd>>& ends,
                        std::uint32_t token, int timeout_ms) = 0;
};

namespace {

// --- shm: SPSC rings in one shared mapping ---------------------------------

class RingEnd final : public ChannelEnd {
 public:
  /// `doorbell` is bumped after every write (worker ends only: it is the
  /// coordinator's one wait address for "some uplink moved").
  RingEnd(Ring in, Ring out, std::atomic<std::uint32_t>* doorbell)
      : in_(in), out_(out), doorbell_(doorbell) {}

  std::size_t write_some(const std::uint8_t* src, std::size_t size) override {
    // Sole producer: tail is ours (relaxed); head needs acquire so the
    // consumer's reads of the bytes we are about to overwrite happened-before.
    const std::uint32_t head = out_.ctl->head.load(std::memory_order_acquire);
    const std::uint32_t tail = out_.ctl->tail.load(std::memory_order_relaxed);
    const std::uint32_t space = out_.capacity - (tail - head);
    if (space == 0) return 0;
    const std::size_t n = std::min<std::size_t>(size, space);
    const std::uint32_t pos = tail & (out_.capacity - 1);
    const std::size_t contiguous =
        std::min<std::size_t>(n, out_.capacity - pos);
    std::memcpy(out_.data + pos, src, contiguous);
    std::memcpy(out_.data, src + contiguous, n - contiguous);
    out_.ctl->tail.store(tail + static_cast<std::uint32_t>(n),
                         std::memory_order_release);
    futex_wake_all(&out_.ctl->tail);
    if (doorbell_ != nullptr) {
      // Publish-then-bump: the coordinator snapshots the doorbell BEFORE
      // draining, so a bump after the tail store can never be missed.
      doorbell_->fetch_add(1, std::memory_order_release);
      futex_wake_all(doorbell_);
    }
    return n;
  }

  std::size_t read_some(std::uint8_t* dst, std::size_t size) override {
    const std::uint32_t tail = in_.ctl->tail.load(std::memory_order_acquire);
    const std::uint32_t head = in_.ctl->head.load(std::memory_order_relaxed);
    const std::uint32_t used = tail - head;
    if (used == 0) return 0;
    const std::size_t n = std::min<std::size_t>(size, used);
    const std::uint32_t pos = head & (in_.capacity - 1);
    const std::size_t contiguous =
        std::min<std::size_t>(n, in_.capacity - pos);
    std::memcpy(dst, in_.data + pos, contiguous);
    std::memcpy(dst + contiguous, in_.data, n - contiguous);
    in_.ctl->head.store(head + static_cast<std::uint32_t>(n),
                        std::memory_order_release);
    futex_wake_all(&in_.ctl->head);
    return n;
  }

  void wait_writable(int timeout_ms) override {
    const std::uint32_t head = out_.ctl->head.load(std::memory_order_acquire);
    const std::uint32_t tail = out_.ctl->tail.load(std::memory_order_relaxed);
    if (tail - head == out_.capacity) {
      futex_wait_for_change(&out_.ctl->head, head, timeout_ms);
    }
  }

  void wait_readable(int timeout_ms) override {
    const std::uint32_t tail = in_.ctl->tail.load(std::memory_order_acquire);
    const std::uint32_t head = in_.ctl->head.load(std::memory_order_relaxed);
    if (tail == head) futex_wait_for_change(&in_.ctl->tail, tail, timeout_ms);
  }

 private:
  Ring in_;
  Ring out_;
  std::atomic<std::uint32_t>* doorbell_;
};

/// One MAP_SHARED mapping: a doorbell line plus k (uplink, downlink) ring
/// pairs. Made before the first fork so parent and children address the
/// same pages; only the coordinator unmaps it (children _exit).
class RingMedium final : public Medium {
 public:
  RingMedium(std::size_t machines, std::size_t ring_bytes) {
    // Power-of-two capacity: the free-running cursors index by masking.
    std::size_t capacity = 64;
    while (capacity < ring_bytes) capacity <<= 1;
    RCC_CHECK(capacity <= (std::size_t{1} << 30));
    capacity_ = static_cast<std::uint32_t>(capacity);
    block_bytes_ = sizeof(RingControl) + capacity;
    mapping_bytes_ = 64 + machines * 2 * block_bytes_;  // 64: doorbell line
    void* mapped = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mapped == MAP_FAILED) {
      transport_fail(EngineTransport::kShm,
                     "mmap(%zu bytes for %zu machines): %s", mapping_bytes_,
                     machines, strerror(errno));
    }
    base_ = static_cast<std::uint8_t*>(mapped);
    doorbell_ = new (base_) std::atomic<std::uint32_t>(0);
    for (std::size_t i = 0; i < machines * 2; ++i) {
      RingControl* ctl = ring(i).ctl;
      new (&ctl->head) std::atomic<std::uint32_t>(0);
      new (&ctl->tail) std::atomic<std::uint32_t>(0);
    }
  }
  ~RingMedium() override { ::munmap(base_, mapping_bytes_); }

  RingMedium(const RingMedium&) = delete;
  RingMedium& operator=(const RingMedium&) = delete;

  std::pair<std::unique_ptr<ChannelEnd>, std::unique_ptr<ChannelEnd>> open(
      std::size_t machine) override {
    const Ring uplink = ring(2 * machine);
    const Ring downlink = ring(2 * machine + 1);
    return {std::make_unique<RingEnd>(uplink, downlink, nullptr),
            std::make_unique<RingEnd>(downlink, uplink, doorbell_)};
  }

  std::uint32_t progress_token() const override {
    return doorbell_->load(std::memory_order_acquire);
  }

  void wait_any(const std::vector<std::unique_ptr<ChannelEnd>>&,
                std::uint32_t token, int timeout_ms) override {
    futex_wait_for_change(doorbell_, token, timeout_ms);
  }

 private:
  Ring ring(std::size_t index) const {
    std::uint8_t* block = base_ + 64 + index * block_bytes_;
    return Ring{reinterpret_cast<RingControl*>(block),
                block + sizeof(RingControl), capacity_};
  }

  std::uint32_t capacity_ = 0;
  std::size_t block_bytes_ = 0;
  std::size_t mapping_bytes_ = 0;
  std::uint8_t* base_ = nullptr;
  std::atomic<std::uint32_t>* doorbell_ = nullptr;
};

// --- socket: one connected loopback-TCP pair per machine -------------------

class SocketEnd final : public ChannelEnd {
 public:
  explicit SocketEnd(int fd) : fd_(fd) {}
  ~SocketEnd() override { close(); }

  SocketEnd(const SocketEnd&) = delete;
  SocketEnd& operator=(const SocketEnd&) = delete;

  std::size_t write_some(const std::uint8_t* src, std::size_t size) override {
    while (fd_ >= 0) {
      // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not SIGPIPE.
      const ssize_t n =
          ::send(fd_, src, size, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      if (errno == EPIPE || errno == ECONNRESET) {
        close();
        return 0;
      }
      transport_fail(EngineTransport::kSocket, "send(): %s", strerror(errno));
    }
    return 0;
  }

  std::size_t read_some(std::uint8_t* dst, std::size_t size) override {
    // A zero-byte recv returns 0, which must not read as end-of-stream.
    if (size == 0) return 0;
    while (fd_ >= 0) {
      const ssize_t n = ::recv(fd_, dst, size, MSG_DONTWAIT);
      if (n > 0) return static_cast<std::size_t>(n);
      if (n == 0 || errno == ECONNRESET) {
        close();
        return 0;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
      transport_fail(EngineTransport::kSocket, "recv(): %s", strerror(errno));
    }
    return 0;
  }

  void wait_writable(int timeout_ms) override { wait(POLLOUT, timeout_ms); }
  void wait_readable(int timeout_ms) override { wait(POLLIN, timeout_ms); }
  bool peer_closed() const override { return fd_ < 0; }
  int poll_fd() const override { return fd_; }

 private:
  void wait(short events, int timeout_ms) {
    pollfd pfd{fd_, events, 0};
    ::poll(&pfd, 1, timeout_ms);
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd_;
};

class SocketMedium final : public Medium {
 public:
  std::pair<std::unique_ptr<ChannelEnd>, std::unique_ptr<ChannelEnd>> open(
      std::size_t machine) override {
    // A one-shot listener on an ephemeral port: the coordinator connects
    // the worker's end to it and accepts its own, so nothing outside this
    // process ever needs the port.
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};  // port 0: the kernel picks one
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      transport_fail(EngineTransport::kSocket,
                     "listen on 127.0.0.1 for machine %zu: %s", machine,
                     strerror(errno));
    }
    const int worker = ::socket(AF_INET, SOCK_STREAM, 0);
    if (worker < 0 || ::connect(worker, reinterpret_cast<const sockaddr*>(
                                            &addr),
                                sizeof addr) != 0) {
      transport_fail(EngineTransport::kSocket, "connect(machine %zu): %s",
                     machine, strerror(errno));
    }
    sockaddr_in peer;
    len = sizeof peer;
    int coordinator;
    do {
      coordinator =
          ::accept(listener, reinterpret_cast<sockaddr*>(&peer), &len);
    } while (coordinator < 0 && errno == EINTR);
    const int accept_errno = errno;
    ::close(listener);
    if (coordinator < 0) {
      transport_fail(EngineTransport::kSocket, "accept(machine %zu): %s",
                     machine, strerror(accept_errno));
    }
    // A stray local connection must never pass for the worker's end.
    sockaddr_in local;
    len = sizeof local;
    if (::getsockname(worker, reinterpret_cast<sockaddr*>(&local), &len) !=
            0 ||
        local.sin_port != peer.sin_port) {
      transport_fail(EngineTransport::kSocket,
                     "machine %zu: accepted a connection that is not its "
                     "worker's",
                     machine);
    }
    // Frames go out as prefix + body writes; Nagle would hold the second
    // one back for a delayed ACK.
    const int one = 1;
    for (const int fd : {worker, coordinator}) {
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return {std::make_unique<SocketEnd>(coordinator),
            std::make_unique<SocketEnd>(worker)};
  }

  void wait_any(const std::vector<std::unique_ptr<ChannelEnd>>& ends,
                std::uint32_t, int timeout_ms) override {
    fds_.clear();
    for (const auto& end : ends) {
      const int fd = end->poll_fd();
      if (fd >= 0) fds_.push_back(pollfd{fd, POLLIN, 0});
    }
    ::poll(fds_.data(), fds_.size(), timeout_ms);
  }

 private:
  std::vector<pollfd> fds_;
};

}  // namespace
}  // namespace host_detail

// ---------------------------------------------------------------------------
// WorkerChannel (child side)

WorkerChannel::WorkerChannel(host_detail::ChannelEnd& end, std::size_t machine,
                             pid_t coordinator, EngineTransport medium,
                             int timeout_ms, const FaultPlan& faults)
    : end_(end),
      machine_(machine),
      coordinator_(coordinator),
      medium_(medium),
      timeout_ms_(timeout_ms),
      faults_(faults) {}

void WorkerChannel::exit_if_orphaned() const {
  if (::getppid() != coordinator_ || end_.peer_closed()) ::_exit(0);
}

ReadyFrame WorkerChannel::read_frame() {
  std::uint8_t header_bytes[kFrameHeaderBytes];
  std::size_t have = 0;
  while ((have = end_.read_some(header_bytes, kFrameHeaderBytes)) == 0) {
    exit_if_orphaned();
    end_.wait_readable(kWaitSliceMs);
  }
  // A frame has started: the rest must land within the deadline.
  const std::int64_t deadline = monotonic_ms() + timeout_ms_;
  const auto read_fully = [&](std::uint8_t* dst, std::size_t need,
                              std::size_t got, const char* what) {
    while (got < need) {
      const std::size_t n = end_.read_some(dst + got, need - got);
      if (n > 0) {
        got += n;
        continue;
      }
      exit_if_orphaned();
      if (monotonic_ms() >= deadline) {
        transport_fail(medium_,
                       "machine %zu: downlink frame stalled mid-%s "
                       "(%zu of %zu bytes) for %d ms",
                       machine_, what, got, need, timeout_ms_);
      }
      end_.wait_readable(kWaitSliceMs);
    }
  };
  read_fully(header_bytes, kFrameHeaderBytes, have, "header");

  ReadyFrame frame(decode_frame_header(header_bytes));
  if (frame.header.machine != machine_) {
    transport_fail(medium_, "machine %zu: downlink frame is addressed to "
                   "machine %u",
                   machine_, frame.header.machine);
  }
  read_fully(frame.bytes(), frame.size(), 0, "payload");

  const int me = static_cast<int>(machine_);
  if (frame.header.shape == SummaryShape::kShutdown) {
    if (faults_.ignore_shutdown_machine == me) {
      for (;;) ::pause();
    }
  } else if (static_cast<int>(pieces_read_++) == faults_.kill_round &&
             faults_.kill_machine == me) {
    ::_exit(3);
  }
  return frame;
}

void WorkerChannel::write_bytes(const std::uint8_t* bytes, std::size_t size) {
  std::int64_t deadline = monotonic_ms() + timeout_ms_;
  std::size_t sent = 0;
  while (sent < size) {
    const std::size_t n = end_.write_some(bytes + sent, size - sent);
    if (n > 0) {
      sent += n;
      deadline = monotonic_ms() + timeout_ms_;  // progress resets the clock
      continue;
    }
    exit_if_orphaned();
    if (monotonic_ms() >= deadline) {
      transport_fail(medium_,
                     "machine %zu: uplink full for %d ms "
                     "(%zu of %zu frame bytes sent)",
                     machine_, timeout_ms_, sent, size);
    }
    end_.wait_writable(kWaitSliceMs);
  }
}

void WorkerChannel::write_frame(std::span<const FrameSegment> segments) {
  if (faults_.partial_frame_machine == static_cast<int>(machine_)) {
    // All of the header, half the payload: the coordinator learns WHICH
    // machine tore its frame before the worker dies.
    std::size_t total = 0;
    for (const FrameSegment& segment : segments) total += segment.size;
    std::size_t left = kFrameHeaderBytes + (total - kFrameHeaderBytes) / 2;
    for (const FrameSegment& segment : segments) {
      const std::size_t part = std::min(left, segment.size);
      write_bytes(segment.data, part);
      left -= part;
    }
    ::_exit(3);
  }
  for (const FrameSegment& segment : segments) {
    write_bytes(segment.data, segment.size);
  }
}

// ---------------------------------------------------------------------------
// WorkerHost (coordinator side)

WorkerHost::WorkerHost(std::size_t machines, const StreamingOptions& options)
    : machines_(machines),
      medium_kind_(options.transport),
      timeout_ms_(options.timeout_ms),
      faults_(options.faults),
      alive_(machines, 0),
      assembly_(machines),
      completed_(machines, 0) {
  RCC_CHECK(machines >= 1);
  RCC_CHECK(options.transport != EngineTransport::kInproc);
  if (options.transport == EngineTransport::kShm) {
    medium_ = std::make_unique<host_detail::RingMedium>(machines,
                                                        options.ring_bytes);
  } else {
    medium_ = std::make_unique<host_detail::SocketMedium>();
  }
}

WorkerHost::~WorkerHost() {
  for (std::size_t m = 0; m < pids_.size(); ++m) {
    if (alive_[m] == 0) continue;
    ::kill(pids_[m], SIGKILL);
    int status = 0;
    while (wait_worker(m, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

pid_t WorkerHost::wait_worker(std::size_t machine, int* status, int options) {
  struct rusage usage {};
  const pid_t r = ::wait4(pids_[machine], status, options, &usage);
  if (r == pids_[machine]) {
    alive_[machine] = 0;
    worker_peak_rss_bytes_ =
        std::max(worker_peak_rss_bytes_,
                 static_cast<std::uint64_t>(usage.ru_maxrss) * 1024);  // KiB
  }
  return r;
}

void WorkerHost::spawn_impl(WorkerFn fn, void* ctx) {
  RCC_CHECK(pids_.empty());
  const pid_t coordinator = ::getpid();
  // A forked worker maps every resident page of the coordinator's heap,
  // free chunks included, and its RSS counts them. Hand the free pages
  // back first, so each worker starts from what it reads.
  ::malloc_trim(0);
  for (std::size_t m = 0; m < machines_; ++m) {
    auto [mine, theirs] = medium_->open(m);
    // The child _exits (never exit) so it runs no atexit handlers or static
    // destructors against the copy-on-write state it shares with us.
    const pid_t pid = ::fork();
    if (pid < 0) {
      transport_fail(medium_kind_, "fork(machine %zu): %s", m,
                     strerror(errno));
    }
    if (pid == 0) {
      // Close every coordinator end this child inherited (its own included)
      // so each socket sees end-of-stream when its real holder goes away.
      ends_.clear();
      mine.reset();
      WorkerChannel channel(*theirs, m, coordinator, medium_kind_,
                            timeout_ms_, faults_);
      try {
        fn(ctx, channel);
      } catch (const std::exception& e) {
        transport_fail(medium_kind_, "machine %zu worker threw: %s", m,
                       e.what());
      }
      ::_exit(0);
    }
    ends_.push_back(std::move(mine));
    pids_.push_back(pid);
    alive_[m] = 1;
  }
}

void WorkerHost::begin_round() {
  if (round_open_) {
    RCC_CHECK(delivered_this_round_ == machines_);
    ++round_;
  }
  round_open_ = true;
  delivered_this_round_ = 0;
  std::fill(completed_.begin(), completed_.end(), 0);
  for (const Assembly& assembly : assembly_) {
    // Half a frame in flight across a round boundary would corrupt the next
    // round's reassembly; it can only mean skipped next_ready() calls.
    RCC_CHECK(!assembly.header_parsed && assembly.header_filled == 0);
  }
}

bool WorkerHost::worker_gone(std::size_t machine) {
  int status = 0;
  if (alive_[machine] != 0) (void)wait_worker(machine, &status, WNOHANG);
  return alive_[machine] == 0 || ends_[machine]->peer_closed();
}

std::size_t WorkerHost::deliver(std::size_t machine,
                                const std::uint8_t* bytes, std::size_t size) {
  host_detail::ChannelEnd& end = *ends_[machine];
  std::int64_t deadline = monotonic_ms() + timeout_ms_;
  std::size_t sent = 0;
  while (sent < size) {
    const std::size_t n = end.write_some(bytes + sent, size - sent);
    if (n > 0) {
      sent += n;
      deadline = monotonic_ms() + timeout_ms_;
      continue;
    }
    // Full channel: the worker is slow (wait for it) or gone (a full
    // channel would otherwise block forever).
    if (worker_gone(machine)) return sent;
    if (monotonic_ms() >= deadline) {
      transport_fail(medium_kind_,
                     "timed out after %d ms delivering a round-%u frame to "
                     "machine %zu",
                     timeout_ms_, round_, machine);
    }
    end.wait_writable(kWaitSliceMs);
  }
  return sent;
}

void WorkerHost::send_frame(std::size_t machine, const std::uint8_t* prefix,
                            std::size_t prefix_bytes,
                            const std::uint8_t* body, std::size_t body_bytes) {
  RCC_CHECK(machine < machines_ && round_open_);
  std::size_t sent = deliver(machine, prefix, prefix_bytes);
  if (sent == prefix_bytes) sent += deliver(machine, body, body_bytes);
  piece_bytes_ += sent;
  if (sent < prefix_bytes + body_bytes) {
    transport_fail(medium_kind_,
                   "machine %zu worker died while its round-%u frame was "
                   "being delivered (%zu of %zu bytes)",
                   machine, round_, sent, prefix_bytes + body_bytes);
  }
}

bool WorkerHost::drain(std::size_t machine) {
  Assembly& assembly = assembly_[machine];
  host_detail::ChannelEnd& end = *ends_[machine];
  bool progress = false;
  for (;;) {
    if (completed_[machine] != 0) {
      // One frame per machine per round: anything after it is a violation,
      // caught NOW so it cannot pass for the next round's bytes.
      std::uint8_t stray;
      if (end.read_some(&stray, 1) == 0) return progress;
      transport_fail(medium_kind_,
                     "machine %zu sent bytes beyond its round-%u frame",
                     machine, round_);
    }
    if (!assembly.header_parsed) {
      const std::size_t n = end.read_some(
          assembly.header_bytes.data() + assembly.header_filled,
          kFrameHeaderBytes - assembly.header_filled);
      if (n == 0) return progress;
      progress = true;
      wire_bytes_ += n;
      assembly.header_filled += n;
      if (assembly.header_filled < kFrameHeaderBytes) continue;
      // decode_frame_header validates magic, version, reserved word, shape
      // and payload cap, and dies with a wire diagnostic on violation.
      assembly.frame =
          ReadyFrame(decode_frame_header(assembly.header_bytes.data()));
      assembly.header_parsed = true;
      if (assembly.frame.header.machine != machine) {
        transport_fail(medium_kind_,
                       "frame on machine %zu's channel names machine %u",
                       machine, assembly.frame.header.machine);
      }
    }
    ReadyFrame& frame = assembly.frame;
    if (assembly.payload_filled < frame.size()) {
      const std::size_t n =
          end.read_some(frame.bytes() + assembly.payload_filled,
                        frame.size() - assembly.payload_filled);
      if (n == 0) return progress;
      progress = true;
      wire_bytes_ += n;
      assembly.payload_filled += n;
      if (assembly.payload_filled < frame.size()) continue;
    }
    ready_.push_back(std::move(frame));
    assembly = Assembly{};
    completed_[machine] = 1;
  }
}

void WorkerHost::check_for_dead_workers() {
  for (std::size_t m = 0; m < machines_; ++m) {
    if (completed_[m] != 0 || !worker_gone(m)) continue;
    // The worker may have exited right AFTER publishing its frame: drain
    // once more before declaring it dead.
    drain(m);
    if (completed_[m] != 0) continue;
    const Assembly& assembly = assembly_[m];
    if (assembly.header_parsed) {
      transport_fail(medium_kind_,
                     "machine %zu worker died mid-frame in round %u "
                     "(%zu of %llu payload bytes)",
                     m, round_, assembly.payload_filled,
                     static_cast<unsigned long long>(
                         assembly.frame.header.payload_bytes));
    }
    transport_fail(medium_kind_,
                   "machine %zu worker died before sending its round-%u "
                   "frame",
                   m, round_);
  }
}

void WorkerHost::fail_missing() const {
  std::string missing;
  for (std::size_t m = 0; m < machines_; ++m) {
    if (completed_[m] == 0) {
      if (!missing.empty()) missing += ", ";
      missing += std::to_string(m);
    }
  }
  transport_fail(medium_kind_,
                 "timed out after %d ms waiting for round-%u machine frames; "
                 "missing machine ids: [%s]",
                 timeout_ms_, round_, missing.c_str());
}

ReadyFrame WorkerHost::next_ready() {
  RCC_CHECK(round_open_ && delivered_this_round_ < machines_);
  const std::int64_t deadline = monotonic_ms() + timeout_ms_;
  for (;;) {
    if (!ready_.empty()) {
      ReadyFrame frame = std::move(ready_.front());
      ready_.pop_front();
      ++delivered_this_round_;
      return frame;
    }
    const std::uint32_t token = medium_->progress_token();
    bool progress = false;
    for (std::size_t m = 0; m < machines_; ++m) progress |= drain(m);
    if (progress) continue;
    check_for_dead_workers();
    if (!ready_.empty()) continue;
    const std::int64_t remaining = deadline - monotonic_ms();
    if (remaining <= 0) fail_missing();
    medium_->wait_any(
        ends_, token,
        static_cast<int>(std::min<std::int64_t>(remaining, kWaitSliceMs)));
  }
}

void WorkerHost::send_shutdown() {
  for (std::size_t m = 0; m < pids_.size(); ++m) {
    const std::vector<std::uint8_t> frame =
        encode_shutdown_frame(static_cast<std::uint32_t>(m));
    // A worker already gone needs no handshake; reap() or the round's
    // collection names it.
    (void)deliver(m, frame.data(), frame.size());
  }
}

void WorkerHost::reap() {
  const std::int64_t deadline = monotonic_ms() + timeout_ms_;
  std::size_t live = 0;
  for (const char alive : alive_) live += alive != 0;
  // One sweep over ALL live workers per poll, backing off from 10 us
  // between empty sweeps: the workers got their shutdown frames together
  // and exit concurrently, so the happy path reaps the lot in a handful of
  // sweeps rather than k sequential sleeps.
  long backoff_ns = 10 * 1000;
  while (live > 0) {
    bool reaped_any = false;
    for (std::size_t m = 0; m < pids_.size(); ++m) {
      if (alive_[m] == 0) continue;
      int status = 0;
      const pid_t r = wait_worker(m, &status, WNOHANG);
      if (r == pids_[m]) {
        --live;
        reaped_any = true;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          transport_fail(medium_kind_,
                         "machine %zu worker did not exit cleanly on "
                         "shutdown",
                         m);
        }
      } else if (r < 0 && errno != EINTR) {
        transport_fail(medium_kind_, "waitpid(machine %zu): %s", m,
                       strerror(errno));
      }
    }
    if (live == 0) break;
    if (monotonic_ms() >= deadline) {
      for (std::size_t m = 0; m < pids_.size(); ++m) {
        if (alive_[m] == 0) continue;
        ::kill(pids_[m], SIGKILL);
        int discard = 0;
        wait_worker(m, &discard, 0);
        alive_[m] = 0;
        transport_fail(medium_kind_,
                       "machine %zu worker ignored the shutdown handshake "
                       "for %d ms; killed",
                       m, timeout_ms_);
      }
    }
    if (reaped_any) {
      backoff_ns = 10 * 1000;  // progress: stay hot for the stragglers
    } else {
      const timespec backoff{0, backoff_ns};
      ::nanosleep(&backoff, nullptr);
      backoff_ns = std::min(backoff_ns * 2, 2000000L);  // cap at 2 ms
    }
  }
}

}  // namespace rcc
