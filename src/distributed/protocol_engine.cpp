#include "distributed/protocol_engine.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/options.hpp"

namespace rcc {

void add_streaming_flags(Options& options) {
  // Idempotent: add_mpc_engine_flags registers this bundle too, and a
  // driver may legitimately call both.
  if (options.has("engine-transport")) return;
  options
      .flag("engine-transport", "inproc",
            "machine-phase transport: 'inproc' (one thread-pool task per "
            "machine), 'socket' (forked worker processes streaming framed "
            "summaries over loopback TCP), or 'shm' (forked worker "
            "processes exchanging the same frames through shared-memory "
            "rings; persistent workers under multi-round executors)")
      .flag("engine-transport-port", "0",
            "coordinator listening port for --engine-transport=socket "
            "(0 = kernel-assigned ephemeral port)")
      .flag("engine-transport-timeout-ms", "10000",
            "socket/shm transport deadline for worker connects and frame "
            "waits; a worker silent this long fails the run with its "
            "machine id")
      .flag("engine-shm-ring-bytes", "1048576",
            "per-direction shared-memory ring capacity in bytes for "
            "--engine-transport=shm (rounded up to a power of two; larger "
            "frames still flow, chunked)");
}

StreamingOptions streaming_options_from_options(const Options& options) {
  StreamingOptions opts;
  const std::string transport = options.get_string("engine-transport");
  if (transport == "inproc") {
    opts.transport = EngineTransport::kInproc;
  } else if (transport == "socket") {
    opts.transport = EngineTransport::kSocket;
  } else if (transport == "shm") {
    opts.transport = EngineTransport::kShm;
  } else {
    std::fprintf(stderr,
                 "flag --engine-transport: '%s' is not one of 'inproc', "
                 "'socket', 'shm'\n",
                 transport.c_str());
    std::exit(2);
  }
  const std::int64_t port = options.get_int("engine-transport-port");
  if (port < 0 || port > 65535) {
    std::fprintf(stderr,
                 "flag --engine-transport-port: %lld is not a port number\n",
                 static_cast<long long>(port));
    std::exit(2);
  }
  opts.socket.leader_port = static_cast<std::uint16_t>(port);
  const std::int64_t timeout = options.get_int("engine-transport-timeout-ms");
  // Both transports hold the deadline as int milliseconds: a value past
  // INT_MAX would wrap instead of waiting longer.
  if (timeout <= 0 || timeout > INT_MAX) {
    std::fprintf(stderr,
                 "flag --engine-transport-timeout-ms: %lld must be in [1, "
                 "%d]\n",
                 static_cast<long long>(timeout), INT_MAX);
    std::exit(2);
  }
  opts.socket.timeout_ms = static_cast<int>(timeout);
  opts.shm.timeout_ms = static_cast<int>(timeout);
  const std::int64_t ring_bytes = options.get_int("engine-shm-ring-bytes");
  if (ring_bytes < 64 || ring_bytes > (std::int64_t{1} << 30)) {
    std::fprintf(stderr,
                 "flag --engine-shm-ring-bytes: %lld must be in [64, 2^30]\n",
                 static_cast<long long>(ring_bytes));
    std::exit(2);
  }
  opts.shm.ring_bytes = static_cast<std::size_t>(ring_bytes);
  return opts;
}

}  // namespace rcc
