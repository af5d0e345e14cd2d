#include "distributed/protocol_engine.hpp"

#include <climits>
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
            "rings); both keep their workers across the rounds of a "
            "round-invariant multi-round run")
      .flag("engine-transport-timeout-ms", "10000",
            "socket/shm transport deadline for every frame wait; a worker "
            "silent this long fails the run with its machine id")
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
    flag_fail("engine-transport", "'%s' is not one of 'inproc', 'socket', "
              "'shm'",
              transport.c_str());
  }
  // The deadline is held as int milliseconds: a value past INT_MAX would
  // wrap instead of waiting longer.
  opts.timeout_ms = static_cast<int>(
      options.get_int_in("engine-transport-timeout-ms", 1, INT_MAX));
  opts.ring_bytes = static_cast<std::size_t>(
      options.get_int_in("engine-shm-ring-bytes", 64, std::int64_t{1} << 30));
  return opts;
}

}  // namespace rcc
