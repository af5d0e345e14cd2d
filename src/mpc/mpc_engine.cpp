#include "mpc/mpc_engine.hpp"

#include <cstdint>

#include "util/options.hpp"

namespace rcc {

void add_mpc_engine_flags(Options& options) {
  options
      .flag("mpc-machines", "0",
            "MPC cluster size k, 0 .. 1024 (0 = paper default, sqrt(n))")
      .flag("mpc-memory-budget", "0",
            "per-machine memory budget in words (0 = paper default)")
      .flag("mpc-rounds", "1", "multi-round executor iterations")
      .flag("mpc-random-input", "true",  // matches MpcEngineConfig's default
            "input is already randomly partitioned (skips the re-partition "
            "round)")
      .flag("mpc-early-stop", "true",
            "stop as soon as a round leaves the survivors unshrunk");
  add_streaming_flags(options);
}

MpcEngineConfig mpc_engine_config_from_options(const Options& options,
                                               VertexId n) {
  const MpcConfig fallback = MpcConfig::paper_default(n);
  MpcEngineConfig config;
  const std::int64_t machines =
      options.get_int_in("mpc-machines", 0, kMaxMachinesFlag);
  const std::int64_t budget =
      options.get_int_in("mpc-memory-budget", 0, INT64_MAX);
  config.mpc.num_machines = machines > 0 ? static_cast<std::size_t>(machines)
                                         : fallback.num_machines;
  config.mpc.memory_words =
      budget > 0 ? static_cast<std::uint64_t>(budget) : fallback.memory_words;
  config.max_rounds =
      static_cast<std::size_t>(options.get_int_in("mpc-rounds", 1, INT64_MAX));
  config.input_already_random = options.get_bool("mpc-random-input");
  config.early_stop = options.get_bool("mpc-early-stop");
  config.streaming = streaming_options_from_options(options);
  return config;
}

}  // namespace rcc
