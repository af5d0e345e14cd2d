#include "mpc/mpc_engine.hpp"

#include "util/options.hpp"

namespace rcc {

namespace {

/// Flag values that parse but make no sense die through the same funnel
/// as unparsable ones.
std::int64_t flag_at_least(const Options& options, const char* name,
                           std::int64_t minimum) {
  const std::int64_t value = options.get_int(name);
  if (value < minimum) {
    flag_fail(name, "%lld is out of range (minimum %lld)",
              static_cast<long long>(value), static_cast<long long>(minimum));
  }
  return value;
}

}  // namespace

void add_mpc_engine_flags(Options& options) {
  options
      .flag("mpc-machines", "0",
            "MPC cluster size k (0 = paper default, sqrt(n))")
      .flag("mpc-memory-budget", "0",
            "per-machine memory budget in words (0 = paper default)")
      .flag("mpc-rounds", "1", "multi-round executor iterations")
      .flag("mpc-random-input", "true",  // matches MpcEngineConfig's default
            "input is already randomly partitioned (skips the re-partition "
            "round)")
      .flag("mpc-early-stop", "true",
            "stop as soon as a round neither shrinks the survivors nor "
            "reports progress units")
      .flag("mpc-max-path-length", "3",
            "augmenting combiner: odd augmenting-path length cap 2k+1 "
            "(certifies a 1 + 1/(k+1) approximation at the early stop)")
      .flag("mpc-epsilon", "0",
            "augmenting combiner: target (1+eps) approximation; overrides "
            "--mpc-max-path-length when > 0")
      .flag("mpc-edcs-beta", "16",
            "EDCS combiner: degree-sum cap beta (P1); larger ships more "
            "edges per machine and lands closer to 3/2")
      .flag("mpc-edcs-lambda", "2",
            "EDCS combiner: density slack lambda (P2 threshold beta - "
            "lambda); 1 <= lambda < beta")
      .flag("mpc-edcs-finish-maximal", "true",
            "EDCS combiner: close a round-capped run's matching to "
            "maximality with one coordinator sweep (keeps the factor-2 "
            "certificate)");
  add_streaming_flags(options);
}

MpcEngineConfig mpc_engine_config_from_options(const Options& options,
                                               VertexId n) {
  const MpcConfig fallback = MpcConfig::paper_default(n);
  MpcEngineConfig config;
  const std::int64_t machines = flag_at_least(options, "mpc-machines", 0);
  const std::int64_t budget = flag_at_least(options, "mpc-memory-budget", 0);
  config.mpc.num_machines = machines > 0 ? static_cast<std::size_t>(machines)
                                         : fallback.num_machines;
  config.mpc.memory_words =
      budget > 0 ? static_cast<std::uint64_t>(budget) : fallback.memory_words;
  config.max_rounds =
      static_cast<std::size_t>(flag_at_least(options, "mpc-rounds", 1));
  config.input_already_random = options.get_bool("mpc-random-input");
  config.early_stop = options.get_bool("mpc-early-stop");
  config.streaming = streaming_options_from_options(options);
  return config;
}

}  // namespace rcc
