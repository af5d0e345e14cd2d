// Tiny command-line flag parser for examples and bench binaries.
//
// Syntax: --name=value or --name value; --help prints registered flags.
// Unknown flags abort (typos in experiment parameters must not silently run
// the wrong configuration).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcc {

/// The one diagnostic funnel for command-line flags: prints
/// "flag --NAME: <formatted message>" (just the message when `name` is
/// empty) to stderr and exits with status 2. Typos in experiment parameters
/// must not silently run the wrong configuration.
[[noreturn]] void flag_fail(const std::string& name, const char* fmt, ...);

/// Caps on machine-count and thread-count flags: each machine of a process
/// transport is a forked worker and each thread a pool worker, so a wrapped
/// or absurd count must fail before anything starts.
inline constexpr std::int64_t kMaxMachinesFlag = 1024;
inline constexpr std::int64_t kMaxThreadsFlag = 1024;

class Options {
 public:
  Options(std::string program_description);

  /// Registers a flag with a default; returns *this for chaining.
  Options& flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// True when a flag of this name is registered. Lets composable flag
  /// bundles (add_streaming_flags, add_mpc_engine_flags — which includes
  /// the former) be registered idempotently instead of aborting on the
  /// duplicate.
  bool has(const std::string& name) const { return flags_.count(name) > 0; }

  /// Parses argv; aborts on unknown flags; exits(0) after printing --help.
  void parse(int argc, char** argv);

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// get_int, but the value must lie in [lo, hi]; anything else flag_fails
  /// with "<value> must be in [lo, hi]" before the caller builds anything
  /// from it.
  std::int64_t get_int_in(const std::string& name, std::int64_t lo,
                          std::int64_t hi) const;
  double get_double(const std::string& name) const;
  /// Exactly 1/true/yes/on or 0/false/no/off; anything else flag_fails.
  bool get_bool(const std::string& name) const;

 private:
  struct Flag {
    std::string value;
    std::string help;
  };
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace rcc
