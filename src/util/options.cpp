#include "util/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/types.hpp"

namespace rcc {

void flag_fail(const std::string& name, const char* fmt, ...) {
  if (!name.empty()) std::fprintf(stderr, "flag --%s: ", name.c_str());
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(2);
}

Options::Options(std::string program_description)
    : description_(std::move(program_description)) {}

Options& Options::flag(const std::string& name, const std::string& default_value,
                       const std::string& help) {
  RCC_CHECK(!flags_.count(name));
  flags_[name] = Flag{default_value, help};
  order_.push_back(name);
  return *this;
}

void Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s\n\nFlags:\n", description_.c_str());
      for (const auto& name : order_) {
        const auto& f = flags_.at(name);
        std::printf("  --%-16s %s (default: %s)\n", name.c_str(), f.help.c_str(),
                    f.value.c_str());
      }
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      flag_fail("", "unexpected positional argument: %s", arg.c_str());
    }
    std::string name = arg.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      flag_fail("", "flag --%s needs a value", name.c_str());
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      flag_fail("", "unknown flag --%s (see --help)", name.c_str());
    }
    it->second.value = value;
  }
}

std::string Options::get_string(const std::string& name) const {
  auto it = flags_.find(name);
  RCC_CHECK(it != flags_.end());
  return it->second.value;
}

std::int64_t Options::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  char* end = nullptr;
  errno = 0;
  const std::int64_t parsed = std::strtoll(v.c_str(), &end, 10);
  // Strict parsing: reject trailing junk AND silent saturation. Without the
  // ERANGE check strtoll clamps out-of-range values to LLONG_MIN/LLONG_MAX,
  // which would run an experiment with a configuration nobody asked for.
  if (end == v.c_str() || *end != '\0') {
    flag_fail(name, "'%s' is not a representable integer", v.c_str());
  }
  if (errno == ERANGE) {
    flag_fail(name, "'%s' overflows the 64-bit integer range", v.c_str());
  }
  return parsed;
}

std::int64_t Options::get_int_in(const std::string& name, std::int64_t lo,
                                 std::int64_t hi) const {
  const std::int64_t value = get_int(name);
  if (value < lo || value > hi) {
    flag_fail(name, "%lld must be in [%lld, %lld]",
              static_cast<long long>(value), static_cast<long long>(lo),
              static_cast<long long>(hi));
  }
  return value;
}

double Options::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    flag_fail(name, "'%s' is not a representable number", v.c_str());
  }
  // Same strictness as get_int, but only where the value actually degraded:
  // ERANGE with +-HUGE_VAL is overflow and ERANGE with 0.0 is total
  // underflow — in both cases the program would run with a value the user
  // did not write. glibc also sets ERANGE for gradual underflow to a
  // subnormal (e.g. 1e-310) even though the returned value is faithful, so
  // a nonzero finite result passes.
  if (errno == ERANGE && (parsed == HUGE_VAL || parsed == -HUGE_VAL ||
                          parsed == 0.0)) {
    flag_fail(name, "'%s' is outside the representable double range",
              v.c_str());
  }
  return parsed;
}

bool Options::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  flag_fail(name, "'%s' is not a boolean", v.c_str());
}

}  // namespace rcc
