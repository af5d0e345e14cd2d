// One bench_suite grid row: what a row records and how it is measured.
//
// Peak RSS is row-local: VmHWM is reset through /proc/self/clear_refs
// before the row's first rep, so a row reports the high-water mark of its
// own reps (on top of what the process already holds, e.g. the generated
// families), not of every row before it. A row whose machine phase forks
// workers adds the largest peak among its own reps' workers, which the
// worker host reads from each worker as it reaps it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace rcc::bench {

struct Row {
  std::string scenario;
  std::string family;
  std::string transport = "inproc";  // where the machine phase ran
  std::size_t k = 0;
  std::size_t rounds = 0;  // round budget handed to the executor
  VertexId n = 0;
  std::size_t m = 0;
  std::size_t engine_rounds = 0;  // rounds actually run
  std::size_t processed_edges = 0;  // sum of per-round active edge sets
  std::size_t solution = 0;
  std::uint64_t comm_words = 0;  // ledger-charged communication (0 = n/a)
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  double edges_per_sec = 0.0;
  std::uint64_t file_bytes = 0;     // .rgp size on disk (packed rows only)
  std::uint64_t peak_rss_bytes = 0; // the row's own peak RSS (see above)
  std::uint64_t worker_forks = 0;   // processes forked by the machine phase
};

struct RunOutcome {
  std::size_t engine_rounds = 1;
  std::size_t processed_edges = 0;
  std::size_t solution = 0;
  std::uint64_t comm_words = 0;
  std::uint64_t worker_forks = 0;
  std::uint64_t worker_peak_rss_bytes = 0;  // largest forked worker's peak
};

/// Resets this process's VmHWM to its current RSS; false if unsupported.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// This process's VmHWM, in bytes.
inline std::uint64_t self_peak_rss_bytes() {
  std::uint64_t kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::strtoull(line + 6, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
  }
  return kib * 1024;
}

/// One pinned grid row: `run` executes the scenario once and reports what it
/// processed; the harness repeats it and keeps median/min wall time. The
/// exact columns come from rep 0, whose seed is `seed` itself, so they do not
/// depend on `reps`.
template <typename RunFn>
Row measure(const std::string& scenario, const std::string& family,
            std::size_t k, std::size_t rounds, VertexId n, std::size_t m,
            int reps, std::uint64_t seed, const RunFn& run) {
  Row row;
  row.scenario = scenario;
  row.family = family;
  row.k = k;
  row.rounds = rounds;
  row.n = n;
  row.m = m;
  RCC_CHECK(reps >= 1);  // the median and minimum below need a sample
  std::vector<double> times;
  RunOutcome outcome;
  std::uint64_t worker_peak = 0;
  reset_peak_rss();
  for (int rep = 0; rep < reps; ++rep) {
    Rng rng(seed + 1000 * static_cast<std::uint64_t>(rep));
    WallTimer timer;
    const RunOutcome rep_outcome = run(rng);
    times.push_back(timer.seconds());
    if (rep == 0) outcome = rep_outcome;
    worker_peak = std::max(worker_peak, rep_outcome.worker_peak_rss_bytes);
  }
  row.peak_rss_bytes = self_peak_rss_bytes() + worker_peak;
  std::sort(times.begin(), times.end());
  row.seconds_min = times.front();
  row.seconds_median = times[times.size() / 2];
  row.engine_rounds = outcome.engine_rounds;
  row.processed_edges = outcome.processed_edges;
  row.solution = outcome.solution;
  row.comm_words = outcome.comm_words;
  row.worker_forks = outcome.worker_forks;
  row.edges_per_sec =
      row.seconds_median > 0.0
          ? static_cast<double>(std::max(row.processed_edges, row.m)) /
                row.seconds_median
          : 0.0;
  return row;
}

}  // namespace rcc::bench
