// The benchmark's own test, on small instances of every workload:
//
//   1. the traced replay equals the engine (solution, comm_words, rounds)
//      on the single-round solve and on the workload's full solve;
//   2. the exact counters repeat solve to solve;
//   3. the output checker rejects a non-edge in the matching and an
//      uncovered edge;
//   4. closure: on an in-process sequential solve, the replay's layer
//      self-times (partition, fork, build, compose, fold) add up to the
//      engine's solve time within kClosureShare.
//
// Exit status 0 when every check holds. Run it with
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/timer.hpp"

namespace {

using namespace perfbench;

/// How far the summed layer self-times may sit from the engine's own
/// in-process sequential solve time, as a share of the latter.
constexpr double kClosureShare = 0.25;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) ++failures;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void check_workload(const std::string& name, const std::string& work_dir) {
  WorkloadSpec spec;
  RCC_CHECK(workload_spec(name, 0.2, spec));
  const Instance instance =
      setup_instance(spec, 11, work_dir + "/selftest-" + name);
  std::unique_ptr<rcc::ThreadPool> pool;
  if (spec.threads > 0) pool = std::make_unique<rcc::ThreadPool>(spec.threads);
  const SolveInput input(spec, instance, 1);
  const std::uint64_t seed = request_of(11, 1).solve_seed;

  std::vector<std::size_t> round_budgets{1};
  if (spec.max_rounds > 1) round_budgets.push_back(spec.max_rounds);
  for (const std::size_t rounds : round_budgets) {
    Tracer tracer;
    ReplayStats stats;
    const SolveOutcome engine =
        engine_solve(spec, input.source(), seed, pool.get(), rounds);
    const SolveOutcome replay = replay_solve(spec, input.source(), seed,
                                             pool.get(), rounds, tracer, stats);
    const std::string diff = compare_outcomes(engine, replay);
    expect(diff.empty(), name + " replay == engine at max_rounds=" +
                             std::to_string(rounds) +
                             (diff.empty() ? "" : ": " + diff));
    expect(check_outcome(engine, input.source()).empty(),
           name + " engine output is a valid matching and cover");
  }

  const SolveOutcome a =
      engine_solve(spec, input.source(), seed, pool.get(), spec.max_rounds);
  const SolveOutcome b =
      engine_solve(spec, input.source(), seed, pool.get(), spec.max_rounds);
  expect(a.comm_words == b.comm_words && a.wire_bytes == b.wire_bytes &&
             a.forks == b.forks && a.engine_rounds == b.engine_rounds &&
             a.matching.size() == b.matching.size() &&
             a.cover.size() == b.cover.size(),
         name + " exact counters repeat");
  if (spec.kind == Kind::kRoundsShm) {
    expect(a.forks == 2 * spec.k, name + " forks k workers per driver run");
    expect(a.engine_rounds > 2 && a.piece_bytes > 0,
           name + " runs several rounds and ships later pieces down the rings");
  }
  if (spec.kind == Kind::kSimulInproc) {
    expect(a.wire_bytes == 0 && a.forks == 0,
           name + " crosses no process boundary");
  }

  // The checker must reject broken outputs.
  SolveOutcome broken = a;
  broken.cover = rcc::VertexCover(spec.n);
  expect(!check_outcome(broken, input.source()).empty(),
         name + " checker rejects an uncovered edge");
  broken = a;
  broken.matching = rcc::Matching(spec.n);
  const rcc::EdgeSpan edges = input.source().edges();
  const auto adjacent_to_0 = [&](VertexId v) {
    return std::any_of(edges.begin(), edges.end(), [&](const rcc::Edge& e) {
      return e.u == 0 && e.v == v;  // records are normalized, u < v
    });
  };
  VertexId v = 1;
  while (adjacent_to_0(v)) ++v;
  broken.matching.match(0, v);
  expect(!check_outcome(broken, input.source()).empty(),
         name + " checker rejects a matched non-edge");

  for (const std::string& path : instance.pack_paths) std::remove(path.c_str());
}

void check_closure() {
  WorkloadSpec spec;
  RCC_CHECK(workload_spec("simul_inproc", 0.5, spec));
  spec.threads = 0;  // sequential, so the layer times can add up
  const Instance instance = setup_instance(spec, 5, "");
  const SolveInput input(spec, instance, 0);
  std::vector<double> engine_s;
  std::vector<double> layers_s;
  for (int rep = 0; rep < 7; ++rep) {
    rcc::WallTimer timer;
    engine_solve(spec, input.source(), 9, nullptr, 1);
    engine_s.push_back(timer.seconds());

    Tracer tracer;
    ReplayStats stats;
    replay_solve(spec, input.source(), 9, nullptr, 1, tracer, stats);
    double layer_sum = 0.0;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      // The root's self time is glue, and the wire codec has no
      // in-process engine counterpart.
      const bool wire_codec = s.name == "encode_frame" ||
                              s.name == "decode_frame_payload";
      if (s.parent >= 0 && !wire_codec) {
        layer_sum += tracer.self_seconds(static_cast<int>(i));
      }
    }
    layers_s.push_back(layer_sum);
  }
  const double engine = median(engine_s);
  const double layers = median(layers_s);
  const double share = std::abs(layers - engine) / engine;
  char what[160];
  std::snprintf(what, sizeof what,
                "layer self-times %.4f s vs in-process solve %.4f s "
                "(off by %.1f%%, limit %.0f%%)",
                layers, engine, 100.0 * share, 100.0 * kClosureShare);
  expect(share <= kClosureShare, what);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : ".";
  for (const char* name : {"simul_inproc", "rounds_shm", "packed_ooc"}) {
    check_workload(name, work_dir);
  }
  check_closure();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
