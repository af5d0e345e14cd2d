// paper_experiments: the paper's experiments, one subcommand each.
//
//   paper_experiments <id> [--seed N] [--scale S] [--reps R]
//
// Every row of kExperiments names an experiment, its anchor (the theorem,
// lemma, remark or section it reproduces, or the cited results it mirrors),
// the claim, and the bench_<name>.cpp function that measures it. The run
// prints a paper-style table; main prints the banner before it and
// the verdict line after it, and exits 0 when the measured shape matches
// the claim and 1 when it does not. A missing or unknown id prints the list
// and exits 2.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "util/options.hpp"

namespace {

using namespace rcc::bench;

struct Experiment {
  const char* id;
  const char* anchor;
  const char* claim;
  bool (*run)(const ExperimentSetup&);
};

constexpr Experiment kExperiments[] = {
    {"exp1", "Theorem 1",
     "maximum-matching coresets give an O(1)-approximation (paper bound 9); "
     "ratio should stay flat as k grows",
     run_matching_coreset},
    {"exp2", "Section 1.2",
     "adversarial maximal matching coreset is Omega(k)-approximate on the "
     "hub gadget; maximum matching coreset stays ~1",
     run_greedy_gap},
    {"exp3", "Theorem 2",
     "peeling coresets give an O(log n)-approximate vertex cover; ratio flat "
     "in k, coreset size O~(n)",
     run_vc_coreset},
    {"exp4", "Section 1.2",
     "min-VC-of-piece union is Omega(k)-approximate on star forests "
     "(expected ~k/e); the peeling coreset stays ~2",
     run_vc_negative},
    {"exp5", "Theorem 3",
     "budget-s coresets on D_Matching recover ~s*alpha/k planted edges per "
     "machine under ANY local policy; alpha-approx needs "
     "s = Omega(n/alpha^2)",
     run_lb_matching},
    {"exp6", "Theorem 4",
     "budget-s summaries on D_VC miss the hidden edge e* unless "
     "s = Omega(n/alpha); e* survives w.p. ~ min(1, 2 s alpha / n)",
     run_lb_vc},
    {"exp7", "Remark 5.2",
     "subsampling the maximum-matching coreset at rate 1/alpha gives "
     "~alpha-approximation with ~nk/alpha^2 words of communication",
     run_subsampled_protocol},
    {"exp8", "Remark 5.8",
     "contracting vertex groups of size alpha/log n before the peeling "
     "coreset gives <= alpha-ish approximation with communication shrinking "
     "~1/alpha",
     run_grouping_protocol},
    {"exp9", "Section 1.1",
     "coreset-MPC solves matching & VC in 2 rounds (1 round on random "
     "input); the filtering baseline needs more rounds when the graph "
     "exceeds one machine's memory",
     run_mapreduce},
    {"exp10", "Results 1 and 3",
     "coreset protocols use O~(nk) total communication — linear in k and in "
     "n; per-machine messages are O~(n)",
     run_communication},
    {"exp11", "Appendix A",
     "G(n,n,1/n) has ~n/e degree-1 left vertices and an induced matching of "
     "~n/e^2 >= n/e^3; balls-in-bins singletons follow (B/M)*N*e^{-N/M}",
     run_induced_matching},
    {"exp12", "Lemmas 3.1 and 3.2",
     "GreedyMatch adds ~MM/k edges per early step (Lemma 3.2); the final "
     "matching is >= MM/9 (Lemma 3.1; empirically ~0.6 MM)",
     run_greedymatch_growth},
    {"exp13", "Section 1.1",
     "weighted matching coresets (Crouch-Stubbs) lose <= ~2x vs the "
     "centralized baseline and the summary grows by O(log W) classes",
     run_weighted},
    {"exp15", "Section 1.1",
     "weighted VC via weight-grouped peeling coresets: cost within a small "
     "factor of the centralized 2-approx; summaries grow only with log W",
     run_weighted_vc},
    {"exp16", "Theorem 1",
     "design freedoms: per-machine algorithm choice and coordinator solver "
     "do not change the O(1) quality; footnote-3 kernels are exact once "
     "cap >= MM",
     run_ablation},
    {"exp17", "Lemma 5.7",
     "Hidden Vertex Problem: success probability is ~budget/m unless the "
     "output blows up to Omega(|U|) — the Omega(n/alpha) message bound of "
     "Theorem 6 in game form",
     run_hvp},
    {"exp18", "Section 1",
     "connectivity has a composable coreset under ANY partition; matching's "
     "O(1) guarantee is specific to random partitioning",
     run_contrast},
    {"exp19", "Lemma 5.1",
     "MatchingRecovery: E[recovered edges] = (message edges) / c with "
     "c = Theta(k/alpha) blocks — the core of Theorem 5",
     run_matching_recovery},
    {"exp20", "cited [38, 44]",
     "random arrival order rescues streaming greedy from its worst case — "
     "the single-machine analogue of random partitioning",
     run_streaming},
};

int usage() {
  std::fprintf(stderr,
               "usage: paper_experiments <id> [--seed N] [--scale S] "
               "[--reps R]\n\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %-6s %-19s %s\n", e.id, e.anchor, e.claim);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string id = argc >= 2 ? argv[1] : "";
  const Experiment* experiment = nullptr;
  for (const Experiment& e : kExperiments) {
    if (id == e.id) experiment = &e;
  }
  if (experiment == nullptr) return usage();

  rcc::Options opts(std::string(experiment->id) + " (" + experiment->anchor +
                    "): " + experiment->claim);
  opts.flag("seed", "42", "PRNG seed");
  opts.flag("scale", "1.0", "instance size multiplier");
  opts.flag("reps", "3", "repetitions per configuration");
  opts.parse(argc - 1, argv + 1);  // argv[1], the id, stands in for argv[0]
  ExperimentSetup setup;
  setup.seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  setup.scale = opts.get_double("scale");
  setup.reps = static_cast<int>(opts.get_int("reps"));

  std::printf("=== %s (%s) ===\n%s\n(seed=%llu scale=%.2f reps=%d)\n\n",
              experiment->id, experiment->anchor, experiment->claim,
              static_cast<unsigned long long>(setup.seed), setup.scale,
              setup.reps);
  const bool ok = experiment->run(setup);
  std::printf("\n[%s] %s (%s)\n", ok ? "SHAPE-OK" : "SHAPE-MISMATCH",
              experiment->id, experiment->anchor);
  return ok ? 0 : 1;
}
