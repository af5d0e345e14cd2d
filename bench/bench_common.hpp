// Shared scaffolding for the paper experiments in bench/.
//
// Each bench_<name>.cpp other than bench_suite and bench_micro_algorithms
// holds one experiment as `run_<name>`: it prints a paper-style table and
// returns whether the measured shape matches the claim it reproduces. The
// paper_experiments program (paper_experiments.cpp) lists every experiment
// with its paper anchor and claim, parses --seed, --scale (0.25..4) and
// --reps once, and prints the banner and the verdict line around the run.
#pragma once

#include <cstdint>
#include <cstdio>

#include "util/rng.hpp"
#include "util/table.hpp"

namespace rcc::bench {

struct ExperimentSetup {
  std::uint64_t seed = 42;
  double scale = 1.0;
  int reps = 3;
};

bool run_matching_coreset(const ExperimentSetup& setup);     // EXP1
bool run_greedy_gap(const ExperimentSetup& setup);           // EXP2
bool run_vc_coreset(const ExperimentSetup& setup);           // EXP3
bool run_vc_negative(const ExperimentSetup& setup);          // EXP4
bool run_lb_matching(const ExperimentSetup& setup);          // EXP5
bool run_lb_vc(const ExperimentSetup& setup);                // EXP6
bool run_subsampled_protocol(const ExperimentSetup& setup);  // EXP7
bool run_grouping_protocol(const ExperimentSetup& setup);    // EXP8
bool run_mapreduce(const ExperimentSetup& setup);            // EXP9
bool run_communication(const ExperimentSetup& setup);        // EXP10
bool run_induced_matching(const ExperimentSetup& setup);     // EXP11
bool run_greedymatch_growth(const ExperimentSetup& setup);   // EXP12
bool run_weighted(const ExperimentSetup& setup);             // EXP13
bool run_weighted_vc(const ExperimentSetup& setup);          // EXP15
bool run_ablation(const ExperimentSetup& setup);             // EXP16
bool run_hvp(const ExperimentSetup& setup);                  // EXP17
bool run_contrast(const ExperimentSetup& setup);             // EXP18
bool run_matching_recovery(const ExperimentSetup& setup);    // EXP19

}  // namespace rcc::bench
