// MapReduce / MPC computation model of Karloff-Suri-Vassilvitskii [42] as
// used by Lattanzi et al. [46] and by this paper's Section 1.1 application.
//
// The simulator tracks the two resources the model constrains:
//   * rounds   — number of map/shuffle/reduce super-steps;
//   * memory   — the maximum number of words resident on any single machine
//                in any round (edges cost 2 words, vertex ids 1).
// Machine computation is free in the model, so the simulator executes
// reducers directly; what it *enforces* is the memory cap: any round that
// would overfill a machine aborts the run (RCC_CHECK), exactly the
// constraint that forces multi-round algorithms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace rcc {

struct MpcConfig {
  std::size_t num_machines = 0;
  std::uint64_t memory_words = 0;  // per-machine cap

  /// The paper's parameterization: k = sqrt(n) machines with O~(n sqrt(n))
  /// memory each (c is the hidden constant; log factor included).
  static MpcConfig paper_default(VertexId n, double c = 4.0);
};

/// Resource ledger of one MPC execution.
class MpcLedger {
 public:
  explicit MpcLedger(MpcConfig config) : config_(config) {}

  const MpcConfig& config() const { return config_; }

  /// Declares a new round; per-machine residency resets.
  void begin_round(const std::string& label);

  /// Records `words` resident on `machine` this round; aborts if the cap is
  /// exceeded (the algorithm does not fit the model).
  void charge(std::size_t machine, std::uint64_t words);

  std::size_t rounds() const { return round_labels_.size(); }
  std::uint64_t max_memory_words() const { return max_memory_words_; }
  const std::vector<std::string>& round_labels() const { return round_labels_; }

  /// Peak single-machine residency of each declared round (parallel to
  /// round_labels()); the multi-round executor reports these against the
  /// per-machine budget.
  const std::vector<std::uint64_t>& round_peak_words() const {
    return round_peak_words_;
  }

 private:
  MpcConfig config_;
  std::vector<std::string> round_labels_;
  std::vector<std::uint64_t> round_peak_words_;
  std::vector<std::uint64_t> current_round_usage_;
  std::uint64_t max_memory_words_ = 0;
};

/// The re-partition round that precedes coreset computation on adversarially
/// placed input (coreset_mpc.hpp, Round 1): every machine scatters its edges
/// uniformly at random, so the union each machine receives is a random
/// k-partitioning of G. Charges the ledger for both sides of the shuffle:
/// senders hold their chunks of the adversarial placement (sizes derived
/// from `num_edges`), receivers hold `delivered[j]` edges each — the shard
/// sizes of the random partition the next round actually processes, so the
/// accounting describes the realized shuffle, not a simulated one.
void mpc_reshuffle_round(std::size_t num_edges,
                         const std::vector<std::size_t>& delivered,
                         MpcLedger& ledger);

}  // namespace rcc
