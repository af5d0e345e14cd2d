#include "mpc/mpc.hpp"

#include <algorithm>
#include <cmath>

namespace rcc {

MpcConfig MpcConfig::paper_default(VertexId n, double c) {
  MpcConfig cfg;
  cfg.num_machines = static_cast<std::size_t>(
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(n)))));
  cfg.memory_words = static_cast<std::uint64_t>(
      c * static_cast<double>(n) * std::sqrt(static_cast<double>(n)) *
      std::log2(std::max<double>(n, 2.0)));
  return cfg;
}

void MpcLedger::begin_round(const std::string& label) {
  round_labels_.push_back(label);
  round_peak_words_.push_back(0);
  current_round_usage_.assign(config_.num_machines, 0);
}

void MpcLedger::charge(std::size_t machine, std::uint64_t words) {
  RCC_CHECK(machine < config_.num_machines);
  RCC_CHECK(!round_labels_.empty());
  current_round_usage_[machine] += words;
  RCC_CHECK(current_round_usage_[machine] <= config_.memory_words);
  round_peak_words_.back() =
      std::max(round_peak_words_.back(), current_round_usage_[machine]);
  max_memory_words_ = std::max(max_memory_words_, current_round_usage_[machine]);
}

void mpc_reshuffle_round(std::size_t num_edges,
                         const std::vector<std::size_t>& delivered,
                         MpcLedger& ledger) {
  const std::size_t k = ledger.config().num_machines;
  RCC_CHECK(delivered.size() == k);
  ledger.begin_round("re-partition");
  // Sender side: each machine holds its chunk of the adversarial placement.
  // Only the chunk sizes matter for the charge, and the placement is m
  // edges in k contiguous chunks, edge i on machine floor(i*k/m) (the
  // evidence library's sorted_chunk_partition), so machine j's chunk is
  // [ceil(j*m/k), ceil((j+1)*m/k)) — no need to materialize the placement.
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t begin = (j * num_edges + k - 1) / k;
    const std::size_t end = ((j + 1) * num_edges + k - 1) / k;
    ledger.charge(j, 2 * (end - begin));
  }
  // Receiver side: what the shuffle actually delivered to each machine.
  for (std::size_t dst = 0; dst < k; ++dst) {
    ledger.charge(dst, 2 * delivered[dst]);
  }
}

}  // namespace rcc
