// EXP1 (Theorem 1 / R1a): the maximum-matching coreset composes to an O(1)
// approximation under random partitioning, flat in k. The paper proves a
// factor <= 9; empirically it hovers near 1.
//
// Table: per instance family and k, the measured approximation ratio
// MM(G) / MM(union of coresets) and the per-machine summary size.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "distributed/protocols.hpp"
#include "evidence/util/stats.hpp"
#include "graph/generators.hpp"
#include "matching/max_matching.hpp"
#include "partition/partition.hpp"

namespace {

using namespace rcc;

struct Family {
  std::string name;
  VertexId left_size;  // 0 = general graph
  EdgeList edges;
};

std::vector<Family> make_families(VertexId n, Rng& rng) {
  std::vector<Family> out;
  out.push_back({"G(n,5/n)", 0, gnp(n, 5.0 / n, rng)});
  out.push_back({"bipartite(n/2,n/2,8/n)", n / 2,
                 random_bipartite(n / 2, n / 2, 8.0 / n, rng)});
  {
    // Planted: perfect matching plus G(n, 2/n) noise — a near-perfect optimum.
    EdgeList planted = random_perfect_matching(n / 2, rng);
    planted.append(gnp(n, 2.0 / n, rng));
    out.push_back({"planted+noise", 0, std::move(planted)});
  }
  out.push_back({"power-law(beta=2.5)", 0, chung_lu_power_law(n, 2.5, 6.0, rng)});
  return out;
}

}  // namespace

namespace rcc::bench {

bool run_matching_coreset(const ExperimentSetup& setup) {
  Rng rng(setup.seed);
  const auto n = static_cast<VertexId>(12000 * setup.scale);

  TablePrinter table({"family", "k", "MM(G)", "ratio", "max-summary(edges)",
                      "total-comm(words)"});
  double worst_ratio = 0.0;
  for (auto& family : make_families(n, rng)) {
    const std::size_t opt = maximum_matching_size(family.edges, family.left_size);
    for (std::size_t k : {2, 4, 8, 16, 32, 64}) {
      RunningStat ratio_stat;
      std::uint64_t max_summary = 0;
      std::uint64_t comm = 0;
      for (int rep = 0; rep < setup.reps; ++rep) {
        const MatchingProtocolResult r = coreset_matching_protocol(
            family.edges, k, family.left_size, rng, nullptr);
        ratio_stat.add(static_cast<double>(opt) /
                       static_cast<double>(r.solution.size()));
        for (const auto& s : r.summaries) {
          max_summary = std::max<std::uint64_t>(max_summary, s.num_edges());
        }
        comm = r.comm.total_words();
      }
      worst_ratio = std::max(worst_ratio, ratio_stat.mean());
      table.add_row({family.name, TablePrinter::fmt(std::uint64_t{k}),
                     TablePrinter::fmt(std::uint64_t{opt}),
                     TablePrinter::fmt_ratio(ratio_stat.mean()),
                     TablePrinter::fmt(max_summary), TablePrinter::fmt(comm)});
    }
  }
  table.print();
  // Verdict: all measured ratios within the paper's factor-9 bound
  // (empirically expected ~1-2, flat in k).
  return worst_ratio <= 9.0;
}

}  // namespace rcc::bench
