// Weighted matching for a distributed auction market.
//
// Scenario: bidders (left) place weighted bids on items (right); bid records
// are sharded randomly across k ingestion servers. We want a near-maximum-
// weight assignment without centralizing all bids. The Crouch-Stubbs
// weighted coreset (Section 1.1's weighted extension) ships one maximum
// matching per geometric price band per server.
//
// Run:  ./weighted_auction --bidders 20000 --items 20000
#include <cstdint>
#include <cstdio>

#include "coreset/weighted_coreset.hpp"
#include "matching/weighted.hpp"
#include "partition/sharded_partition.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rcc;
  Options opts("weighted_auction: distributed max-weight assignment");
  opts.flag("bidders", "5000", "left side size");
  opts.flag("items", "5000", "right side size");
  opts.flag("bids-per-bidder", "100", "average bids per bidder (dense book)");
  opts.flag("max-price", "1000", "price range upper bound");
  opts.flag("servers", "8", "ingestion servers (k), 1 .. 1024");
  opts.flag("seed", "55", "PRNG seed");
  opts.parse(argc, argv);

  // Bidders and items share one vertex universe below kInvalidVertex.
  const auto bidders =
      static_cast<VertexId>(opts.get_int_in("bidders", 1, kInvalidVertex - 1));
  const auto items = static_cast<VertexId>(
      opts.get_int_in("items", 1, kInvalidVertex - bidders));
  const auto k = static_cast<std::size_t>(
      opts.get_int_in("servers", 1, kMaxMachinesFlag));
  const double max_price = opts.get_double("max-price");
  Rng rng(static_cast<std::uint64_t>(opts.get_int_in("seed", 0, INT64_MAX)));

  // Build the bid graph: heavy-tailed prices in [1, max_price].
  WeightedEdgeList bids;
  bids.num_vertices = bidders + items;
  const double p = opts.get_double("bids-per-bidder") / items;
  for (VertexId b = 0; b < bidders; ++b) {
    VertexId item = bidders + static_cast<VertexId>(rng.geometric_skip(p));
    while (item < bidders + items) {
      const double u = rng.uniform01();
      bids.add(b, item, 1.0 + (max_price - 1.0) * u * u * u);  // skewed
      const auto skip = rng.geometric_skip(p);
      if (skip >= static_cast<std::uint64_t>(bidders + items - item - 1)) break;
      item += 1 + static_cast<VertexId>(skip);
    }
  }
  std::printf("market: %u bidders, %u items, %zu bids on %zu servers\n\n",
              bidders, items, bids.edges.size(), k);

  // Shard, build per-server Crouch-Stubbs coresets, compose.
  const ShardedPartition<WeightedEdge> shards = shard_random(bids, k, rng);
  std::vector<WeightedCoresetOutput> summaries;
  std::size_t summary_items = 0;
  for (std::size_t i = 0; i < k; ++i) {
    PartitionContext ctx{bids.num_vertices, k, i, bidders};
    summaries.push_back(crouch_stubbs_coreset(shard_span(shards, i), ctx));
    summary_items += summaries.back().size_items();
  }
  const Matching assignment =
      compose_weighted_coresets(summaries, bids.num_vertices, bidders);
  const double coreset_value = matching_weight(assignment, bids);

  // Centralized baseline: greedy heaviest-first over ALL bids.
  const double central_value =
      matching_weight(greedy_weighted_matching(bids), bids);

  TablePrinter table({"approach", "assignment value", "records shipped"});
  table.add_row({"Crouch-Stubbs coresets (distributed)",
                 TablePrinter::fmt(coreset_value, 0),
                 TablePrinter::fmt(std::uint64_t{summary_items})});
  table.add_row({"greedy on all bids (centralized)",
                 TablePrinter::fmt(central_value, 0),
                 TablePrinter::fmt(std::uint64_t{bids.edges.size()})});
  table.print();
  std::printf("\nvalue ratio %.3f at %.1fx fewer records shipped\n",
              coreset_value / central_value,
              static_cast<double>(bids.edges.size()) /
                  static_cast<double>(summary_items));
  return 0;
}
