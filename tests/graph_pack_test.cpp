// The .rgp pack format + mmap loader (graph/graph_pack.hpp) and the
// EdgeSource seam (graph/edge_source.hpp):
//
//   (a) round trip: GraphPack::write -> MappedGraph reproduces every
//       generator family edge-for-edge (weighted packs bit-exactly, order
//       preserved), and the streaming PackWriter produces byte-identical
//       files to the whole-list convenience,
//   (b) the refactor's differential: every protocol driver and round-
//       combiner run from a mapped pack equals the in-memory EdgeList path
//       seed-for-seed — exact solutions, word-exact communication ledgers,
//       and the caller's RNG stream position — including through the
//       forked-worker socket transport,
//   (c) adversarial inputs die with a "graph pack:" diagnostic naming the
//       defect (bad magic/version/flags, truncated header or records, a
//       lying edge count, out-of-universe endpoints, self-loops,
//       unnormalized records, NaN/infinite/negative weights), mirroring
//       summary_wire_test's frame suite,
//   (d) mechanics: move semantics keep the mapping alive, drop_resident
//       releases pages without changing the bytes behind the views.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/protocol.hpp"
#include "distributed/protocols.hpp"
#include "distributed/weighted_matching_protocol.hpp"
#include "distributed/weighted_vc_protocol.hpp"
#include "graph/edge_source.hpp"
#include "graph/generators.hpp"
#include "graph/graph_pack.hpp"
#include "mpc/coreset_mpc.hpp"
#include "mpc/filtering_mpc.hpp"
#include "mpc/mpc_engine.hpp"

namespace rcc {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "graph_pack_test_" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Writes a small valid unweighted pack and returns its bytes for
/// corruption: n = 6, edges (0,1) (2,5) (3,4).
std::vector<std::uint8_t> valid_pack_bytes(const std::string& path) {
  EdgeList el(6);
  el.add(0, 1);
  el.add(2, 5);
  el.add(3, 4);
  GraphPack::write(el, path);
  return read_file(path);
}

std::vector<Edge> sorted_edges(const Matching& m) {
  EdgeList el = m.to_edge_list();
  el.sort();
  return el.edges();
}

// ---------------------------------------------------------------- round trip

TEST(GraphPack, RoundTripsEveryGeneratorFamily) {
  Rng rng(99);
  const HubGadget hub = hub_gadget(24, 3);
  const std::vector<std::pair<std::string, EdgeList>> families = {
      {"gnp", gnp(200, 6.0 / 200, rng)},
      {"gnm", gnm(150, 900, rng)},
      {"random_bipartite", random_bipartite(60, 80, 0.07, rng)},
      {"left_regular_bipartite", left_regular_bipartite(40, 50, 3, rng)},
      {"random_perfect_matching", random_perfect_matching(64, rng)},
      {"complete_bipartite", complete_bipartite(12, 17)},
      {"crown", crown(9)},
      {"crown_forest", crown_forest(5, 3)},
      {"star", star(33)},
      {"star_forest", star_forest(6, 7)},
      {"path", path(41)},
      {"cycle", cycle(29)},
      {"chung_lu", chung_lu_power_law(180, 2.5, 6.0, rng)},
      {"hub_gadget", hub.edges},
      {"empty", EdgeList(17)},
  };
  for (const auto& [name, el] : families) {
    const std::string path = tmp_path("family_" + name + ".rgp");
    GraphPack::write(el, path);
    const MappedGraph mapped(path);
    EXPECT_FALSE(mapped.weighted()) << name;
    EXPECT_EQ(mapped.num_vertices(), el.num_vertices()) << name;
    ASSERT_EQ(mapped.num_edges(), el.num_edges()) << name;
    EXPECT_EQ(mapped.file_bytes(),
              kPackHeaderBytes + sizeof(Edge) * el.num_edges());
    const EdgeSpan view = mapped.edges();
    for (std::size_t i = 0; i < el.num_edges(); ++i) {
      ASSERT_EQ(view[i], el[i]) << name << " record " << i;
    }
    std::remove(path.c_str());
  }
}

TEST(GraphPack, WeightedRoundTripIsBitExactAndOrderPreserving) {
  Rng rng(7);
  WeightedEdgeList w;
  w.num_vertices = 50;
  for (int i = 0; i < 400; ++i) {
    auto u = static_cast<VertexId>(rng.next_below(50));
    auto v = static_cast<VertexId>(rng.next_below(49));
    if (v >= u) ++v;
    // Deliberately unnormalized endpoint order and awkward weights
    // (subnormals, zero, huge): all must survive the file bit for bit.
    double weight = rng.uniform_real(0.0, 1e30);
    if (i % 7 == 0) weight = 0.0;
    if (i % 11 == 0) weight = std::numeric_limits<double>::denorm_min();
    w.add(u, v, weight);
  }
  const std::string path = tmp_path("weighted.rgp");
  GraphPack::write(w, path);
  const MappedGraph mapped(path);
  EXPECT_TRUE(mapped.weighted());
  EXPECT_EQ(mapped.num_vertices(), w.num_vertices);
  ASSERT_EQ(mapped.num_edges(), w.edges.size());
  const WeightedEdgeSpan view = mapped.weighted_edges();
  for (std::size_t i = 0; i < w.edges.size(); ++i) {
    EXPECT_EQ(view[i].u, w.edges[i].u) << i;
    EXPECT_EQ(view[i].v, w.edges[i].v) << i;
    EXPECT_EQ(std::memcmp(&view[i].weight, &w.edges[i].weight, sizeof(double)),
              0)
        << "weight bits differ at record " << i;
  }
  std::remove(path.c_str());
}

TEST(GraphPack, StreamingWriterMatchesWholeListConvenienceByteForByte) {
  Rng rng(3);
  const EdgeList el = gnp(120, 0.08, rng);
  const std::string whole = tmp_path("whole.rgp");
  const std::string streamed = tmp_path("streamed.rgp");
  GraphPack::write(el, whole);
  {
    PackWriter writer(streamed, el.num_vertices(), /*weighted=*/false);
    for (const Edge& e : el) writer.add(e.v, e.u);  // normalized on the way out
    EXPECT_EQ(writer.edges_written(), el.num_edges());
    // finish() left to the destructor: the RAII path must also patch m.
  }
  EXPECT_EQ(read_file(whole), read_file(streamed));
  std::remove(whole.c_str());
  std::remove(streamed.c_str());
}

TEST(GraphPack, MoveTransfersTheMapping) {
  const std::string path = tmp_path("move.rgp");
  (void)valid_pack_bytes(path);
  MappedGraph a(path);
  const MappedGraph b(std::move(a));
  EXPECT_EQ(b.num_vertices(), 6u);
  ASSERT_EQ(b.num_edges(), 3u);
  EXPECT_EQ(b.edges()[1], make_edge(2, 5));
  MappedGraph c(path);
  c = MappedGraph(path);  // move-assign over a live mapping
  EXPECT_EQ(c.num_edges(), 3u);
  std::remove(path.c_str());
}

TEST(GraphPack, DropResidentKeepsTheBytesReadable) {
  Rng rng(5);
  const EdgeList el = gnm(5000, 60000, rng);
  const std::string path = tmp_path("resident.rgp");
  GraphPack::write(el, path);
  const MappedGraph mapped(path);
  const EdgeSpan view = mapped.edges();
  const Edge first = view[0];
  const Edge last = view[view.num_edges() - 1];
  // Dropping the whole range (and a sub-range, and an empty range) must not
  // change what later reads observe — pages re-fault from the page cache.
  mapped.drop_resident(0, mapped.num_edges());
  mapped.drop_resident(10, 20);
  mapped.drop_resident(30, 30);
  EXPECT_EQ(view[0], first);
  EXPECT_EQ(view[view.num_edges() - 1], last);
  for (std::size_t i = 0; i < view.num_edges(); ++i) {
    ASSERT_EQ(view[i], el[i]);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- differential: seam
//
// Every driver below runs twice from one seed: once from the in-memory
// EdgeList, once from the MappedGraph over its pack. Solutions, word-exact
// ledgers, and the caller's RNG position must be identical — the EdgeSource
// seam may not perturb a single draw.

class PackDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng gen(kSeed);
    graph_ = gnp(300, 5.0 / 300, gen);
    path_ = tmp_path("differential.rgp");
    GraphPack::write(graph_, path_);
    mapped_.emplace(path_);
  }
  void TearDown() override {
    mapped_.reset();
    std::remove(path_.c_str());
  }

  /// Runs `driver(source, rng)` from the heap list and from the pack and
  /// applies `check(heap_result, pack_result)`; RNG positions are compared
  /// here so every driver gets the check for free.
  template <typename Driver, typename Check>
  void expect_identical(const Driver& driver, const Check& check) {
    Rng heap_rng(kSeed);
    const auto heap = driver(EdgeSource(graph_), heap_rng);
    Rng pack_rng(kSeed);
    const auto pack = driver(EdgeSource(*mapped_), pack_rng);
    check(heap, pack);
    EXPECT_EQ(heap_rng.next_u64(), pack_rng.next_u64())
        << "pack path consumed a different RNG stream";
  }

  static constexpr std::uint64_t kSeed = 41;
  EdgeList graph_;
  std::string path_;
  std::optional<MappedGraph> mapped_;
};

TEST_F(PackDifferential, MatchingProtocol) {
  const MaximumMatchingCoreset coreset;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return run_matching_protocol(src, 6, coreset, ComposeSolver::kMaximum,
                                     0, rng);
      },
      [](const MatchingProtocolResult& heap,
         const MatchingProtocolResult& pack) {
        EXPECT_EQ(sorted_edges(heap.solution), sorted_edges(pack.solution));
        EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
        ASSERT_EQ(heap.summaries.size(), pack.summaries.size());
        for (std::size_t i = 0; i < heap.summaries.size(); ++i) {
          EXPECT_EQ(heap.summaries[i].edges(), pack.summaries[i].edges());
        }
      });
}

TEST_F(PackDifferential, MatchingProtocolOverSocketTransport) {
  // The pack feeds the forked-worker loopback transport: workers inherit
  // the mapping copy-on-write and build their summaries off it directly.
  const MaximumMatchingCoreset coreset;
  StreamingOptions socket;
  socket.transport = EngineTransport::kSocket;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return run_matching_protocol(src, 5, coreset, ComposeSolver::kMaximum,
                                     0, rng, /*pool=*/nullptr, socket);
      },
      [](const MatchingProtocolResult& heap,
         const MatchingProtocolResult& pack) {
        EXPECT_EQ(sorted_edges(heap.solution), sorted_edges(pack.solution));
        EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
        EXPECT_EQ(pack.transport.frames, 5u);
      });
}

TEST_F(PackDifferential, MatchingProtocolOverShmTransport) {
  // Same differential through the shared-memory rings: the forked workers
  // inherit the mapping copy-on-write and the frames flow through the shm
  // segment instead of loopback.
  const MaximumMatchingCoreset coreset;
  StreamingOptions shm;
  shm.transport = EngineTransport::kShm;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return run_matching_protocol(src, 5, coreset, ComposeSolver::kMaximum,
                                     0, rng, /*pool=*/nullptr, shm);
      },
      [](const MatchingProtocolResult& heap,
         const MatchingProtocolResult& pack) {
        EXPECT_EQ(sorted_edges(heap.solution), sorted_edges(pack.solution));
        EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
        EXPECT_EQ(pack.transport.frames, 5u);
      });
}

TEST_F(PackDifferential, VcProtocol) {
  const PeelingVcCoreset coreset;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return run_vc_protocol(src, 6, coreset, rng);
      },
      [](const VcProtocolResult& heap, const VcProtocolResult& pack) {
        EXPECT_EQ(heap.solution.vertices(), pack.solution.vertices());
        EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
      });
}

TEST_F(PackDifferential, GroupedVcProtocol) {
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return grouped_vc_protocol(src, 5, /*alpha=*/26.0, rng);
      },
      [](const GroupedVcProtocolResult& heap,
         const GroupedVcProtocolResult& pack) {
        EXPECT_EQ(heap.solution.vertices(), pack.solution.vertices());
        EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
      });
}

TEST_F(PackDifferential, WeightedVcProtocol) {
  Rng wgen(17);
  VertexWeights weights(graph_.num_vertices());
  for (double& x : weights) x = wgen.uniform_real(1.0, 64.0);
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return weighted_vc_protocol(src, weights, 5, rng);
      },
      [](const WeightedVcProtocolResult& heap,
         const WeightedVcProtocolResult& pack) {
        EXPECT_EQ(heap.solution.vertices(), pack.solution.vertices());
        EXPECT_EQ(heap.cover_cost, pack.cover_cost);
        EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
      });
}

TEST_F(PackDifferential, CoresetMpcMatchingRounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph_.num_vertices());
  config.max_rounds = 3;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return coreset_mpc_matching_rounds(src, config, 0, rng);
      },
      [](const CoresetMpcMatchingResult& heap,
         const CoresetMpcMatchingResult& pack) {
        EXPECT_EQ(sorted_edges(heap.matching), sorted_edges(pack.matching));
        EXPECT_EQ(heap.stats.total_comm_words, pack.stats.total_comm_words);
        EXPECT_EQ(heap.stats.engine_rounds, pack.stats.engine_rounds);
      });
}

TEST_F(PackDifferential, CoresetMpcVcRounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph_.num_vertices());
  config.max_rounds = 3;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return coreset_mpc_vertex_cover_rounds(src, config, rng);
      },
      [](const CoresetMpcVcResult& heap, const CoresetMpcVcResult& pack) {
        EXPECT_EQ(heap.cover.vertices(), pack.cover.vertices());
        EXPECT_EQ(heap.stats.total_comm_words, pack.stats.total_comm_words);
      });
}

TEST_F(PackDifferential, FilteringMpcRounds) {
  MpcEngineConfig config;
  config.mpc = MpcConfig::paper_default(graph_.num_vertices());
  config.max_rounds = 12;
  expect_identical(
      [&](EdgeSource src, Rng& rng) {
        return filtering_mpc_rounds(src, config, rng);
      },
      [](const FilteringMpcResult& heap, const FilteringMpcResult& pack) {
        EXPECT_EQ(sorted_edges(heap.maximal_matching),
                  sorted_edges(pack.maximal_matching));
        EXPECT_EQ(heap.filter_iterations, pack.filter_iterations);
        EXPECT_EQ(heap.stats.total_comm_words, pack.stats.total_comm_words);
      });
}

TEST(GraphPackDifferential, WeightedMatchingProtocolFromPack) {
  // Separate fixture: the weighted driver reads a weighted pack.
  Rng gen(23);
  WeightedEdgeList w;
  w.num_vertices = 120;
  for (int i = 0; i < 700; ++i) {
    const auto u = static_cast<VertexId>(gen.next_below(119));
    w.add(u, static_cast<VertexId>(u + 1), gen.uniform_real(0.5, 16.0));
  }
  const std::string path = tmp_path("weighted_differential.rgp");
  GraphPack::write(w, path);
  const MappedGraph mapped(path);

  Rng heap_rng(23);
  const WeightedMatchingProtocolResult heap =
      weighted_matching_protocol(w, 5, 0, heap_rng);
  Rng pack_rng(23);
  const WeightedMatchingProtocolResult pack =
      weighted_matching_protocol(mapped, 5, 0, pack_rng);
  EXPECT_EQ(sorted_edges(heap.solution), sorted_edges(pack.solution));
  EXPECT_EQ(heap.matching_weight, pack.matching_weight);
  EXPECT_EQ(heap.comm.total_words(), pack.comm.total_words());
  EXPECT_EQ(heap.max_classes_per_machine, pack.max_classes_per_machine);
  EXPECT_EQ(heap_rng.next_u64(), pack_rng.next_u64());
  std::remove(path.c_str());
}

// -------------------------------------------------------- adversarial packs
//
// Malformed packs abort with a "graph pack:" diagnostic naming the defect
// (the summary_wire_test frame-suite pattern). Every mutation below starts
// from a freshly written VALID pack, so each test isolates one defect.

class GraphPackDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    path_ = tmp_path("corrupt.rgp");
    bytes_ = valid_pack_bytes(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void rewrite() { write_file(path_, bytes_); }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(GraphPackDeathTest, MissingFile) {
  EXPECT_DEATH((void)MappedGraph(tmp_path("nonexistent.rgp")),
               "graph pack: .*cannot open");
}

TEST_F(GraphPackDeathTest, BadMagic) {
  bytes_[0] ^= 0xff;
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*bad magic");
}

TEST_F(GraphPackDeathTest, VersionSkew) {
  bytes_[4] = 9;
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_),
               "graph pack: .*version 9, this build reads version 1");
}

TEST_F(GraphPackDeathTest, UnknownFlagBits) {
  bytes_[6] |= 0x04;
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_),
               "graph pack: .*unknown flag bits 0x0004");
}

TEST_F(GraphPackDeathTest, ReservedWordSet) {
  bytes_[12] = 1;
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*reserved header word");
}

TEST_F(GraphPackDeathTest, TruncatedHeader) {
  bytes_.resize(kPackHeaderBytes - 1);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*truncated header");
}

TEST_F(GraphPackDeathTest, TruncatedEdgeSection) {
  bytes_.resize(bytes_.size() - 3);  // tears the last record
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*header claims 3");
}

TEST_F(GraphPackDeathTest, LyingEdgeCount) {
  std::uint64_t m = 1000;  // file holds 3 records
  std::memcpy(bytes_.data() + 16, &m, sizeof m);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*header claims 1000");
}

TEST_F(GraphPackDeathTest, EndpointOutOfUniverse) {
  std::uint32_t v = 6;  // universe is [0, 6)
  std::memcpy(bytes_.data() + kPackHeaderBytes + 4, &v, sizeof v);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*out of universe");
}

TEST_F(GraphPackDeathTest, SelfLoop) {
  std::uint32_t v = 0;  // first record becomes (0, 0)
  std::memcpy(bytes_.data() + kPackHeaderBytes + 4, &v, sizeof v);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_),
               "graph pack: .*record 0 is a self-loop at vertex 0");
}

TEST_F(GraphPackDeathTest, UnnormalizedUnweightedRecord) {
  std::uint32_t u = 5, v = 2;  // second record becomes (5, 2)
  std::memcpy(bytes_.data() + kPackHeaderBytes + 8, &u, sizeof u);
  std::memcpy(bytes_.data() + kPackHeaderBytes + 12, &v, sizeof v);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*is not normalized");
}

TEST_F(GraphPackDeathTest, NaNWeight) {
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(1, 0, 2.5);
  GraphPack::write(w, path_);
  bytes_ = read_file(path_);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes_.data() + kPackHeaderBytes + 8, &nan, sizeof nan);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_),
               "graph pack: .*record 0 weight is NaN");
}

TEST_F(GraphPackDeathTest, InfiniteWeight) {
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(1, 0, 2.5);
  GraphPack::write(w, path_);
  bytes_ = read_file(path_);
  const double inf = std::numeric_limits<double>::infinity();
  std::memcpy(bytes_.data() + kPackHeaderBytes + 8, &inf, sizeof inf);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_),
               "graph pack: .*record 0 weight is infinite");
}

TEST_F(GraphPackDeathTest, WriterRejectsAnInfiniteWeight) {
  EXPECT_DEATH(
      {
        PackWriter writer(path_, 4, /*weighted=*/true);
        writer.add(1, 0, std::numeric_limits<double>::infinity());
      },
      "RCC_CHECK");
}

TEST_F(GraphPackDeathTest, NegativeWeight) {
  WeightedEdgeList w;
  w.num_vertices = 4;
  w.add(1, 0, 2.5);
  GraphPack::write(w, path_);
  bytes_ = read_file(path_);
  const double neg = -1.5;
  std::memcpy(bytes_.data() + kPackHeaderBytes + 8, &neg, sizeof neg);
  rewrite();
  EXPECT_DEATH((void)MappedGraph(path_), "graph pack: .*is negative");
}

}  // namespace
}  // namespace rcc
