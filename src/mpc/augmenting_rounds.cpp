#include "mpc/augmenting_rounds.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "matching/augmenting_paths.hpp"
#include "util/options.hpp"
#include "util/workspace.hpp"

namespace rcc {

namespace {

std::uint64_t path_words(const std::vector<AugmentingPath>& paths) {
  std::uint64_t words = 0;
  for (const AugmentingPath& p : paths) words += p.words();
  return words;
}

/// Round-combiner: absorb stages pointers into the machines' path batches
/// (the batches live in the engine's retained summary vector, which is
/// pre-sized and stable, so the pointers survive until finish), finish
/// resolves conflicts and applies.
struct AugmentingRoundFold {
  Matching& matched;
  const AugmentingRoundsConfig& aug;
  bool& certified;
  VertexId num_vertices;
  /// Staged candidate: the first two vertex ids packed into one 64-bit sort
  /// key next to the path pointer. Canonicalized paths have >= 2 vertices
  /// and the key order is a prefix of canonical_less, so sorting by (key,
  /// full compare on ties) is the same order with almost every comparison
  /// resolved on one integer instead of two pointer-chased vectors.
  struct Candidate {
    std::uint64_t key;
    const AugmentingPath* path;
  };
  std::vector<Candidate> candidates;

  static std::uint64_t key_of(const AugmentingPath& p) {
    return (static_cast<std::uint64_t>(p.vertices[0]) << 32) | p.vertices[1];
  }

  void absorb(std::vector<AugmentingPath>& machine_paths,
              std::size_t /*machine*/, MpcRoundContext& /*ctx*/) {
    for (const AugmentingPath& p : machine_paths) {
      candidates.push_back({key_of(p), &p});
    }
  }

  EdgeList finish(std::vector<std::vector<AugmentingPath>>& /*summaries*/,
                  MpcRoundContext& ctx, Rng& /*coordinator_rng*/) {
    // The matching every machine searched against was broadcast at the top
    // of this super-step: charge each machine for holding it.
    ctx.charge_all(2 * static_cast<std::uint64_t>(matched.size()));

    // First-wins in canonical order: paths from different (disjoint) shards
    // can still collide on vertices, and the flat lexicographic order makes
    // the outcome independent of machine count, thread schedule, AND absorb
    // order (the sort erases arrival effects). A surviving path is
    // vertex-disjoint from every previously applied one, so it is still
    // augmenting for the updated M.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.key != b.key) return a.key < b.key;
                return canonical_less(*a.path, *b.path);
              });
    const EpochMarks::View touched =
        ctx.coordinator_scratch().vertex_marks(num_vertices).view();
    std::size_t applied = 0;
    for (const Candidate& c : candidates) {
      const AugmentingPath* p = c.path;
      bool conflict = false;
      for (VertexId v : p->vertices) conflict |= touched.test(v);
      if (conflict) continue;
      for (VertexId v : p->vertices) touched.set(v);
      apply_augmenting_path(matched, *p);
      ++applied;
    }
    candidates.clear();

    if (applied == 0) {
      // No shard held a whole path. The coordinator sweeps the round's full
      // edge set once: an empty sweep proves no augmenting path of length
      // <= 2k+1 exists anywhere — the (1 + 1/(k+1)) certificate — and a
      // non-empty one keeps the run progressing (its paths are already
      // mutually disjoint and are charged like any other path message).
      // The sweep centralizes the round's residual on machine M, so its
      // residency is charged first (2 words per edge) — a budget below the
      // residual size honestly aborts here instead of certifying for free.
      ctx.charge(0, 2 * static_cast<std::uint64_t>(
                        ctx.active_edges().num_edges()));
      const std::vector<AugmentingPath> sweep =
          find_augmenting_paths(ctx.active_edges(), matched,
                                aug.max_path_length,
                                &ctx.coordinator_scratch());
      if (sweep.empty()) {
        certified = true;
        ctx.certify_ratio(aug.certified_ratio());
        ctx.request_stop();
      } else {
        ctx.charge(0, path_words(sweep));
        for (const AugmentingPath& p : sweep) {
          apply_augmenting_path(matched, p);
          ++applied;
        }
      }
    }
    // Applied paths are the round's progress units: the survivors stay flat
    // on purpose (matched edges are future matched hops), so this is what
    // keeps the executor's stagnation check from firing on a working round.
    ctx.note_progress(applied);
    // Recirculate every edge through the executor's double-buffer instead
    // of materializing a fresh copy of the arena each round.
    ctx.survivors_out().assign(ctx.active_edges());
    return std::move(ctx.survivors_out());
  }
};

}  // namespace

AugmentingRoundsConfig AugmentingRoundsConfig::for_epsilon(double epsilon) {
  RCC_CHECK(epsilon > 0.0);
  // Smallest k with 1/(k+1) <= epsilon; nudge before ceil so that exact
  // reciprocals (0.5, 0.25, ...) do not round up a slot on fp noise. Clamp
  // before the cast: a vanishing epsilon would otherwise overflow size_t
  // (UB), and no graph needs a path cap anywhere near the clamp.
  constexpr double kMaxSlots = 1e9;
  const double slots =
      std::min(std::ceil(1.0 / epsilon - 1e-9), kMaxSlots);
  const std::size_t k_plus_1 =
      std::max<std::size_t>(1, static_cast<std::size_t>(slots));
  AugmentingRoundsConfig config;
  config.max_path_length = 2 * (k_plus_1 - 1) + 1;
  return config;
}

AugmentingMpcResult run_matching_rounds_augmenting(
    EdgeSource graph, const MpcEngineConfig& config,
    const AugmentingRoundsConfig& aug, VertexId left_size, Rng& rng,
    ThreadPool* pool, ProtocolWorkspace* workspace) {
  RCC_CHECK(aug.max_path_length % 2 == 1);

  Matching matched(graph.num_vertices());
  bool certified = false;

  // This combiner keeps the surviving edge counts flat on purpose (matched
  // edges are future matched hops), but it reports every applied path as a
  // progress unit, so the executor's progress-aware early stop is safe to
  // honor as configured; termination is normally the certificate below.
  MpcEngineConfig exec = config;
  exec.round_label = "augmenting-round";

  const auto build = [&](EdgeSpan piece, const PartitionContext& ctx, Rng&) {
    // M is stable for the whole machine phase (all writes happen in the
    // fold's finish, after every machine returned), so concurrent shard
    // searches against it are safe. NOT round-invariant, though: finish
    // rewrites M between rounds, so cross-process runs must fork per round
    // (the default) rather than keep workers with a fork-time snapshot.
    return find_augmenting_paths(piece, matched, aug.max_path_length,
                                 ctx.scratch);
  };
  const auto account = [](const std::vector<AugmentingPath>& paths) {
    return MessageSize{0, path_words(paths)};
  };
  AugmentingRoundFold fold{matched, aug, certified, graph.num_vertices(), {}};

  AugmentingMpcResult result;
  result.stats = run_mpc_rounds(graph, exec, left_size, rng, pool, build,
                                account, fold, workspace);
  result.matching = std::move(matched);
  result.rounds = result.stats.mpc_rounds;
  result.max_memory_words = result.stats.max_memory_words;
  result.certified = certified;
  result.certified_ratio = certified ? aug.certified_ratio() : 0.0;
  result.total_augmentations = result.stats.total_augmentations;
  return result;
}

AugmentingRoundsConfig augmenting_config_from_options(const Options& options) {
  const double epsilon = options.get_double("mpc-epsilon");
  if (epsilon > 0.0) return AugmentingRoundsConfig::for_epsilon(epsilon);
  const std::int64_t length = options.get_int("mpc-max-path-length");
  if (length < 1 || length % 2 == 0) {
    flag_fail("mpc-max-path-length", "%lld must be an odd length >= 1 "
              "(2k+1)",
              static_cast<long long>(length));
  }
  AugmentingRoundsConfig config;
  config.max_path_length = static_cast<std::size_t>(length);
  return config;
}

}  // namespace rcc
