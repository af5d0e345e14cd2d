// Single-pass sharded random k-partitioner: the library's one realization of
// the paper's random k-partitioning, and the partition phase of the protocol
// engine.
//
// It produces ONE flat edge arena plus a (k+1)-entry offset index; machine
// i's piece is the zero-copy slice arena[offsets[i], offsets[i+1]). No
// per-machine list is ever materialized: callers that drive machines by
// hand read piece i as `shard_span(parts, i)`.
//
// Pipeline (templated over unweighted/weighted edges):
//
//   1. counting pass  — edges are cut into fixed-size batches; each batch
//      draws destinations from its own forked RNG stream and tallies a
//      per-(batch, machine) histogram,
//   2. offset index   — machine totals prefix-sum into the arena offsets;
//      per-batch write cursors fall out of the same scan,
//   3. scatter pass   — each batch copies its edges into the arena at the
//      precomputed cursors.
//
// Both edge passes parallelize over batches on the thread pool, and because
// batch boundaries and RNG forks are fixed by the edge count alone, the
// arena layout is byte-identical for any thread count (and equal to the
// sequential run). Within a machine, edges keep their global input order —
// the scatter is stable — so downstream algorithms see the same piece a
// sequential stable partitioner would hand them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "matching/weighted.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace rcc {

/// Edges per partition batch. One batch of Edge payloads (128 KiB) stays
/// cache-resident while it is counted and scattered; batch boundaries are a
/// pure function of the edge count, which is what makes the layout
/// independent of thread scheduling.
inline constexpr std::size_t kPartitionBatchEdges = std::size_t{1} << 14;

template <typename EdgeT>
class ShardedPartition {
 public:
  ShardedPartition() = default;

  /// Partitions `edges` into k shards of one flat arena. Draws k-sided dice
  /// from one forked RNG stream per batch; `pool` may be null for
  /// sequential execution (same result either way). `backing` places the
  /// arena (util/workspace.hpp): the heap, or a shared mapping for runs
  /// whose machines are forked workers. The layout does not depend on it.
  ShardedPartition(std::span<const EdgeT> edges, VertexId num_vertices,
                   std::size_t k, Rng& rng, ThreadPool* pool = nullptr,
                   ArenaBacking backing = ArenaBacking::kHeap) {
    repartition(edges, num_vertices, k, rng, pool, nullptr, backing);
  }

  /// (Re)partitions into this object, reusing the arena (grow-only) and —
  /// when `scratch` is given — the counting/scatter buffers of a
  /// round-persistent workspace. Byte-identical results to constructing a
  /// fresh ShardedPartition with the same inputs; the multi-round executor
  /// calls this once per round so steady-state rounds allocate nothing here.
  void repartition(std::span<const EdgeT> edges, VertexId num_vertices,
                   std::size_t k, Rng& rng, ThreadPool* pool = nullptr,
                   PartitionScratch* scratch = nullptr,
                   ArenaBacking backing = ArenaBacking::kHeap) {
    num_vertices_ = num_vertices;
    RCC_CHECK(k >= 1);
    const std::size_t m = edges.size();
    const std::size_t num_batches =
        (m + kPartitionBatchEdges - 1) / kPartitionBatchEdges;

    PartitionScratch local;
    PartitionScratch& s = scratch != nullptr ? *scratch : local;
    WorkspaceStats* stats = s.stats;

    // Fork the per-batch streams up front (serial: forking is two draws).
    std::vector<Rng>& batch_rngs =
        workspace_detail::reserved(s.batch_rngs, num_batches, stats);
    batch_rngs.clear();
    for (std::size_t b = 0; b < num_batches; ++b) {
      batch_rngs.push_back(rng.fork());
    }

    // Pass 1: draw destinations, tally per-(batch, machine) counts.
    // Destinations are memoized (one byte when k fits) so the scatter pass
    // does not redraw. For k <= 256 each 64-bit draw yields four k-sided
    // dice via 16-bit-lane Lemire rejection — still exactly uniform, and
    // the dominant cost of the legacy per-edge next_below drops ~4x.
    const bool narrow = k <= 256;
    std::vector<std::size_t>& counts =
        workspace_detail::sized(s.counts, num_batches * k, stats);
    if (!narrow) {
      // The narrow counting pass overwrites every (batch, machine) row in
      // full; the wide pass increments and needs a zeroed histogram.
      std::fill(counts.begin(), counts.end(), std::size_t{0});
    }
    std::vector<std::uint8_t>& dest8 =
        workspace_detail::sized(s.dest8, narrow ? m : 0, stats);
    std::vector<std::uint32_t>& dest32 =
        workspace_detail::sized(s.dest32, narrow ? 0 : m, stats);
    const auto count_batch = [&](std::size_t b) {
      Rng& brng = batch_rngs[b];
      const std::size_t begin = b * kPartitionBatchEdges;
      const std::size_t end = std::min(begin + kPartitionBatchEdges, m);
      std::size_t* batch_counts = counts.data() + b * k;
      if (narrow) {
        // Lemire on 16-bit lanes: x uniform in [0, 2^16) maps to
        // (x*k) >> 16, rejecting lanes with (x*k mod 2^16) < 2^16 mod k so
        // every destination gets exactly floor(2^16 / k) accepted values.
        // Tallies go to a stack-local array: adjacent batches' rows of the
        // shared counts array can share a cache line when k is small, and
        // per-edge increments there would false-share across pool threads.
        const auto kk = static_cast<std::uint32_t>(k);
        const std::uint32_t reject_below = 65536u % kk;
        std::array<std::size_t, 256> local_counts{};
        std::uint64_t bits = 0;
        int lanes_left = 0;
        if (reject_below == 0) {
          // Power-of-two k: no lane can be rejected, so every u64 maps to
          // exactly four consecutive edges. The quad unroll keeps the four
          // independent mul/shift/store chains off the loop-carried edge
          // index, which the general pump below cannot avoid. Refills still
          // happen every fourth lane in order, so destinations — and the
          // arena layout — stay byte-identical to the rejection loop.
          std::size_t i = begin;
          for (; i + 4 <= end; i += 4) {
            const std::uint64_t q = brng.next_u64();
            const auto d0 = static_cast<std::uint8_t>(
                (static_cast<std::uint32_t>(q & 0xFFFFu) * kk) >> 16);
            const auto d1 = static_cast<std::uint8_t>(
                (static_cast<std::uint32_t>((q >> 16) & 0xFFFFu) * kk) >> 16);
            const auto d2 = static_cast<std::uint8_t>(
                (static_cast<std::uint32_t>((q >> 32) & 0xFFFFu) * kk) >> 16);
            const auto d3 = static_cast<std::uint8_t>(
                (static_cast<std::uint32_t>(q >> 48) * kk) >> 16);
            dest8[i] = d0;
            dest8[i + 1] = d1;
            dest8[i + 2] = d2;
            dest8[i + 3] = d3;
            ++local_counts[d0];
            ++local_counts[d1];
            ++local_counts[d2];
            ++local_counts[d3];
          }
          if (i < end) {
            std::uint64_t q = brng.next_u64();
            for (; i < end; ++i, q >>= 16) {
              const auto d = static_cast<std::uint8_t>(
                  (static_cast<std::uint32_t>(q & 0xFFFFu) * kk) >> 16);
              dest8[i] = d;
              ++local_counts[d];
            }
          }
        } else {
          // Branchless lane pump: every inner iteration consumes exactly
          // one lane; an accepted lane advances the edge index and bumps
          // its tally, a rejected one re-writes the same dest slot
          // (overwritten by the next lane) and advances nothing. Lane
          // consumption and refill order are identical to the per-edge
          // rejection loop this replaces, so destinations stay
          // byte-identical.
          std::size_t i = begin;
          while (i < end) {
            if (lanes_left == 0) {
              bits = brng.next_u64();
              lanes_left = 4;
            }
            do {
              const auto lane = static_cast<std::uint32_t>(bits & 0xFFFFu);
              bits >>= 16;
              --lanes_left;
              const std::uint32_t prod = lane * kk;
              const std::uint32_t d = prod >> 16;
              const std::size_t ok =
                  static_cast<std::size_t>((prod & 0xFFFFu) >= reject_below);
              dest8[i] = static_cast<std::uint8_t>(d);
              local_counts[d] += ok;
              i += ok;
            } while (lanes_left != 0 && i < end);
          }
        }
        for (std::size_t j = 0; j < k; ++j) batch_counts[j] = local_counts[j];
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          const auto d = static_cast<std::uint32_t>(brng.next_below(k));
          dest32[i] = d;
          ++batch_counts[d];
        }
      }
    };
    run_batches(num_batches, pool, count_batch);

    // Offset index: machine totals -> arena offsets; the same scan yields
    // each batch's write cursor for each machine.
    offsets_.assign(k + 1, 0);
    for (std::size_t b = 0; b < num_batches; ++b) {
      for (std::size_t j = 0; j < k; ++j) offsets_[j + 1] += counts[b * k + j];
    }
    for (std::size_t j = 0; j < k; ++j) offsets_[j + 1] += offsets_[j];
    std::vector<std::size_t>& cursors =
        workspace_detail::sized(s.cursors, num_batches * k, stats);
    {
      std::vector<std::size_t>& running =
          workspace_detail::sized(s.running, k, stats);
      std::copy(offsets_.begin(), offsets_.end() - 1, running.begin());
      for (std::size_t b = 0; b < num_batches; ++b) {
        for (std::size_t j = 0; j < k; ++j) {
          cursors[b * k + j] = running[j];
          running[j] += counts[b * k + j];
        }
      }
    }

    // Pass 2: scatter raw edge payloads into the arena (no per-edge
    // normalization, bounds checks, or capacity growth — the source edges
    // already honor the EdgeList invariants). The arena is uninitialized
    // byte storage (EdgeT is an implicit-lifetime aggregate): every slot is
    // written exactly once by the scatter, so a zeroing resize would be a
    // wasted full pass over the buffer. Grow-only across repartition calls,
    // and — with a workspace scratch — owned by the workspace, so arenas
    // survive the partition object and whole RUNS stop allocating here.
    num_edges_ = m;
    ArenaBuffer& storage = scratch != nullptr ? s.arena : arena_storage_;
    const std::size_t grown = storage.reserve(m * sizeof(EdgeT), backing);
    if (grown != 0 && stats != nullptr) stats->note_growth(grown);
    arena_ = reinterpret_cast<EdgeT*>(storage.data());
    EdgeT* arena = arena_;
    const auto scatter_batch = [&](std::size_t b) {
      std::size_t* cur = cursors.data() + b * k;
      const std::size_t begin = b * kPartitionBatchEdges;
      const std::size_t end = std::min(begin + kPartitionBatchEdges, m);
      if (narrow) {
        // Cursors advance on a stack-local copy for the same false-sharing
        // reason as the counting pass (each batch's row is logically
        // private, but adjacent rows can share cache lines).
        std::array<std::size_t, 256> local_cur;
        for (std::size_t j = 0; j < k; ++j) local_cur[j] = cur[j];
        for (std::size_t i = begin; i < end; ++i) {
          arena[local_cur[dest8[i]]++] = edges[i];
        }
      } else {
        for (std::size_t i = begin; i < end; ++i) arena[cur[dest32[i]]++] = edges[i];
      }
    };
    run_batches(num_batches, pool, scatter_batch);
  }

  std::size_t num_machines() const { return offsets_.size() - 1; }
  VertexId num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return num_edges_; }

  /// Machine i's piece: a view into the shared arena, never a copy.
  std::span<const EdgeT> shard(std::size_t i) const {
    return {arena_ + offsets_[i], arena_ + offsets_[i + 1]};
  }

  /// The whole partitioned edge set as one contiguous view (the shards
  /// concatenated in machine order). The multi-round MPC executor hands this
  /// to its round-combiner so survivors can be filtered without re-collecting
  /// the pieces.
  std::span<const EdgeT> arena() const { return {arena_, num_edges_}; }

  std::size_t shard_size(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  const std::vector<std::size_t>& offsets() const { return offsets_; }

 private:
  template <typename Fn>
  static void run_batches(std::size_t num_batches, ThreadPool* pool,
                          const Fn& fn) {
    if (pool != nullptr && num_batches > 1) {
      parallel_for(*pool, num_batches, fn);
    } else {
      for (std::size_t b = 0; b < num_batches; ++b) fn(b);
    }
  }

  VertexId num_vertices_ = 0;
  std::size_t num_edges_ = 0;
  /// The scattered edges: either owned storage (below) or a view into the
  /// caller's PartitionScratch arena, which must then outlive this object.
  EdgeT* arena_ = nullptr;
  ArenaBuffer arena_storage_;
  std::vector<std::size_t> offsets_{0};  // size k+1 ({0} = empty partition)
};

/// Maps an edge payload to its non-owning view type (what coreset builders
/// and the protocol engine's machine phase consume).
template <typename EdgeT>
struct EdgeViewOf;
template <>
struct EdgeViewOf<Edge> {
  using type = EdgeSpan;
};
template <>
struct EdgeViewOf<WeightedEdge> {
  using type = WeightedEdgeSpan;
};

/// Convenience builders for the two edge flavors.
inline ShardedPartition<Edge> shard_random(const EdgeList& edges, std::size_t k,
                                           Rng& rng,
                                           ThreadPool* pool = nullptr) {
  return ShardedPartition<Edge>(
      std::span<const Edge>(edges.edges().data(), edges.num_edges()),
      edges.num_vertices(), k, rng, pool);
}

inline ShardedPartition<WeightedEdge> shard_random(
    const WeightedEdgeList& edges, std::size_t k, Rng& rng,
    ThreadPool* pool = nullptr) {
  return ShardedPartition<WeightedEdge>(
      std::span<const WeightedEdge>(edges.edges.data(), edges.edges.size()),
      edges.num_vertices, k, rng, pool);
}

/// Machine i's piece as the view type the coreset interfaces take
/// (EdgeSpan / WeightedEdgeSpan); `parts` must outlive the view.
template <typename EdgeT>
typename EdgeViewOf<EdgeT>::type shard_span(
    const ShardedPartition<EdgeT>& parts, std::size_t i) {
  const auto s = parts.shard(i);
  return {s.data(), s.size(), parts.num_vertices()};
}

}  // namespace rcc
