#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.hpp"
#include "coreset/compose.hpp"
#include "coreset/matching_coresets.hpp"
#include "coreset/vc_coreset.hpp"
#include "distributed/summary_wire.hpp"
#include "matching/greedy.hpp"
#include "partition/sharded_partition.hpp"

namespace perfbench {

// ---- Tracer ---------------------------------------------------------------

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : origin_ns_(steady_ns()) {}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - origin_ns_) / 1e3;
}

int Tracer::open(std::string name, const char* layer) {
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.solve = solve_;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

double Tracer::close(int id) {
  RCC_CHECK(!stack_.empty() && stack_.back() == id);
  stack_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_us = now_us() - span.start_us;
  return span.dur_us / 1e6;
}

void Tracer::counter(std::string name, double value) {
  counters_.push_back(CounterSample{std::move(name), now_us(), value});
}

double Tracer::self_seconds(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  double children_us = 0.0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == id) children_us += spans_[i].dur_us;
  }
  return (span.dur_us - children_us) / 1e6;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"solve\": %llu, \"parent\": %d}}",
                 first ? "" : ",\n", s.name.c_str(), s.layer, s.start_us,
                 s.dur_us, static_cast<unsigned long long>(s.solve), s.parent);
    first = false;
  }
  for (const CounterSample& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %.3f, "
                 "\"pid\": 1, \"args\": {\"value\": %.17g}}",
                 first ? "" : ",\n", c.name.c_str(), c.ts_us, c.value);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---- Replay ---------------------------------------------------------------

namespace {

std::uint64_t summary_edges(const rcc::EdgeList& s) { return s.num_edges(); }
std::uint64_t summary_edges(const rcc::VcCoresetOutput& s) {
  return s.residual_edges.num_edges();
}
std::uint64_t summary_words(const rcc::EdgeList& s) {
  return rcc::MessageSize{s.num_edges(), 0}.words();
}
std::uint64_t summary_words(const rcc::VcCoresetOutput& s) {
  return rcc::MessageSize{s.residual_edges.num_edges(),
                          s.fixed_vertices.size()}
      .words();
}

/// One engine round through the public layer functions: partition, fork
/// the k machine streams, build each piece's summary, and send it through
/// the wire codec. Returns the decoded summaries, as the coordinator sees
/// them.
template <typename Summary, typename Coreset>
std::vector<Summary> replay_round(rcc::ShardedPartition<rcc::Edge>& parts,
                                  rcc::EdgeSpan input, const WorkloadSpec& spec,
                                  rcc::Rng& rng, rcc::ThreadPool* pool,
                                  const Coreset& coreset, Tracer& tracer,
                                  ReplayStats& stats, std::uint64_t& words) {
  const VertexId n = input.num_vertices();
  const std::size_t k = spec.k;

  int span = tracer.open("ShardedPartition", "partition");
  parts.repartition(std::span<const rcc::Edge>(input.data(), input.num_edges()),
                    n, k, rng, pool);
  stats.partition_s += tracer.close(span);
  ++stats.partition_calls;
  stats.partition_edges += input.num_edges();

  span = tracer.open("Rng::fork x k", "distributed");
  std::vector<rcc::Rng> machine_rngs;
  machine_rngs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) machine_rngs.push_back(rng.fork());
  tracer.close(span);

  std::vector<Summary> decoded(k);
  double slowest = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const rcc::EdgeSpan piece(parts.shard(i).data(), parts.shard_size(i), n);
    const rcc::PartitionContext ctx{n, k, i, spec.left_size, nullptr};
    span = tracer.open(coreset.name() + " build", "coreset");
    const Summary summary = coreset.build(piece, ctx, machine_rngs[i]);
    const double build_s = tracer.close(span);
    stats.build_s += build_s;
    slowest = std::max(slowest, build_s);
    stats.piece_edges += piece.num_edges();
    stats.summary_edges += summary_edges(summary);
    words += summary_words(summary);

    span = tracer.open("encode_frame", "distributed");
    const std::vector<std::uint8_t> frame =
        rcc::encode_frame(summary, static_cast<std::uint32_t>(i));
    stats.encode_s += tracer.close(span);
    stats.frame_bytes += frame.size();

    span = tracer.open("decode_frame_payload", "distributed");
    const rcc::FrameHeader header = rcc::decode_frame_header(frame.data());
    decoded[i] = rcc::decode_frame_payload<Summary>(
        header, frame.data() + rcc::kFrameHeaderBytes);
    stats.decode_s += tracer.close(span);
  }
  stats.build_s_max += slowest;
  tracer.counter("summary_words", static_cast<double>(words));
  return decoded;
}

/// The arena edges the round's fold filters into survivors (the engine's
/// MpcRoundContext::active_edges: shards concatenated, partition order).
rcc::EdgeSpan arena_of(const rcc::ShardedPartition<rcc::Edge>& parts) {
  return rcc::EdgeSpan(parts.arena().data(), parts.num_edges(),
                       parts.num_vertices());
}

/// coreset_mpc_matching_rounds' loop (one round = the single-round
/// protocol): compose each round's coresets, extend the matching, carry the
/// edges with both endpoints still free.
rcc::Matching replay_matching(const WorkloadSpec& spec, rcc::EdgeSource graph,
                              std::size_t max_rounds, rcc::Rng& rng,
                              rcc::ThreadPool* pool, Tracer& tracer,
                              ReplayStats& stats, SolveOutcome& out) {
  const VertexId n = graph.num_vertices();
  const rcc::MaximumMatchingCoreset coreset;
  rcc::ShardedPartition<rcc::Edge> parts;
  rcc::Matching matched(n);
  rcc::EdgeList survivors(n);
  for (std::size_t r = 0; r < max_rounds; ++r) {
    const rcc::EdgeSpan input = r == 0 ? graph.edges() : rcc::EdgeSpan(survivors);
    const std::size_t active = input.num_edges();
    const auto summaries = replay_round<rcc::EdgeList>(
        parts, input, spec, rng, pool, coreset, tracer, stats, out.comm_words);
    ++out.engine_rounds;

    const int span = tracer.open("compose_matching_coresets", "matching");
    for (const rcc::EdgeList& s : summaries) {
      stats.matching_union_edges += s.num_edges();
    }
    const rcc::Matching round = rcc::compose_matching_coresets(
        summaries, rcc::ComposeSolver::kMaximum, spec.left_size, rng);
    stats.matching_compose_s += tracer.close(span);

    const int fold = tracer.open("round fold", "mpc");
    rcc::greedy_extend(matched, round);
    rcc::EdgeList next(n);
    next.assign_filtered(arena_of(parts), [&](const rcc::Edge& e) {
      return !matched.is_matched(e.u) && !matched.is_matched(e.v);
    });
    survivors = std::move(next);
    tracer.close(fold);
    if (survivors.empty() || survivors.num_edges() == active) break;
  }
  return matched;
}

/// coreset_mpc_vertex_cover_rounds' loop: intermediate rounds commit the
/// machines' fixed vertices and carry what they leave uncovered; the last
/// round (or one where nothing was fixed) composes the coresets.
rcc::VertexCover replay_cover(const WorkloadSpec& spec, rcc::EdgeSource graph,
                              std::size_t max_rounds, rcc::Rng& rng,
                              rcc::ThreadPool* pool, Tracer& tracer,
                              ReplayStats& stats, SolveOutcome& out) {
  const VertexId n = graph.num_vertices();
  const rcc::PeelingVcCoreset coreset;
  rcc::ShardedPartition<rcc::Edge> parts;
  rcc::VertexCover cover(n);
  rcc::VertexCover fixed_all(n);
  rcc::EdgeList survivors(n);
  for (std::size_t r = 0; r < max_rounds; ++r) {
    const rcc::EdgeSpan input = r == 0 ? graph.edges() : rcc::EdgeSpan(survivors);
    const std::size_t active = input.num_edges();
    const auto summaries = replay_round<rcc::VcCoresetOutput>(
        parts, input, spec, rng, pool, coreset, tracer, stats, out.comm_words);
    ++out.engine_rounds;

    rcc::VertexCover round_fixed(n);
    for (const rcc::VcCoresetOutput& s : summaries) {
      for (VertexId v : s.fixed_vertices) round_fixed.insert(v);
    }
    fixed_all.merge(round_fixed);
    if (r + 1 < max_rounds && round_fixed.size() > 0) {
      const int fold = tracer.open("round fold", "mpc");
      cover.merge(round_fixed);
      rcc::EdgeList next(n);
      next.assign_filtered(arena_of(parts), [&](const rcc::Edge& e) {
        return !cover.contains(e.u) && !cover.contains(e.v);
      });
      survivors = std::move(next);
      tracer.close(fold);
      if (survivors.empty() || survivors.num_edges() == active) break;
      continue;
    }
    const int span = tracer.open("compose_vc_coresets", "vertex_cover");
    cover.merge(rcc::compose_vc_coresets(summaries, n, rng));
    stats.vc_compose_s += tracer.close(span);
    break;
  }
  stats.fixed_in_cover += fixed_all.size();
  return cover;
}

}  // namespace

SolveOutcome replay_solve(const WorkloadSpec& spec, rcc::EdgeSource graph,
                          std::uint64_t solve_seed, rcc::ThreadPool* pool,
                          std::size_t max_rounds, Tracer& tracer,
                          ReplayStats& stats) {
  const std::size_t rounds = spec.kind == Kind::kRoundsShm ? max_rounds : 1;
  SolveOutcome out;
  rcc::Rng rng(solve_seed);
  const int root = tracer.open("replayed solve", "solve");
  out.matching =
      replay_matching(spec, graph, rounds, rng, pool, tracer, stats, out);
  out.cover = replay_cover(spec, graph, rounds, rng, pool, tracer, stats, out);
  tracer.close(root);
  return out;
}

std::string compare_outcomes(const SolveOutcome& engine,
                             const SolveOutcome& replay) {
  const VertexId n = engine.matching.num_vertices();
  if (replay.matching.num_vertices() != n ||
      !std::equal(engine.matching.mate_data(), engine.matching.mate_data() + n,
                  replay.matching.mate_data())) {
    return "matching differs";
  }
  if (replay.cover.num_vertices() != n ||
      replay.cover.size() != engine.cover.size()) {
    return "cover differs";
  }
  for (VertexId v = 0; v < n; ++v) {
    if (engine.cover.contains(v) != replay.cover.contains(v)) {
      return "cover differs";
    }
  }
  if (engine.comm_words != replay.comm_words) return "comm_words differs";
  if (engine.engine_rounds != replay.engine_rounds) {
    return "engine_rounds differs";
  }
  return {};
}

}  // namespace perfbench
