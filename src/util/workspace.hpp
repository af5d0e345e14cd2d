// Round-persistent scratch memory for the protocol engine's hot paths.
//
// The paper's efficiency story is that every machine does near-linear local
// work on an O(m/k)-size piece — which makes the per-round constant factor
// allocation-bound once the algorithms themselves are linear. Before this
// subsystem, every MPC round re-allocated (and re-faulted) the partition
// scatter buffers, one CSR adjacency per machine, O(n) solver state per
// matching call, and a fresh survivor EdgeList per fold. A ProtocolWorkspace
// owns all of that storage across rounds (and across runs, when the caller
// keeps one alive): buffers grow to their high-water mark during round 0 and
// are reused verbatim afterwards, so steady-state rounds perform zero
// workspace allocations — a property the workspace *counts* (WorkspaceStats)
// and tests/workspace_test.cpp regression-checks per round.
//
// Ownership rules (see README "Performance playbook"):
//  * one MachineScratch per machine task — the engine hands machine i its
//    scratch through PartitionContext::scratch; builds may use it freely and
//    must not share it across machines,
//  * one coordinator MachineScratch for the fold phase
//    (MpcRoundContext::coordinator_scratch()) — absorb/finish run on the
//    coordinator thread and never race the machine scratches,
//  * epoch-stamped marks make "clear" O(1): bump the epoch instead of
//    zeroing n entries. unset() writes epoch 0, which no clear() ever
//    reuses, so set/unset/test work within one epoch,
//  * all scratch state is *conversational garbage* between calls: no
//    function may assume a buffer's content on entry, only its capacity.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace rcc {

/// Buffer-growth accounting shared by every buffer of one workspace.
/// `allocations` counts capacity growths (i.e. real heap traffic), not uses;
/// a warmed-up workspace holds it constant. Atomic because machine scratches
/// grow concurrently on pool threads.
struct WorkspaceStats {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> bytes_reserved{0};

  void note_growth(std::uint64_t bytes) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    bytes_reserved.fetch_add(bytes, std::memory_order_relaxed);
  }
};

/// Point-in-time copy of a workspace's counters (WorkspaceStats itself is
/// non-copyable because of the atomics).
struct WorkspaceCounters {
  std::uint64_t allocations = 0;
  std::uint64_t bytes_reserved = 0;
};

namespace workspace_detail {

/// Allocator adaptor that default-initializes on value-less construct: for
/// trivial element types, vector::resize stops value-initializing (no
/// memset over memory the caller overwrites anyway). Only for buffers whose
/// every element is written before it is read — the cold-start cost of a
/// workspace is otherwise dominated by zeroing pages it is about to fill.
template <typename T, typename A = std::allocator<T>>
class DefaultInitAllocator : public A {
  using Traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };
  using A::A;

  template <typename U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U* ptr, Args&&... args) {
    Traits::construct(static_cast<A&>(*this), ptr,
                      std::forward<Args>(args)...);
  }
};

}  // namespace workspace_detail

/// Scratch vector: identical to std::vector except that resize() leaves new
/// trivial elements uninitialized. The raw-pointer views hot loops take
/// (data()) are unaffected by the allocator parameter.
template <typename T>
using ScratchVec = std::vector<T, workspace_detail::DefaultInitAllocator<T>>;

namespace workspace_detail {

/// Ensures capacity >= n, recording real capacity growth in `stats`,
/// without touching the size — for queue-style buffers that clear() and
/// push. Growth is geometric (at least doubling) with 25% + 64-slot
/// headroom: workloads whose per-round sizes fluctuate — random
/// re-partitions hand a machine a slightly different shard size every
/// round, with relative variance ~1/sqrt(shard) that the constant floor
/// covers on small shards — land inside the slack instead of growing by a
/// few percent each round, so the steady state really is allocation-free.
template <typename T, typename Alloc>
std::vector<T, Alloc>& reserved(std::vector<T, Alloc>& v, std::size_t n,
                                WorkspaceStats* stats) {
  if (v.capacity() < n) {
    const std::size_t target = std::max(n + n / 4 + 64, v.capacity() * 2);
    if (stats != nullptr) {
      stats->note_growth((target - v.capacity()) * sizeof(T));
    }
    v.reserve(target);
  }
  return v;
}

/// Resizes `v` to n elements under reserved()'s growth policy. Content of
/// the first min(old_size, n) elements is preserved; anything beyond is
/// value-initialized by vector::resize. Callers treat the result as
/// uninitialized scratch unless they filled it themselves.
template <typename T, typename Alloc>
std::vector<T, Alloc>& sized(std::vector<T, Alloc>& v, std::size_t n,
                             WorkspaceStats* stats) {
  reserved(v, n, stats);
  v.resize(n);
  return v;
}

}  // namespace workspace_detail

/// Dense mark array with O(1) clear via epoch stamping: test(v) is true iff
/// set(v) happened after the last clear() (and no unset(v) since). The
/// replacement for the per-call `std::unordered_set<VertexId>` /
/// `std::vector<char>` idiom in the search and validation hot paths.
class EpochMarks {
 public:
  /// Sizes the mark universe to [0, n) and clears all marks (O(1) unless the
  /// array grows or the 32-bit epoch wraps).
  void reset(std::size_t n, WorkspaceStats* stats = nullptr) {
    if (stamps_.size() < n) {
      workspace_detail::sized(stamps_, n, stats);
    }
    bump();
  }

  std::size_t size() const { return stamps_.size(); }

  void set(std::size_t v) {
    RCC_DCHECK(v < stamps_.size());
    stamps_[v] = epoch_;
  }
  /// Reverts v to unmarked within the current epoch (0 is never a live
  /// epoch, so the entry reads as unset until the next set()).
  void unset(std::size_t v) {
    RCC_DCHECK(v < stamps_.size());
    stamps_[v] = 0;
  }
  bool test(std::size_t v) const {
    RCC_DCHECK(v < stamps_.size());
    return stamps_[v] == epoch_;
  }

  /// Flat view for hot sweep loops: the stamp pointer and the live epoch
  /// captured into locals, so a tight loop keeps the epoch in a register
  /// instead of reloading the member after every store (stores through the
  /// stamp pointer may alias the EpochMarks object itself, which otherwise
  /// forces the reload). test() compiles to a single compare — accumulate
  /// its result arithmetically (`hit |= view.test(v)`) to keep conflict
  /// sweeps branchless. The view is invalidated by reset() (epoch bump or
  /// growth); take it after the final reset of the call.
  struct View {
    std::uint32_t* stamps;
    std::uint32_t epoch;

    bool test(std::size_t v) const { return stamps[v] == epoch; }
    void set(std::size_t v) const { stamps[v] = epoch; }
    void unset(std::size_t v) const { stamps[v] = 0; }
  };
  View view() { return {stamps_.data(), epoch_}; }

 private:
  void bump() {
    if (++epoch_ == 0) {  // wrapped: all stamps are stale lies — wipe them
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;  // first reset() bumps to 1
};

/// One machine's (or the coordinator's) reusable scratch. Buffers are named
/// for their primary hot-path user but are deliberately generic; a kernel
/// may use any of them as long as it is done with them when it returns
/// (nothing may hold scratch state across calls except capacity).
class MachineScratch {
 public:
  MachineScratch() = default;
  explicit MachineScratch(WorkspaceStats* stats) : stats_(stats) {}

  WorkspaceStats* stats() { return stats_; }

  /// Epoch-stamped vertex marks (the VC peel's removed set, dedup, ...).
  EpochMarks& vertex_marks(std::size_t n) {
    marks_.reset(n, stats_);
    return marks_;
  }

  /// Per-vertex scatter cursors of a CSR build (Graph::assign).
  std::vector<std::size_t>& cursor(std::size_t n) {
    return workspace_detail::sized(cursor_, n, stats_);
  }

  /// Generic index / key scratch (greedy orders and precomputed sort keys).
  std::vector<std::size_t>& index_buffer(std::size_t n) {
    return workspace_detail::sized(index_, n, stats_);
  }
  std::vector<double>& key_buffer(std::size_t n) {
    return workspace_detail::sized(keys_, n, stats_);
  }

  /// Type-erased persistent solver state: one slot per type, default
  /// constructed on first use, reused (with all its warmed internal
  /// capacity) on every later call. This is how algorithm-private working
  /// sets (e.g. the blossom solver's arrays) ride the workspace without
  /// util/ depending on the algorithm layers.
  template <typename T>
  T& state() {
    for (const StateSlot& s : states_) {
      if (*s.type == typeid(T)) return *static_cast<T*>(s.ptr.get());
    }
    if (stats_ != nullptr) stats_->note_growth(sizeof(T));
    states_.push_back(StateSlot{
        &typeid(T),
        std::unique_ptr<void, void (*)(void*)>(
            new T(), [](void* p) { delete static_cast<T*>(p); })});
    return *static_cast<T*>(states_.back().ptr.get());
  }

 private:
  struct StateSlot {
    const std::type_info* type;
    std::unique_ptr<void, void (*)(void*)> ptr;
  };

  WorkspaceStats* stats_ = nullptr;
  EpochMarks marks_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> index_;
  std::vector<double> keys_;
  std::vector<StateSlot> states_;
};

/// Where a partition arena's pages live.
///   kHeap   — the allocator's heap: in-process runs, where threads read the
///             shards in the coordinator's own address space.
///   kShared — a shared anonymous mapping: runs whose machines are forked
///             workers. fork copies no page-table entry of a MAP_SHARED
///             mapping, so a worker starts with none of the arena mapped and
///             faults in only the shard it reads; its RSS counts its own
///             piece, not every machine's.
enum class ArenaBacking { kHeap, kShared };

/// Grow-only uninitialized byte storage of a partition arena, on either
/// backing. Contents are not kept across a growth or a change of backing.
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  ArenaBuffer(ArenaBuffer&& other) noexcept { swap(other); }
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept {
    ArenaBuffer(std::move(other)).swap(*this);
    return *this;
  }
  ~ArenaBuffer() { release(); }

  /// Makes the storage hold at least `bytes` on `backing`, reusing it when
  /// it already does. Returns how far the storage grew on that backing in
  /// bytes (0 on reuse, the whole size on a change of backing). A new
  /// shared mapping first hands the heap's free pages back to the kernel
  /// (malloc_trim): the mapping cannot reuse them as a heap arena would, so
  /// without the trim they would stay resident beside it.
  std::size_t reserve(std::size_t bytes, ArenaBacking backing);

  std::byte* data() const { return data_; }

 private:
  /// Frees the storage (a shared mapping's pages go back at once).
  void release();
  void swap(ArenaBuffer& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(capacity_, other.capacity_);
    std::swap(backing_, other.backing_);
  }

  std::byte* data_ = nullptr;
  std::size_t capacity_ = 0;
  ArenaBacking backing_ = ArenaBacking::kHeap;
};

/// Reusable buffers of the sharded partitioner's two passes (counting /
/// scatter) plus the edge arena itself. Owned by the workspace so every
/// round's — and every run's — re-partition reuses the same per-batch RNG
/// slots, histograms, destination memos, cursors, and arena storage. One
/// PartitionScratch backs ONE live ShardedPartition at a time (the arena is
/// shared storage, not a copy).
struct PartitionScratch {
  std::vector<Rng> batch_rngs;
  std::vector<std::size_t> counts;
  std::vector<std::uint8_t> dest8;
  std::vector<std::uint32_t> dest32;
  std::vector<std::size_t> cursors;
  std::vector<std::size_t> running;
  ArenaBuffer arena;
  WorkspaceStats* stats = nullptr;
};

/// The round-persistent workspace of one protocol execution: k machine
/// scratches + one coordinator scratch + the partitioner's scatter buffers,
/// all charged to one WorkspaceStats. Thread-compatibility contract: machine
/// scratch i is used only by machine task i, the coordinator scratch only by
/// the coordinator thread; ensure_machines() must be called before the
/// machine phase launches (it is not safe to grow the scratch set
/// concurrently).
class ProtocolWorkspace {
 public:
  ProtocolWorkspace() : coordinator_(&stats_) { partition_.stats = &stats_; }

  ProtocolWorkspace(const ProtocolWorkspace&) = delete;
  ProtocolWorkspace& operator=(const ProtocolWorkspace&) = delete;

  /// Pre-sizes the per-machine scratch set; existing scratches (and their
  /// warmed buffers) are kept.
  void ensure_machines(std::size_t k) {
    while (machines_.size() < k) {
      stats_.note_growth(sizeof(MachineScratch));
      machines_.emplace_back(&stats_);
    }
  }

  std::size_t num_machines() const { return machines_.size(); }

  MachineScratch& machine(std::size_t i) {
    RCC_DCHECK(i < machines_.size());
    return machines_[i];
  }

  MachineScratch& coordinator() { return coordinator_; }
  PartitionScratch& partition() { return partition_; }

  WorkspaceCounters counters() const {
    return {stats_.allocations.load(std::memory_order_relaxed),
            stats_.bytes_reserved.load(std::memory_order_relaxed)};
  }

 private:
  WorkspaceStats stats_;
  std::deque<MachineScratch> machines_;  // deque: stable addresses on growth
  MachineScratch coordinator_;
  PartitionScratch partition_;
};

}  // namespace rcc
