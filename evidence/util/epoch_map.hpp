// Epoch-stamped dense map for the evidence kernels that need per-vertex
// counters across repeated calls (vertex_cap_kernel's degree caps). It rides
// a MachineScratch through state<EpochMap<T>>(), so the core workspace keeps
// no member for it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"
#include "util/workspace.hpp"

namespace rcc {

/// ref(v) yields a value reference that reads as freshly value-initialized
/// the first time v is touched after reset(): clearing is an epoch bump,
/// not an O(n) zeroing.
template <typename T>
class EpochMap {
 public:
  void reset(std::size_t n, WorkspaceStats* stats = nullptr) {
    if (stamps_.size() < n) {
      workspace_detail::sized(stamps_, n, stats);
      workspace_detail::sized(values_, n, stats);
    }
    bump();
  }

  std::size_t size() const { return stamps_.size(); }

  T& ref(std::size_t v) {
    RCC_DCHECK(v < stamps_.size());
    if (stamps_[v] != epoch_) {
      stamps_[v] = epoch_;
      values_[v] = T{};
    }
    return values_[v];
  }

  T get(std::size_t v) const {
    RCC_DCHECK(v < stamps_.size());
    return stamps_[v] == epoch_ ? values_[v] : T{};
  }

 private:
  void bump() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  std::vector<std::uint32_t> stamps_;
  std::vector<T> values_;
  std::uint32_t epoch_ = 0;
};

}  // namespace rcc
