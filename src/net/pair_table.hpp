// Flat per-node-pair storage for the simulator's send/deliver hot path:
// link overrides, per-link delivery stats and ban deadlines.
//
// A hash map keyed by `(a << 32) | b` would cost a hash, a probe and a
// possible allocation on every send(). PairTable stores every pair
// densely in one n x n table instead (stride-indexed, the stride
// doubling as the cluster grows), so each lookup is one multiply and one
// load. For the cluster sizes the scale sweeps run (tens to hundreds of
// nodes) that is small: at 256 nodes the largest table, of 40-byte
// LinkStats, is ~2.6 MB.
#pragma once

#include <cstdint>
#include <vector>

namespace zendoo::net {

/// Value table keyed by an ordered pair of node ids, stored densely.
/// Callers that want symmetric keys normalize the pair before calling.
/// Values are value-initialized on first touch; `find` distinguishes
/// "never written" from "written with a default value".
template <typename T>
class PairTable {
 public:
  /// Grows the table to cover node ids [0, n). Amortized O(1) per node:
  /// the stride doubles, so re-indexing totals O(final n^2).
  void ensure_nodes(std::size_t n) {
    if (n <= nodes_) return;
    const std::size_t old_nodes = nodes_;
    nodes_ = n;
    if (nodes_ > stride_) {
      std::size_t new_stride = stride_ == 0 ? 8 : stride_;
      while (new_stride < nodes_) new_stride *= 2;
      std::vector<T> dense(new_stride * new_stride);
      std::vector<std::uint8_t> used(new_stride * new_stride, 0);
      for (std::size_t a = 0; a < old_nodes; ++a) {
        for (std::size_t b = 0; b < old_nodes; ++b) {
          dense[a * new_stride + b] = std::move(dense_[a * stride_ + b]);
          used[a * new_stride + b] = used_[a * stride_ + b];
        }
      }
      dense_ = std::move(dense);
      used_ = std::move(used);
      stride_ = new_stride;
    }
  }

  /// Mutable slot for (a, b), created value-initialized if absent.
  /// Precondition: both ids < the node count passed to ensure_nodes.
  T& slot(std::uint32_t a, std::uint32_t b) {
    const std::size_t idx = a * stride_ + b;
    used_[idx] = 1;
    return dense_[idx];
  }

  /// Read-only lookup; nullptr when the pair was never written.
  [[nodiscard]] const T* find(std::uint32_t a, std::uint32_t b) const {
    if (a >= nodes_ || b >= nodes_) return nullptr;
    const std::size_t idx = a * stride_ + b;
    return used_[idx] != 0 ? &dense_[idx] : nullptr;
  }

 private:
  std::size_t nodes_ = 0;
  std::size_t stride_ = 0;
  std::vector<T> dense_;
  std::vector<std::uint8_t> used_;
};

}  // namespace zendoo::net
