// ScopedTimer profiling hooks that feed latency histograms.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace zendoo::obs {

/// RAII wall-clock timer recording elapsed nanoseconds into a latency
/// histogram on destruction. Null histogram = fully inert (the pattern
/// for optional instrumentation: the pointer is the on/off switch).
/// Wall-clock by nature — feed histograms registered kWallClock.
template <class H>
class BasicScopedTimer {
 public:
  explicit BasicScopedTimer(H* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~BasicScopedTimer() {
    if (hist_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->record(static_cast<std::uint64_t>(ns));
  }
  BasicScopedTimer(const BasicScopedTimer&) = delete;
  BasicScopedTimer& operator=(const BasicScopedTimer&) = delete;

 private:
  H* hist_;
  std::chrono::steady_clock::time_point start_;
};

using ScopedTimer = BasicScopedTimer<Histogram>;
using AtomicScopedTimer = BasicScopedTimer<AtomicHistogram>;

}  // namespace zendoo::obs
