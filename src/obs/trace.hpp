// Structured event tracing: a ring-buffered, caller-timestamped event
// log plus ScopedTimer profiling hooks that feed latency histograms.
//
// Events are deliberately cheap and flat: a timestamp the *caller*
// supplies (sim ticks in the net layer, block height in the mainchain —
// there is no wall clock in deterministic code), a severity, two static
// strings (component + message; no allocation, no formatting on the hot
// path) and two free uint64 arguments. The log is a fixed-size ring:
// pushing past capacity overwrites the oldest entry and counts the
// drop, so a misbehaving peer can never grow a node's memory by being
// noisy.
//
// Severities below the build-time floor compile out entirely: the
// ZENDOO_OBS_EVENT macro is an `if constexpr` on the severity, so a
// release build with ZENDOO_OBS_MIN_SEVERITY=2 contains no trace of
// kDebug call sites — not even the argument evaluation.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace zendoo::obs {

enum class Severity : std::uint8_t {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
};

/// One logged event. `time` is whatever clock the emitting layer runs
/// on (sim ticks, block height); `a`/`b` are free slots (peer id,
/// score, depth...) documented by the message.
struct Event {
  std::uint64_t time = 0;
  Severity severity = Severity::kInfo;
  const char* component = "";  ///< static string: "net", "mc", ...
  const char* message = "";    ///< static string, no formatting
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Fixed-capacity ring of Events, oldest overwritten first.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 128);

  void push(const Event& e);
  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events ever pushed / overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return total_ - size_;
  }
  void clear();

 private:
  std::vector<Event> ring_;
  std::size_t next_ = 0;  ///< slot the next push writes
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

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

/// Build-time severity floor: events below it are removed by the
/// compiler (kTrace is off by default; set =0 to keep everything,
/// =5 to strip all event logging).
#ifndef ZENDOO_OBS_MIN_SEVERITY
#define ZENDOO_OBS_MIN_SEVERITY 1
#endif

/// Logs into `log` iff `sev` (an unqualified Severity enumerator name)
/// clears the build-time floor; otherwise the whole statement — side
/// effects of the arguments included — is discarded at compile time.
/// Trailing arguments fill Event::a / Event::b.
#define ZENDOO_OBS_EVENT(log, sev, time, component, message, ...)          \
  do {                                                                     \
    if constexpr (static_cast<int>(::zendoo::obs::Severity::sev) >=        \
                  ZENDOO_OBS_MIN_SEVERITY) {                               \
      (log).push(::zendoo::obs::Event{                                     \
          static_cast<std::uint64_t>(time), ::zendoo::obs::Severity::sev,  \
          (component), (message)__VA_OPT__(, ) __VA_ARGS__});              \
    }                                                                      \
  } while (0)
