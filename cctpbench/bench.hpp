// Shared machinery of the CCTP benchmark binary: the step timeline of a
// timed phase, span tracing around calls into the program, failure
// accounting, output checks and the per-layer metric table.
//
// Only calls into the program are timed. Client-side work (the traffic
// generator's key derivation, coin selection and signing) runs outside
// the step stopwatch and is accounted separately as generator time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/hash.hpp"
#include "obs/metrics.hpp"

namespace cctpbench {

using zendoo::crypto::Digest;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Measures accumulated busy time of one party (e.g. the generator).
class BusyClock {
 public:
  void start() { begin_ = now_ns(); }
  void stop() { total_ns_ += now_ns() - begin_; }
  [[nodiscard]] double ms() const { return static_cast<double>(total_ns_) / 1e6; }

 private:
  std::int64_t begin_ = 0;
  std::int64_t total_ns_ = 0;
};

/// What kind of MC block a step processed. Step costs cluster by class, so
/// the report prints each class's count and median to show which class a
/// percentile falls in.
enum class StepClass : std::uint8_t {
  kPlain,
  kCheckpoint,  ///< LatusNode::maybe_checkpoint copies the node
  kEpochClose,  ///< recursive epoch proof + certificate
  kHeal,        ///< partition heal, announce, losing half reorgs
  kCatchUp,     ///< joiner headers-first catch-up round
};
inline constexpr std::size_t kStepClassCount = 5;
[[nodiscard]] const char* to_string(StepClass c);

/// One span: a call into one layer, nested under the step that made it.
struct Span {
  const char* name = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint32_t step = 0;    ///< id shared by every span of one step
};

/// In-memory span recorder. Spans nest by scope; a null Tracer* at a call
/// site records nothing, which is how the untraced run stays unobserved.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
    std::int32_t saved_open_ = -1;
  };

  void set_step(std::uint32_t step) { step_ = step; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time (duration minus the part its child
  /// spans cover), in ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;
  /// Per span name: summed duration, in ms.
  [[nodiscard]] std::map<std::string, double> total_ms() const;
  /// Durations (ms) of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes the spans as JSON lines.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t step_ = 0;
};

/// Step durations of one timed phase.
struct Timeline {
  std::vector<double> step_ms;
  std::vector<StepClass> step_class;
  std::uint64_t mc_blocks = 0;  ///< MC blocks mined in the timed phase
  BusyClock gen;                ///< generator busy time (excluded)

  void add(double ms, StepClass c) {
    step_ms.push_back(ms);
    step_class.push_back(c);
  }
  [[nodiscard]] double total_ms() const;
};

/// Attempted and failed operations, per kind.
class Ledger {
 public:
  void attempt(const std::string& kind, std::uint64_t n = 1) {
    rows_[kind].attempted += n;
  }
  void fail(const std::string& kind, std::uint64_t n = 1) {
    rows_[kind].failed += n;
  }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  void print() const;

 private:
  struct Row {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::map<std::string, Row> rows_;
};

/// Output checks. A failed check fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  void merge(const Checks& other);
  [[nodiscard]] bool ok() const { return failed_ == 0; }
  void print() const;

 private:
  std::size_t count_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;  ///< the first few, for the report
};

/// Where a run ended: the MC tip and every sidechain's state commitment.
struct EndState {
  Digest tip;
  std::vector<Digest> sc_commitments;
  friend bool operator==(const EndState&, const EndState&) = default;
};

using LayerMetrics = std::map<std::string, double>;

/// Sums named samples over several registries (e.g. one per node).
class RegistrySum {
 public:
  void add(const zendoo::obs::Registry& registry);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] double max(const std::string& name) const;

 private:
  std::map<std::string, double> sum_;
  std::map<std::string, double> max_;
};

/// One workload: set-up, a timed closed-loop phase, output checks.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the history every run starts from.
  virtual void setup() = 0;
  /// Runs the timed phase. With a tracer, records one span per call into
  /// a layer and must end where the untraced run ends.
  virtual void run(Timeline& timeline, Tracer* tracer) = 0;
  /// End-of-run output checks, added to checks().
  virtual void finish() = 0;
  [[nodiscard]] virtual EndState end_state() const = 0;
  /// Layer metrics measured inside the program (registries) and by the
  /// workload's own bookkeeping, for the traced run.
  virtual void layer_metrics(const Timeline& timeline, LayerMetrics& out) = 0;

  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  /// Every output check made during set-up, the timed phase and finish().
  [[nodiscard]] const Checks& checks() const { return checks_; }

 protected:
  Ledger ledger_;
  Checks checks_;
};

/// Workload factories; `size` scales the fixed work of one run.
std::unique_ptr<Workload> make_sc_payments(std::uint64_t seed,
                                           std::uint64_t size);
std::unique_ptr<Workload> make_multi_sc(std::uint64_t seed,
                                        std::uint64_t size);
std::unique_ptr<Workload> make_cluster_reorg(std::uint64_t seed,
                                             std::uint64_t size);

/// Percentile with linear interpolation between closest ranks; 0 when
/// `values` is empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace cctpbench
