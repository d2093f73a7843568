// Generic worker-pool check queue for stateless validation work.
//
// Block validation splits into (a) sequential stateful application and
// (b) expensive stateless checks — SNARK proof and signature
// verification — that commute with each other. A CheckQueue runs batches
// of (b) across a fixed pool of worker threads, with the control thread
// joining in ("control-thread-joins-in" pattern, following the
// checkqueue.h lineage of the reference implementations).
//
// Result semantics are sequential-equivalent: a batch is all-or-nothing,
// and on failure the queue reports the *lowest add-order index* that
// failed — not the temporally first failure — so the outcome (including
// which diagnostic a caller maps the index to) is byte-identical across
// worker counts. A check that throws is captured and rethrown on the
// control thread; when both a failure and an exception occur, whichever
// has the lower add-order index wins, exactly as if the checks had run
// one by one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace zendoo::parallel {

/// Outcome of one batch (when no check threw).
struct CheckResult {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  bool ok = true;
  /// Add-order index of the lowest failing check (kNone when ok).
  std::size_t first_failure = kNone;
};

/// Worker pool executing batches of `Check`s. `Check` must be movable and
/// callable as `bool check()` (true = passed), const-invocable.
///
/// Thread model: `workers` background threads are spawned up front and
/// sleep between batches; run_batch() makes the calling thread join the
/// pool for the duration of the batch, so `workers == 0` degrades to
/// plain sequential execution on the caller with no synchronization
/// beyond one mutex round-trip. Concurrent run_batch() calls from
/// different control threads serialize on an internal mutex.
template <typename Check>
class CheckQueue {
 public:
  explicit CheckQueue(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { loop(/*master=*/false); });
    }
  }

  /// Must not run concurrently with an in-flight run_batch().
  ~CheckQueue() {
    {
      std::scoped_lock lock(mu_);
      quit_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  CheckQueue(const CheckQueue&) = delete;
  CheckQueue& operator=(const CheckQueue&) = delete;

  /// Runs every check across the pool plus the calling thread. Returns
  /// once all checks have been executed (or skipped because a
  /// lower-index check already failed). Rethrows the lowest add-order
  /// exception, if any check threw and no lower-index check failed.
  CheckResult run_batch(std::vector<Check> checks) {
    std::scoped_lock control(control_mu_);
    if (checks.empty()) return {};
    {
      std::scoped_lock lock(mu_);
      todo_ = std::move(checks);
      next_ = 0;
      remaining_ = todo_.size();
      fail_idx_ = CheckResult::kNone;
      exc_idx_ = CheckResult::kNone;
      exc_ = nullptr;
      cutoff_.store(CheckResult::kNone, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    loop(/*master=*/true);

    CheckResult result;
    std::exception_ptr pending_exc;
    {
      std::scoped_lock lock(mu_);
      if (exc_ != nullptr && exc_idx_ < fail_idx_) {
        pending_exc = exc_;
      } else if (fail_idx_ != CheckResult::kNone) {
        result.ok = false;
        result.first_failure = fail_idx_;
      }
      todo_.clear();
      exc_ = nullptr;
    }
    if (pending_exc != nullptr) std::rethrow_exception(pending_exc);
    return result;
  }

 private:
  void loop(bool master) {
    std::unique_lock lock(mu_);
    for (;;) {
      if (quit_ && !master) return;
      if (next_ < todo_.size()) {
        // Claim a chunk. Sized so late chunks shrink toward 1, keeping
        // the pool balanced near the end of a batch.
        const std::size_t begin = next_;
        const std::size_t left = todo_.size() - next_;
        std::size_t chunk = left / ((threads_.size() + 1) * 2);
        chunk = std::max<std::size_t>(1, std::min<std::size_t>(chunk, 64));
        const std::size_t end = begin + chunk;
        next_ = end;
        lock.unlock();

        std::size_t local_fail = CheckResult::kNone;
        std::size_t local_exc_idx = CheckResult::kNone;
        std::exception_ptr local_exc;
        for (std::size_t i = begin; i < end; ++i) {
          // A lower-index check already failed: this one can no longer be
          // the reported outcome, skip the work.
          if (i > cutoff_.load(std::memory_order_relaxed)) continue;
          bool ok = false;
          try {
            ok = todo_[i]();
          } catch (...) {
            if (local_exc_idx == CheckResult::kNone) {
              local_exc_idx = i;
              local_exc = std::current_exception();
            }
            lower_cutoff(i);
            continue;
          }
          if (!ok) {
            if (local_fail == CheckResult::kNone) local_fail = i;
            lower_cutoff(i);
          }
        }

        lock.lock();
        remaining_ -= chunk;
        if (local_fail < fail_idx_) fail_idx_ = local_fail;
        if (local_exc_idx < exc_idx_) {
          exc_idx_ = local_exc_idx;
          exc_ = local_exc;
        }
        if (remaining_ == 0) done_cv_.notify_all();
        if (master && remaining_ == 0 && next_ >= todo_.size()) return;
        continue;
      }
      if (master) {
        if (remaining_ == 0) return;
        // Everything is claimed; wait for in-flight chunks to finish.
        done_cv_.wait(lock);
        continue;
      }
      work_cv_.wait(lock);
    }
  }

  void lower_cutoff(std::size_t idx) {
    std::size_t cur = cutoff_.load(std::memory_order_relaxed);
    while (idx < cur &&
           !cutoff_.compare_exchange_weak(cur, idx,
                                          std::memory_order_relaxed)) {
    }
  }

  /// Serializes batches from different control threads.
  std::mutex control_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: new batch or shutdown
  std::condition_variable done_cv_;  ///< master: last in-flight chunk done
  std::vector<Check> todo_;          ///< current batch, fixed during a run
  std::size_t next_ = 0;             ///< first unclaimed index
  std::size_t remaining_ = 0;        ///< claimed-or-pending, not yet finished
  std::size_t fail_idx_ = CheckResult::kNone;
  std::size_t exc_idx_ = CheckResult::kNone;
  std::exception_ptr exc_;
  bool quit_ = false;
  /// Lowest known bad index; checks above it are skipped (they can never
  /// become the reported outcome).
  std::atomic<std::size_t> cutoff_{CheckResult::kNone};

  std::vector<std::thread> threads_;
};

}  // namespace zendoo::parallel
