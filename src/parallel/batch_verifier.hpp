// Batched asynchronous proof verification for block validation.
//
// During overlay application the mainchain encounters two kinds of
// expensive stateless checks: SNARK proof verification (withdrawal
// certificates, BTRs, CSWs) and transaction signature verification.
// These are collected into a BatchProofVerifier where they are met, and
// the whole batch is verified through a CheckQueue — across its worker
// pool, or on the caller when it has none — before the block is allowed
// to commit (the asyncproofverifier pattern of the reference
// implementations).
//
// Each distinct check runs once per batch: a transaction's inputs carry
// one copied signature, and it is verified for the first of them. The
// distinct signatures are verified together, one crypto::verify_batch per
// verifying thread, which shares one doubling chain across a group's
// signatures. A group that fails has its signatures checked one by one,
// so the diagnostic is the one a sequential run would give.
//
// ValidationContext is the per-chain runtime: it owns the lazily started
// worker pool plus a bounded cache of already-verified checks, shared
// between dry_run, connect_block and block assembly so the same proof is
// never paid for twice (the miner's per-item checks, then its final
// dry_run and the connect of the block it built; probe-then-connect
// gossip flows). A batch run only to fill that cache primes it: the miner
// verifies every mempool signature in one batch before its per-item
// pass, whose batches then find them there.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "crypto/digest_set.hpp"
#include "crypto/ecc.hpp"
#include "obs/trace.hpp"
#include "parallel/check_queue.hpp"
#include "parallel/validation_config.hpp"
#include "snark/snark.hpp"

namespace zendoo::parallel {

using crypto::Digest;

/// One deferred stateless check: either a SNARK proof verification or
/// Schnorr signatures verified together by one crypto::verify_batch.
/// Self-contained — executing it touches no chain state, so any thread may
/// run it.
struct ProofCheck {
  enum class Kind : std::uint8_t { kSnark, kSignature };

  Kind kind = Kind::kSnark;
  // kSnark
  snark::VerifyingKey vk;
  snark::Statement statement;
  snark::Proof proof;
  // kSignature: one signature as collected; BatchProofVerifier::run
  // groups the distinct ones, one group per verifying thread.
  std::vector<crypto::SignatureCheck> signatures;

  /// Per-check-kind verify-latency histogram (wall clock), set by
  /// BatchProofVerifier::run before execution; null = untimed. Any
  /// thread may record (AtomicHistogram), which is what makes this
  /// work across the CheckQueue worker pool. Not part of cache_key.
  obs::AtomicHistogram* latency_hist = nullptr;

  /// Executes the verification (timed when latency_hist is set: one
  /// sample per signature, each an equal share of the group's time).
  /// True = check passed.
  [[nodiscard]] bool operator()() const;

  /// Content digest identifying a collected check (a SNARK proof or one
  /// signature) in the verified-check cache. Both check kinds are pure
  /// functions of their payload, so a cached success is valid in any later
  /// validation context.
  [[nodiscard]] Digest cache_key() const;
};

/// Counters exposed for tests and benchmarks.
struct ValidationStats {
  /// Distinct checks verified: a check a batch holds more than once counts
  /// once, and one a cache hit answered not at all.
  std::uint64_t checks_executed = 0;
  std::uint64_t cache_hits = 0;  ///< checks satisfied from the cache
  /// Batch runs: one per apply_block, and in Miner::build_block one over
  /// the mempool signatures (with the cache on) plus one per item it
  /// verifies; a batch with no checks is not counted.
  std::uint64_t batches = 0;
};

/// Per-chain validation runtime: configuration, lazily started worker
/// pool, verified-check cache, counters. Shared (via shared_ptr) between
/// copies of a ChainState; all entry points are thread-safe.
class ValidationContext {
 public:
  explicit ValidationContext(ValidationConfig config);

  /// The worker pool, started on first use (so a runtime that never
  /// verifies a batch spawns no threads).
  CheckQueue<ProofCheck>& queue();
  /// Threads that run a batch: the workers plus the caller.
  [[nodiscard]] std::size_t verifying_threads() const {
    return config_.worker_threads + 1;
  }

  /// True when `key` is a known-verified check (counts a cache hit).
  [[nodiscard]] bool cache_contains(const Digest& key);
  void cache_insert(const Digest& key);

  [[nodiscard]] ValidationStats stats() const;
  void count_executed(std::uint64_t n) { executed_->add(n); }
  void count_batch() { batches_->add(1); }
  /// Post-cache-filter batch size (checks actually executed).
  void record_batch_size(std::uint64_t n) { batch_size_->record(n); }
  /// Verify-latency histogram for `kind` (wall clock; any thread).
  [[nodiscard]] obs::AtomicHistogram* latency_hist(ProofCheck::Kind kind) {
    return kind == ProofCheck::Kind::kSnark ? snark_ns_ : sig_ns_;
  }

  /// "par." metrics: counters behind ValidationStats, batch sizes, and
  /// the per-kind verify-latency family "par.verify_ns{kind=...}"
  /// (wall clock — excluded from deterministic exports).
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }

 private:
  ValidationConfig config_;

  std::mutex queue_mu_;
  std::unique_ptr<CheckQueue<ProofCheck>> queue_;

  mutable std::mutex cache_mu_;
  crypto::BoundedDigestSet cache_;

  /// Owns the counters behind ValidationStats; the pointers below are
  /// hot-path handles into registry-owned atomic storage (the worker
  /// pool increments them concurrently).
  obs::Registry registry_;
  obs::AtomicCounter* executed_;
  obs::AtomicCounter* hits_;
  obs::AtomicCounter* batches_;
  obs::AtomicHistogram* batch_size_;
  obs::AtomicHistogram* snark_ns_;
  obs::AtomicHistogram* sig_ns_;
};

/// Collects the stateless checks of one block application and verifies
/// them in a single batch. Created per apply_block call, and per item by
/// Miner::build_block. apply_block calls run() exactly once, either when
/// application completes or at the point of a stateful failure (every
/// check collected so far logically precedes that failure in sequential
/// order, so its first failure wins). The miner runs it only for an item
/// that passed every stateful rule, since a failed item is dropped anyway,
/// and once before its item pass over every mempool signature, to prime
/// the verified-check cache.
class BatchProofVerifier {
 public:
  explicit BatchProofVerifier(ValidationContext& ctx) : ctx_(ctx) {}

  BatchProofVerifier(const BatchProofVerifier&) = delete;
  BatchProofVerifier& operator=(const BatchProofVerifier&) = delete;

  void add_snark(const snark::VerifyingKey& vk, snark::Statement statement,
                 const snark::Proof& proof, std::string error);
  void add_signature(const std::pair<crypto::u256, crypto::u256>& pubkey,
                     const Digest& msg, const crypto::Signature& sig,
                     std::string error);

  /// Verifies every distinct collected check (cache-filtered, through the
  /// CheckQueue) and returns "" or the diagnostic of the check that would
  /// have failed first sequentially. Copies of a check share its verdict,
  /// and the first copy has the lowest index, so it is the one reported.
  /// The signatures go first, one crypto::verify_batch per verifying
  /// thread over a contiguous run of them; those of a group that fails
  /// are checked again one by one, with the SNARK proofs. Checks are
  /// cached only when the whole batch passes.
  [[nodiscard]] std::string run();

 private:
  struct Entry {
    ProofCheck check;
    std::string error;
  };

  ValidationContext& ctx_;
  std::vector<Entry> pending_;
  bool ran_ = false;
};

}  // namespace zendoo::parallel
