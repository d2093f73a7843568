#include "parallel/batch_verifier.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_set>

#include "crypto/signature_memo.hpp"

namespace zendoo::parallel {

bool ProofCheck::operator()() const {
  if (kind == Kind::kSnark) {
    obs::AtomicScopedTimer timer(latency_hist);
    return snark::PredicateSnark::verify(vk, statement, proof);
  }
  const auto start = std::chrono::steady_clock::now();
  const bool ok = crypto::verify_batch(signatures);
  if (latency_hist != nullptr && !signatures.empty()) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    const std::uint64_t share =
        static_cast<std::uint64_t>(ns) / signatures.size();
    for (std::size_t i = 0; i < signatures.size(); ++i) {
      latency_hist->record(share);
    }
  }
  return ok;
}

Digest ProofCheck::cache_key() const {
  if (kind == Kind::kSignature) {
    assert(signatures.size() == 1);
    const crypto::SignatureCheck& c = signatures.front();
    return crypto::SignatureMemo::key(c.pubkey, c.msg, c.sig);
  }
  crypto::Hasher h(crypto::Domain::kGeneric);
  h.write_str("check:snark").write(vk.id);
  h.write_u64(statement.size());
  for (const Digest& d : statement) h.write(d);
  h.write(proof.binding);
  return h.finalize();
}

ValidationContext::ValidationContext(ValidationConfig config)
    : config_(config), cache_(config.cache_capacity) {
  executed_ = registry_.atomic_counter("par.checks_executed");
  hits_ = registry_.atomic_counter("par.cache_hits");
  batches_ = registry_.atomic_counter("par.batches");
  batch_size_ = registry_.atomic_histogram("par.batch_size");
  snark_ns_ = registry_.atomic_histogram(
      obs::Registry::labeled("par.verify_ns", "kind", "snark"),
      obs::Determinism::kWallClock);
  sig_ns_ = registry_.atomic_histogram(
      obs::Registry::labeled("par.verify_ns", "kind", "signature"),
      obs::Determinism::kWallClock);
}

CheckQueue<ProofCheck>& ValidationContext::queue() {
  std::scoped_lock lock(queue_mu_);
  if (queue_ == nullptr) {
    queue_ = std::make_unique<CheckQueue<ProofCheck>>(config_.worker_threads);
  }
  return *queue_;
}

bool ValidationContext::cache_contains(const Digest& key) {
  std::scoped_lock lock(cache_mu_);
  if (!cache_.contains(key)) return false;
  hits_->add(1);
  return true;
}

void ValidationContext::cache_insert(const Digest& key) {
  std::scoped_lock lock(cache_mu_);
  cache_.insert(key);
}

ValidationStats ValidationContext::stats() const {
  ValidationStats s;
  s.checks_executed = executed_->value();
  s.cache_hits = hits_->value();
  s.batches = batches_->value();
  return s;
}

void BatchProofVerifier::add_snark(const snark::VerifyingKey& vk,
                                   snark::Statement statement,
                                   const snark::Proof& proof,
                                   std::string error) {
  Entry e;
  e.check.kind = ProofCheck::Kind::kSnark;
  e.check.vk = vk;
  e.check.statement = std::move(statement);
  e.check.proof = proof;
  e.error = std::move(error);
  pending_.push_back(std::move(e));
}

void BatchProofVerifier::add_signature(
    const std::pair<crypto::u256, crypto::u256>& pubkey, const Digest& msg,
    const crypto::Signature& sig, std::string error) {
  Entry e;
  e.check.kind = ProofCheck::Kind::kSignature;
  e.check.signatures.push_back({pubkey, msg, sig});
  e.error = std::move(error);
  pending_.push_back(std::move(e));
}

std::string BatchProofVerifier::run() {
  assert(!ran_);
  ran_ = true;
  if (pending_.empty()) return "";
  ctx_.count_batch();

  // Each distinct check runs once: a copy of an earlier one is skipped, and
  // so is a check verified in an earlier validation of the same content (a
  // dry_run of this very block, a shared ancestor branch).
  std::vector<std::size_t> to_run;
  std::vector<Digest> keys;
  std::unordered_set<Digest, crypto::DigestHash> seen;
  to_run.reserve(pending_.size());
  keys.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Digest key = pending_[i].check.cache_key();
    if (!seen.insert(key).second || ctx_.cache_contains(key)) continue;
    to_run.push_back(i);
    keys.push_back(key);
  }
  if (to_run.empty()) return "";
  ctx_.count_executed(to_run.size());
  ctx_.record_batch_size(to_run.size());

  // The signatures first, in contiguous groups, one per verifying thread.
  // Every group below the first failing one passed (the queue reports the
  // lowest failing index), so its signatures are settled.
  std::vector<std::size_t> sig_idx;
  for (std::size_t idx : to_run) {
    if (pending_[idx].check.kind == ProofCheck::Kind::kSignature) {
      sig_idx.push_back(idx);
    }
  }
  const std::size_t groups = std::min(sig_idx.size(), ctx_.verifying_threads());
  std::vector<ProofCheck> grouped(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    grouped[g].kind = ProofCheck::Kind::kSignature;
    grouped[g].latency_hist = ctx_.latency_hist(ProofCheck::Kind::kSignature);
    for (std::size_t j = g * sig_idx.size() / groups;
         j < (g + 1) * sig_idx.size() / groups; ++j) {
      grouped[g].signatures.push_back(
          pending_[sig_idx[j]].check.signatures.front());
    }
  }
  const CheckResult grouped_result =
      ctx_.queue().run_batch(std::move(grouped));
  const std::size_t passed =
      grouped_result.ok
          ? sig_idx.size()
          : grouped_result.first_failure * sig_idx.size() / groups;
  const std::size_t unsettled =
      passed < sig_idx.size() ? sig_idx[passed] : pending_.size();

  // Then the SNARK proofs, and one by one the signatures from `unsettled`
  // on, in add order.
  std::vector<ProofCheck> batch;
  std::vector<std::size_t> origin;
  for (std::size_t idx : to_run) {
    if (idx < unsettled &&
        pending_[idx].check.kind == ProofCheck::Kind::kSignature) {
      continue;
    }
    ProofCheck check = std::move(pending_[idx].check);
    check.latency_hist = ctx_.latency_hist(check.kind);
    batch.push_back(std::move(check));
    origin.push_back(idx);
  }
  CheckResult result = ctx_.queue().run_batch(std::move(batch));
  if (!result.ok) return pending_[origin[result.first_failure]].error;
  for (const Digest& key : keys) ctx_.cache_insert(key);
  return "";
}

}  // namespace zendoo::parallel
