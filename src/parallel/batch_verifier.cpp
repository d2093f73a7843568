#include "parallel/batch_verifier.hpp"

#include <cassert>

#include "crypto/signature_memo.hpp"

namespace zendoo::parallel {

bool ProofCheck::operator()() const {
  obs::AtomicScopedTimer timer(latency_hist);
  switch (kind) {
    case Kind::kSnark:
      return snark::PredicateSnark::verify(vk, statement, proof);
    case Kind::kSignature:
      return crypto::verify_signature(pubkey, msg, sig);
  }
  return false;
}

Digest ProofCheck::cache_key() const {
  if (kind == Kind::kSignature) {
    return crypto::SignatureMemo::key(pubkey, msg, sig);
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
  e.check.pubkey = pubkey;
  e.check.msg = msg;
  e.check.sig = sig;
  e.error = std::move(error);
  pending_.push_back(std::move(e));
}

std::string BatchProofVerifier::run() {
  assert(!ran_);
  ran_ = true;
  if (pending_.empty()) return "";
  ctx_.count_batch();

  // Cache filter: checks verified in an earlier validation of the same
  // content (a dry_run of this very block, a shared ancestor branch) are
  // skipped outright.
  std::vector<std::size_t> to_run;
  std::vector<Digest> keys;
  to_run.reserve(pending_.size());
  keys.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Digest key = pending_[i].check.cache_key();
    if (!ctx_.cache_contains(key)) {
      to_run.push_back(i);
      keys.push_back(key);
    }
  }
  if (to_run.empty()) return "";
  ctx_.count_executed(to_run.size());
  ctx_.record_batch_size(to_run.size());

  std::vector<ProofCheck> batch;
  batch.reserve(to_run.size());
  for (std::size_t idx : to_run) {
    ProofCheck check = std::move(pending_[idx].check);
    check.latency_hist = ctx_.latency_hist(check.kind);
    batch.push_back(std::move(check));
  }
  CheckResult result = ctx_.queue().run_batch(std::move(batch));
  if (!result.ok) return pending_[to_run[result.first_failure]].error;
  for (const Digest& key : keys) ctx_.cache_insert(key);
  return "";
}

}  // namespace zendoo::parallel
