#include "mainchain/view.hpp"

#include <algorithm>

namespace zendoo::mainchain {

Digest nullifier_key(const SidechainId& id, const Digest& nullifier) {
  return crypto::Hasher(Domain::kNullifier).write(id).write(nullifier).finalize();
}

std::pair<Digest, Digest> StateView::epoch_boundary_hashes(
    const SidechainParams& params, std::uint64_t epoch) const {
  Digest prev_last = epoch == 0
                         ? hash_at_height(params.start_block - 1)
                         : hash_at_height(params.epoch_end(epoch - 1));
  Digest last = hash_at_height(params.epoch_end(epoch));
  return {prev_last, last};
}

// ---------------------------------------------------------------------------
// CacheView
// ---------------------------------------------------------------------------

const TxOutput* CacheView::find_utxo(const OutPoint& op) const {
  auto it = utxos_.find(op);
  if (it != utxos_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  return base_.find_utxo(op);
}

const SidechainStatus* CacheView::find_sidechain(const SidechainId& id) const {
  auto it = sidechains_.find(id);
  if (it != sidechains_.end()) return &it->second;
  return base_.find_sidechain(id);
}

bool CacheView::nullifier_key_used(const Digest& key) const {
  return nullifiers_.contains(key) || base_.nullifier_key_used(key);
}

std::vector<SidechainId> CacheView::sidechain_ids() const {
  std::vector<SidechainId> ids = base_.sidechain_ids();
  for (const auto& [id, _] : sidechains_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void CacheView::add_utxo(const OutPoint& op, const TxOutput& out) {
  utxos_[op] = out;
}

void CacheView::spend_utxo(const OutPoint& op) { utxos_[op] = std::nullopt; }

SidechainStatus& CacheView::sidechain_for_update(const SidechainId& id) {
  auto it = sidechains_.find(id);
  if (it != sidechains_.end()) return it->second;
  if (const SidechainStatus* prior = base_.find_sidechain(id)) {
    return sidechains_.emplace(id, *prior).first->second;
  }
  return sidechains_[id];
}

void CacheView::add_nullifier_key(const Digest& key) {
  nullifiers_.insert(key);
}

void CacheView::flush_into(CacheView& target) const {
  for (const auto& [op, entry] : utxos_) {
    if (entry.has_value()) {
      target.add_utxo(op, *entry);
    } else {
      target.spend_utxo(op);
    }
  }
  for (const auto& [id, sc] : sidechains_) {
    target.sidechain_for_update(id) = sc;
  }
  for (const Digest& key : nullifiers_) target.add_nullifier_key(key);
}

// ---------------------------------------------------------------------------
// Block application (shared validation + state transition)
// ---------------------------------------------------------------------------

std::string finalize_epochs(CacheView& view, std::uint64_t new_height) {
  for (const SidechainId& id : view.sidechain_ids()) {
    const SidechainStatus* sc_ro = view.find_sidechain(id);
    if (sc_ro == nullptr || sc_ro->ceased) continue;
    const SidechainParams& p = sc_ro->params;
    // Does some epoch's certificate window end exactly at new_height?
    // window_end(i) = start_block + (i+1)*epoch_len + submit_len.
    if (new_height < p.start_block + p.epoch_len + p.submit_len) continue;
    std::uint64_t offset = new_height - p.start_block - p.submit_len;
    if (offset % p.epoch_len != 0) continue;
    std::uint64_t epoch = offset / p.epoch_len - 1;

    SidechainStatus& sc = view.sidechain_for_update(id);
    if (sc.pending_cert && sc.pending_cert_epoch == epoch) {
      // Finalize the quality winner: create its BT payouts, debit the
      // safeguard balance.
      const WithdrawalCertificate& cert = *sc.pending_cert;
      Amount total = cert.total_withdrawn();
      if (total > sc.balance) {
        return "finalize: certificate withdraws more than sidechain balance";
      }
      Digest cert_hash = cert.hash();
      for (std::uint32_t i = 0; i < cert.bt_list.size(); ++i) {
        view.add_utxo({cert_hash, i},
                      TxOutput{cert.bt_list[i].receiver, cert.bt_list[i].amount});
      }
      sc.balance -= total;
      sc.last_finalized_epoch = epoch;
      sc.pending_cert.reset();
    } else {
      // No certificate arrived in the window: the sidechain is ceased
      // (Def 4.2) — permanently.
      sc.ceased = true;
      sc.pending_cert.reset();
    }
  }
  return "";
}

std::string apply_transaction(CacheView& view, const Transaction& tx,
                              Amount* fees,
                              parallel::BatchProofVerifier& batch) {
  if (tx.is_coinbase) return "unexpected coinbase transaction";
  if (tx.inputs.empty()) return "transaction has no inputs";

  Digest signing = tx.signing_digest();
  unsigned __int128 total_in = 0;
  std::unordered_set<OutPoint, OutPointHash> seen_prevouts;
  for (const TxInput& in : tx.inputs) {
    if (!seen_prevouts.insert(in.prevout).second) {
      return "transaction spends the same output twice";
    }
    const TxOutput* utxo = view.find_utxo(in.prevout);
    if (utxo == nullptr) return "input spends unknown or spent output";
    if (crypto::address_of(in.pubkey) != utxo->addr) {
      return "input public key does not match output address";
    }
    batch.add_signature(in.pubkey, signing, in.sig,
                        "invalid input signature");
    total_in += utxo->amount;
  }

  unsigned __int128 total_out = 0;
  for (const TxOutput& o : tx.outputs) total_out += o.amount;
  for (const ForwardTransferOutput& ft : tx.forward_transfers) {
    if (ft.amount == 0) return "forward transfer of zero coins";
    const SidechainStatus* sc = view.find_sidechain(ft.ledger_id);
    if (sc == nullptr) return "forward transfer to unknown sidechain";
    if (sc->ceased) return "forward transfer to ceased sidechain";
    total_out += ft.amount;
  }
  if (total_in < total_out) return "transaction spends more than its inputs";

  // Apply: consume inputs, create outputs, credit sidechain balances.
  for (const TxInput& in : tx.inputs) view.spend_utxo(in.prevout);
  Digest txid = tx.id();
  for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
    view.add_utxo({txid, i}, tx.outputs[i]);
  }
  for (const ForwardTransferOutput& ft : tx.forward_transfers) {
    view.sidechain_for_update(ft.ledger_id).balance += ft.amount;
  }
  *fees += static_cast<Amount>(total_in - total_out);
  return "";
}

std::string apply_creation(CacheView& view, const SidechainParams& sc,
                           std::uint64_t new_height) {
  if (view.find_sidechain(sc.ledger_id) != nullptr) {
    return "sidechain id already registered";
  }
  if (sc.epoch_len == 0) return "sidechain epoch_len must be positive";
  if (sc.submit_len == 0 || sc.submit_len > sc.epoch_len) {
    return "sidechain submit_len must be in (0, epoch_len]";
  }
  if (sc.start_block <= new_height) {
    return "sidechain start_block must be in the future";
  }
  SidechainStatus& status = view.sidechain_for_update(sc.ledger_id);
  status.params = sc;
  status.created_at_height = new_height;
  return "";
}

std::string apply_certificate(CacheView& view,
                              const WithdrawalCertificate& cert,
                              std::uint64_t new_height,
                              const Digest& block_hash,
                              parallel::BatchProofVerifier& batch) {
  const SidechainStatus* sc_ro = view.find_sidechain(cert.ledger_id);
  if (sc_ro == nullptr) return "certificate for unknown sidechain";
  if (sc_ro->ceased) return "certificate for ceased sidechain";
  const SidechainParams& p = sc_ro->params;
  if (p.wcert_vk.is_null()) {
    return "sidechain has no certificate verification key";
  }
  if (cert.proofdata.size() != p.wcert_proofdata_len) {
    return "certificate proofdata layout mismatch";
  }
  // Submission window (§4.1.2): cert for epoch i only within the first
  // submit_len blocks of epoch i+1.
  if (new_height < p.cert_window_begin(cert.epoch_id) ||
      new_height >= p.cert_window_end(cert.epoch_id)) {
    return "certificate outside its submission window";
  }
  // Quality rule: strictly higher than the incumbent; first-seen wins ties.
  if (sc_ro->pending_cert && sc_ro->pending_cert_epoch == cert.epoch_id &&
      cert.quality <= sc_ro->pending_cert->quality) {
    return "certificate quality not higher than incumbent";
  }
  // Safeguard pre-check (re-checked at finalization).
  if (cert.total_withdrawn() > sc_ro->balance) {
    return "certificate withdraws more than sidechain balance";
  }
  // SNARK verification against the MC-enforced wcert_sysdata. The
  // statement is built here (it reads view state); only the verification
  // itself is batched.
  auto [prev_last, last] = view.epoch_boundary_hashes(p, cert.epoch_id);
  batch.add_snark(p.wcert_vk, wcert_statement_for(cert, prev_last, last),
                  cert.proof, "certificate SNARK proof invalid");
  SidechainStatus& sc = view.sidechain_for_update(cert.ledger_id);
  sc.pending_cert = cert;
  sc.pending_cert_epoch = cert.epoch_id;
  sc.pending_cert_block = block_hash;
  // H(B_w) for BTR/CSW statements: "the MC block where the latest
  // withdrawal certificate has been submitted" (Def 4.5) — updated at
  // submission, not finalization.
  sc.last_cert_block = block_hash;
  return "";
}

std::string apply_btr(CacheView& view, const BtrRequest& btr,
                      parallel::BatchProofVerifier& batch) {
  const SidechainStatus* sc = view.find_sidechain(btr.ledger_id);
  if (sc == nullptr) return "BTR for unknown sidechain";
  if (sc->ceased) return "BTR for ceased sidechain (use CSW)";
  if (sc->params.btr_vk.is_null()) return "sidechain does not accept BTRs";
  if (btr.proofdata.size() != sc->params.btr_proofdata_len) {
    return "BTR proofdata layout mismatch";
  }
  if (view.nullifier_used(btr.ledger_id, btr.nullifier)) {
    return "BTR nullifier already used";
  }
  batch.add_snark(sc->params.btr_vk,
                  btr_statement(sc->last_cert_block, btr.nullifier,
                                btr.receiver, btr.amount,
                                btr.proofdata_root()),
                  btr.proof, "BTR SNARK proof invalid");
  view.add_nullifier(btr.ledger_id, btr.nullifier);
  // No payment, no balance change: the BTR only obliges the sidechain
  // (§4.1.2.1 — "the BTR does not lead to a direct coin transfer").
  return "";
}

std::string apply_csw(CacheView& view, const CeasedSidechainWithdrawal& csw,
                      parallel::BatchProofVerifier& batch) {
  const SidechainStatus* sc_ro = view.find_sidechain(csw.ledger_id);
  if (sc_ro == nullptr) return "CSW for unknown sidechain";
  if (!sc_ro->ceased) return "CSW for active sidechain";
  if (sc_ro->params.csw_vk.is_null()) return "sidechain does not accept CSWs";
  if (csw.proofdata.size() != sc_ro->params.csw_proofdata_len) {
    return "CSW proofdata layout mismatch";
  }
  if (view.nullifier_used(csw.ledger_id, csw.nullifier)) {
    return "CSW nullifier already used";
  }
  if (csw.amount > sc_ro->balance) {
    return "CSW withdraws more than sidechain balance";
  }
  batch.add_snark(sc_ro->params.csw_vk,
                  csw_statement(sc_ro->last_cert_block, csw.nullifier,
                                csw.receiver, csw.amount,
                                csw.proofdata_root()),
                  csw.proof, "CSW SNARK proof invalid");
  view.add_nullifier(csw.ledger_id, csw.nullifier);
  view.sidechain_for_update(csw.ledger_id).balance -= csw.amount;
  // Direct payment (Def 4.6).
  view.add_utxo({csw.hash(), 0}, TxOutput{csw.receiver, csw.amount});
  return "";
}

namespace {

/// The coinbase slot; its value is checked by the caller once fees are
/// known.
std::string apply_coinbase(CacheView& view, const Transaction& tx) {
  if (!tx.is_coinbase) return "first transaction must be coinbase";
  if (!tx.inputs.empty()) return "coinbase must have no inputs";
  if (!tx.forward_transfers.empty()) {
    return "coinbase cannot carry forward transfers";
  }
  if (tx.coinbase_height != view.height() + 1) {
    return "coinbase height mismatch";
  }
  Digest txid = tx.id();
  for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
    view.add_utxo({txid, i}, tx.outputs[i]);
  }
  return "";
}

/// Sequential stateful application: every rule that reads or writes the
/// overlay. Expensive stateless checks are collected into `batch`.
std::string apply_block_stateful(CacheView& view, const ChainParams& params,
                                 const Block& block,
                                 parallel::BatchProofVerifier& batch) {
  const Digest block_hash = block.hash();

  if (block.header.height != view.height() + 1) return "block height mismatch";
  if (block.header.prev_hash != view.tip_hash()) {
    return "block does not extend the tip";
  }
  if (block.header.tx_merkle_root != block.compute_tx_merkle_root()) {
    return "tx merkle root mismatch";
  }
  // Only one certificate per sidechain per block, and the header must
  // commit to all SC-related actions (§4.1.3).
  try {
    if (block.header.sc_txs_commitment != block.build_commitment_tree().root()) {
      return "sidechain transactions commitment mismatch";
    }
  } catch (const std::logic_error&) {
    return "multiple certificates for one sidechain in a block";
  }

  std::uint64_t new_height = view.height() + 1;

  // 1. Epoch bookkeeping triggered by reaching this height: finalize
  //    certificate windows that close here; detect ceased sidechains.
  if (std::string err = finalize_epochs(view, new_height); !err.empty()) {
    return err;
  }

  // 2. Sidechain registrations (before FT processing so same-block FTs to
  //    the new sidechain are valid).
  for (const SidechainParams& sc : block.sidechain_creations) {
    if (std::string err = apply_creation(view, sc, new_height); !err.empty()) {
      return err;
    }
  }

  // 3. Regular transactions (skipping the coinbase slot), accumulating fees.
  if (block.transactions.empty()) return "block has no coinbase";
  Amount fees = 0;
  for (std::size_t i = 1; i < block.transactions.size(); ++i) {
    if (std::string err =
            apply_transaction(view, block.transactions[i], &fees, batch);
        !err.empty()) {
      return err;
    }
  }

  // 4. Coinbase: value bounded by subsidy + fees.
  const Transaction& coinbase = block.transactions[0];
  if (coinbase.total_output() > params.block_subsidy + fees) {
    return "coinbase exceeds subsidy plus fees";
  }
  if (std::string err = apply_coinbase(view, coinbase); !err.empty()) {
    return err;
  }

  // 5. Withdrawal certificates.
  for (const WithdrawalCertificate& cert : block.certificates) {
    if (std::string err =
            apply_certificate(view, cert, new_height, block_hash, batch);
        !err.empty()) {
      return err;
    }
  }

  // 6. Backward transfer requests.
  for (const BtrRequest& btr : block.btrs) {
    if (std::string err = apply_btr(view, btr, batch); !err.empty()) {
      return err;
    }
  }

  // 7. Ceased sidechain withdrawals.
  for (const CeasedSidechainWithdrawal& csw : block.csws) {
    if (std::string err = apply_csw(view, csw, batch); !err.empty()) {
      return err;
    }
  }

  return "";
}

}  // namespace

std::string apply_block(CacheView& view, const ChainParams& params,
                        const Block& block,
                        parallel::BatchProofVerifier& batch) {
  std::string stateful = apply_block_stateful(view, params, block, batch);
  // Every collected check was met before the stateful outcome was
  // reached, so sequentially it would have run — and possibly failed —
  // first. Its diagnostic therefore takes precedence; on any failure the
  // caller discards the overlay.
  if (std::string err = batch.run(); !err.empty()) return err;
  return stateful;
}

}  // namespace zendoo::mainchain
