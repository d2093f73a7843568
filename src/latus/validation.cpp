#include "latus/validation.hpp"

namespace zendoo::latus {

std::string apply_mc_reference(LatusState& state, McBlockReference& ref,
                               std::vector<snark::TransitionStep>* steps) {
  if (ref.forward_transfers) {
    ForwardTransfersTx& tx = *ref.forward_transfers;
    if (std::string err = apply_step(state, tx, steps, [&](LatusState& s) {
          return apply_forward_transfers(s, tx);
        });
        !err.empty()) {
      return err;
    }
  }
  if (!ref.bt_requests) return "";
  BtrTx& tx = *ref.bt_requests;
  return apply_step(state, tx, steps,
                    [&](LatusState& s) { return apply_btr(s, tx); });
}

ScValidator::ScValidator(const mainchain::SidechainParams& params,
                         unsigned mst_depth, std::uint64_t slots_per_epoch,
                         const Address& bootstrap_forger)
    : params_(params),
      slots_per_epoch_(slots_per_epoch),
      bootstrap_forger_(bootstrap_forger),
      state_(mst_depth) {}

std::string ScValidator::accept(const ScBlock& block) {
  const ScBlockHeader& h = block.header;

  // 1. Chain linkage.
  std::uint64_t new_height = hashes_.size() + 1;
  if (h.height != new_height) return "SC block height mismatch";
  Digest expected_prev = hashes_.empty() ? Digest{} : hashes_.back();
  if (h.prev_hash != expected_prev) return "SC block does not extend tip";

  // 2. Slot bookkeeping.
  if (h.epoch != (new_height - 1) / slots_per_epoch_) {
    return "SC block consensus epoch mismatch";
  }
  if (h.slot != (new_height - 1) % slots_per_epoch_) {
    return "SC block slot mismatch";
  }

  // 3. Leadership and signature (§5.1).
  Address leader = leaders_.leader(
      new_height, slots_per_epoch_, state_, bootstrap_forger_,
      [&](std::uint64_t height) { return hashes_[height - 1]; });
  if (h.forger != leader) return "block forged by non-leader";
  if (crypto::address_of(h.forger_pubkey) != h.forger) {
    return "forger public key does not match forger address";
  }
  if (!crypto::verify_signature(h.forger_pubkey, h.signing_digest(),
                                h.forger_sig)) {
    return "invalid forger signature";
  }

  // 4. Body commitment.
  if (h.body_root != block.compute_body_root()) {
    return "SC body root mismatch";
  }

  // 5. MC references: internally consistent, in MC-chain order (§5.1's
  //    "consistent and ordered" rule), and none after the one closing the
  //    withdrawal epoch, whose block takes no SC transaction (§5.1.1).
  std::optional<Digest> prev_ref = last_mc_ref_;
  bool boundary = false;
  for (const McBlockReference& ref : block.mc_refs) {
    if (boundary) return "MC reference after the withdrawal-epoch boundary";
    if (std::string err = ref.verify(params_.ledger_id); !err.empty()) {
      return "MC reference invalid: " + err;
    }
    if (prev_ref && ref.header.prev_hash != *prev_ref) {
      return "MC references out of order";
    }
    prev_ref = ref.header.hash();
    boundary = closes_epoch(params_, current_we_, ref.header.height);
  }
  if (boundary && (!block.payments.empty() || !block.bt_txs.empty())) {
    return "SC transactions in a withdrawal-epoch boundary block";
  }

  // 6. Re-execute every transition and check the claimed derived fields
  //    and the final state commitment.
  LatusState replay = state_;
  for (const McBlockReference& ref : block.mc_refs) {
    McBlockReference recomputed = ref;
    if (std::string err = apply_mc_reference(replay, recomputed);
        !err.empty()) {
      return err;
    }
    if (const auto& ft = recomputed.forward_transfers;
        ft && (ft->outputs != ref.forward_transfers->outputs ||
               !(ft->rejected_transfers ==
                 ref.forward_transfers->rejected_transfers))) {
      return "FTTx derived fields do not match re-execution";
    }
    if (const auto& btr = recomputed.bt_requests;
        btr && (btr->consumed_inputs != ref.bt_requests->consumed_inputs ||
                !(btr->backward_transfers ==
                  ref.bt_requests->backward_transfers))) {
      return "BTRTx derived fields do not match re-execution";
    }
  }
  prime_spend_signatures(block.payments, block.bt_txs, signature_memo_);
  for (const PaymentTx& tx : block.payments) {
    if (std::string err = apply_payment(replay, tx, signature_memo_);
        !err.empty()) {
      return "payment invalid: " + err;
    }
  }
  for (const BackwardTransferTx& tx : block.bt_txs) {
    if (std::string err =
            apply_backward_transfer(replay, tx, signature_memo_);
        !err.empty()) {
      return "backward transfer invalid: " + err;
    }
  }
  // The header's state commitment is taken BEFORE any withdrawal-epoch
  // reset (mirroring the forger).
  if (replay.commitment() != h.state_commitment) {
    return "state commitment mismatch after re-execution";
  }

  // A block closing the withdrawal epoch ends it (§5.2.1): the transient
  // BT list and delta reset afterwards.
  if (boundary) {
    replay.begin_withdrawal_epoch();
    ++current_we_;
  }

  state_ = std::move(replay);
  hashes_.push_back(block.hash());
  last_mc_ref_ = prev_ref;
  return "";
}

}  // namespace zendoo::latus
