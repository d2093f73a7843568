#include "latus/validation.hpp"

namespace zendoo::latus {

ScValidator::ScValidator(const SidechainId& ledger_id, unsigned mst_depth,
                         std::uint64_t slots_per_epoch,
                         const Address& bootstrap_forger,
                         std::uint64_t start_block, std::uint64_t epoch_len)
    : ledger_id_(ledger_id),
      slots_per_epoch_(slots_per_epoch),
      bootstrap_forger_(bootstrap_forger),
      start_block_(start_block),
      epoch_len_(epoch_len),
      state_(mst_depth) {}

Address ScValidator::expected_leader(std::uint64_t new_height) {
  std::uint64_t epoch = (new_height - 1) / slots_per_epoch_;
  std::uint64_t slot = (new_height - 1) % slots_per_epoch_;
  if (epoch != cached_epoch_) {
    cached_epoch_ = epoch;
    epoch_stake_ = StakeDistribution(state_.stake_snapshot());
    Digest prev_last =
        crypto::hash_str(Domain::kEpochRandomness, "genesis");
    if (epoch > 0) {
      std::size_t idx =
          static_cast<std::size_t>(epoch * slots_per_epoch_) - 1;
      if (idx < hashes_.size()) prev_last = hashes_[idx];
    }
    epoch_rand_ = epoch_randomness(prev_last, epoch);
  }
  if (epoch_stake_.empty()) return bootstrap_forger_;
  return select_slot_leader(epoch_stake_, epoch_rand_, epoch, slot);
}

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
  Address leader = expected_leader(new_height);
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

  // 5. MC references: internally consistent and in MC-chain order
  //    (§5.1's "consistent and ordered" rule).
  std::optional<Digest> prev_ref = last_mc_ref_;
  for (const McBlockReference& ref : block.mc_refs) {
    if (std::string err = ref.verify(ledger_id_); !err.empty()) {
      return "MC reference invalid: " + err;
    }
    if (prev_ref && ref.header.prev_hash != *prev_ref) {
      return "MC references out of order";
    }
    prev_ref = ref.header.hash();
  }

  // 6. Re-execute every transition and check the claimed derived fields
  //    and the final state commitment.
  LatusState replay = state_;
  for (const McBlockReference& ref : block.mc_refs) {
    if (ref.forward_transfers) {
      ForwardTransfersTx recomputed = *ref.forward_transfers;
      if (std::string err = apply_forward_transfers(replay, recomputed);
          !err.empty()) {
        return err;
      }
      if (recomputed.outputs != ref.forward_transfers->outputs ||
          !(recomputed.rejected_transfers ==
            ref.forward_transfers->rejected_transfers)) {
        return "FTTx derived fields do not match re-execution";
      }
    }
    if (ref.bt_requests) {
      BtrTx recomputed = *ref.bt_requests;
      if (std::string err = apply_btr(replay, recomputed); !err.empty()) {
        return err;
      }
      if (recomputed.consumed_inputs != ref.bt_requests->consumed_inputs ||
          !(recomputed.backward_transfers ==
            ref.bt_requests->backward_transfers)) {
        return "BTRTx derived fields do not match re-execution";
      }
    }
  }
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

  // Withdrawal-epoch boundary (§5.1.1/§5.2.1): a block whose reference
  // reaches the last MC block of the current withdrawal epoch ends the
  // epoch; the transient BT list and delta reset afterwards.
  bool boundary = false;
  for (const McBlockReference& ref : block.mc_refs) {
    std::uint64_t mc_h = ref.header.height;
    if (mc_h >= start_block_ &&
        mc_h == start_block_ + (current_we_ + 1) * epoch_len_ - 1) {
      boundary = true;
    }
  }
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
