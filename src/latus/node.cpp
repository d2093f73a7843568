#include "latus/node.hpp"

#include <stdexcept>

namespace zendoo::latus {

LatusNode::LatusNode(const SidechainId& ledger_id, std::uint64_t start_block,
                     std::uint64_t epoch_len, std::uint64_t submit_len,
                     unsigned mst_depth, std::uint64_t slots_per_epoch)
    : proofs_(ledger_id, mst_depth),
      state_(mst_depth),
      slots_per_epoch_(slots_per_epoch) {
  mc_params_.ledger_id = ledger_id;
  mc_params_.start_block = start_block;
  mc_params_.epoch_len = epoch_len;
  mc_params_.submit_len = submit_len;
  mc_params_.wcert_vk = proofs_.wcert_vk();
  mc_params_.btr_vk = proofs_.btr_vk();
  mc_params_.csw_vk = proofs_.csw_vk();
  mc_params_.wcert_proofdata_len = LatusProofSystem::kWcertProofdataLen;
  mc_params_.btr_proofdata_len = LatusProofSystem::kBtrProofdataLen;
  mc_params_.csw_proofdata_len = LatusProofSystem::kCswProofdataLen;

  epoch_start_commitment_ = state_.commitment();
  epoch_start_mst_root_ = state_.mst().root();
}

void LatusNode::add_forger(const crypto::KeyPair& key) {
  forgers_.push_back(key);
}

const crypto::KeyPair* LatusNode::forger_for(const Address& addr) const {
  for (const auto& key : forgers_) {
    if (key.address() == addr) return &key;
  }
  return nullptr;
}

std::string LatusNode::observe_mc_block(const mainchain::Block& block) {
  std::uint64_t h = block.header.height;
  Digest hash = block.hash();
  if (last_mc_height_) {
    if (h != *last_mc_height_ + 1) {
      return "MC blocks must be observed in height order";
    }
    if (block.header.prev_hash != mc_hash_by_height_[*last_mc_height_]) {
      return "MC block does not extend the previously observed block";
    }
  }

  const SidechainId& id = mc_params_.ledger_id;
  merkle::ScTxCommitmentTree tree = block.build_commitment_tree();

  McBlockReference ref;
  ref.header = block.header;
  if (tree.data().contains(id)) {
    ref.mproof = tree.prove_membership(id);
    // Collect this sidechain's forward transfers, in block order.
    ForwardTransfersTx fttx;
    fttx.mc_block_id = hash;
    for (const mainchain::Transaction& tx : block.transactions) {
      Digest txid = tx.id();
      for (std::uint32_t i = 0; i < tx.forward_transfers.size(); ++i) {
        if (tx.forward_transfers[i].ledger_id == id) {
          fttx.fts.push_back(
              SyncedForwardTransfer{tx.forward_transfers[i], txid, i});
        }
      }
    }
    if (!fttx.fts.empty()) ref.forward_transfers = std::move(fttx);

    BtrTx btrtx;
    btrtx.mc_block_id = hash;
    for (const mainchain::BtrRequest& btr : block.btrs) {
      if (btr.ledger_id == id) btrtx.requests.push_back(btr);
    }
    if (!btrtx.requests.empty()) ref.bt_requests = std::move(btrtx);

    for (const mainchain::WithdrawalCertificate& cert : block.certificates) {
      if (cert.ledger_id == id) ref.wcert = cert;
    }
  } else {
    ref.proof_of_no_data = tree.prove_absence(id);
  }

  // Only a verified block is observed: a refused one leaves the node
  // waiting for a block at the same height.
  if (std::string err = ref.verify(id); !err.empty()) {
    return "constructed reference fails verification: " + err;
  }
  if (!last_mc_height_ && h > 0) {
    // First observation: remember the parent hash too (needed when it is
    // an epoch-boundary block, e.g. genesis for epoch 0).
    mc_hash_by_height_[h - 1] = block.header.prev_hash;
  }
  last_mc_height_ = h;
  mc_hash_by_height_[h] = hash;
  if (ref.wcert) {
    // Remember the acceptance evidence: it anchors future BTR/CSW
    // ownership proofs (H(B_w) in Def 4.5) and extends the Appendix-A
    // certificate history.
    observed_cert_ = ObservedCert{*ref.wcert, block.header, *ref.mproof};
    observed_history_.push_back(*observed_cert_);
  }
  pending_refs_.emplace_back(std::move(ref), h);
  return "";
}

void LatusNode::refresh_consensus_epoch(std::uint64_t epoch) const {
  if (epoch == cached_consensus_epoch_) return;
  cached_consensus_epoch_ = epoch;
  epoch_stake_ = StakeDistribution(state_.stake_snapshot());
  // Randomness: hash of the previous consensus epoch's last block (or a
  // fixed genesis seed), revealed after the stake snapshot was fixed.
  Digest prev_last = crypto::hash_str(Domain::kEpochRandomness, "genesis");
  if (epoch > 0) {
    std::size_t idx = static_cast<std::size_t>(epoch * slots_per_epoch_) - 1;
    if (idx < chain_.size()) prev_last = chain_[idx].hash();
  }
  epoch_rand_ = epoch_randomness(prev_last, epoch);
}

Address LatusNode::next_slot_leader() const {
  std::uint64_t height = chain_.size();
  std::uint64_t epoch = height / slots_per_epoch_;
  std::uint64_t slot = height % slots_per_epoch_;
  refresh_consensus_epoch(epoch);
  if (epoch_stake_.empty()) {
    if (forgers_.empty()) {
      throw std::logic_error("LatusNode: no forgers registered");
    }
    return forgers_.front().address();  // bootstrap leader
  }
  return select_slot_leader(epoch_stake_, epoch_rand_, epoch, slot);
}

std::string LatusNode::forge_block() {
  if (forgers_.empty()) return "no forgers registered";
  std::uint64_t new_height = chain_.size() + 1;
  std::uint64_t epoch = (new_height - 1) / slots_per_epoch_;
  std::uint64_t slot = (new_height - 1) % slots_per_epoch_;

  Address leader = next_slot_leader();
  const crypto::KeyPair* key = forger_for(leader);
  if (key == nullptr) return "slot leader key not held by this node";

  ScBlock block;
  block.header.prev_hash = chain_.empty() ? Digest{} : chain_.back().hash();
  block.header.height = new_height;
  block.header.epoch = epoch;
  block.header.slot = slot;
  block.header.forger = leader;

  // Consume queued MC references in order, stopping after a withdrawal
  // epoch boundary block (§5.1.1's simplifying restriction).
  bool boundary = false;
  while (!pending_refs_.empty() && !boundary) {
    auto [ref, mc_height] = std::move(pending_refs_.front());
    pending_refs_.pop_front();
    if (std::string err = ref.verify(mc_params_.ledger_id); !err.empty()) {
      return "queued MC reference invalid: " + err;
    }
    if (ref.forward_transfers) {
      Digest before = state_.commitment();
      LatusState pre = state_;
      if (std::string err =
              apply_forward_transfers(state_, *ref.forward_transfers);
          !err.empty()) {
        return err;
      }
      snark::TransitionStep step{before, state_.commitment(),
                                 TransitionWitness{std::move(pre),
                                                   *ref.forward_transfers}};
      epoch_steps_.push_back(std::move(step));
    }
    if (ref.bt_requests) {
      Digest before = state_.commitment();
      LatusState pre = state_;
      if (std::string err = apply_btr(state_, *ref.bt_requests);
          !err.empty()) {
        return err;
      }
      snark::TransitionStep step{before, state_.commitment(),
                                 TransitionWitness{std::move(pre),
                                                   *ref.bt_requests}};
      epoch_steps_.push_back(std::move(step));
    }
    if (mc_height >= mc_params_.start_block &&
        mc_height == mc_params_.epoch_end(current_we_)) {
      boundary = true;
    }
    block.mc_refs.push_back(std::move(ref));
  }

  if (!boundary) {
    // Regular SC transactions; invalid ones are dropped (mempool policy).
    for (PaymentTx& tx : mempool_payments_) {
      Digest before = state_.commitment();
      LatusState pre = state_;
      if (apply_payment(state_, tx, proofs_.signature_memo()).empty()) {
        snark::TransitionStep step{before, state_.commitment(),
                                   TransitionWitness{std::move(pre), tx}};
        epoch_steps_.push_back(std::move(step));
        block.payments.push_back(std::move(tx));
      }
    }
    mempool_payments_.clear();
    for (BackwardTransferTx& tx : mempool_bts_) {
      Digest before = state_.commitment();
      LatusState pre = state_;
      if (apply_backward_transfer(state_, tx, proofs_.signature_memo())
              .empty()) {
        snark::TransitionStep step{before, state_.commitment(),
                                   TransitionWitness{std::move(pre), tx}};
        epoch_steps_.push_back(std::move(step));
        block.bt_txs.push_back(std::move(tx));
      }
    }
    mempool_bts_.clear();
  }

  block.header.body_root = block.compute_body_root();
  block.header.state_commitment = state_.commitment();
  block.header.forger_pubkey = key->public_key();
  block.header.forger_sig = key->sign(block.header.signing_digest());
  chain_.push_back(block);

  if (boundary) {
    // Snapshot everything the withdrawal certificate needs (§5.5.3.1).
    EpochSnapshot snap;
    snap.we_epoch = current_we_;
    snap.quality = new_height;  // Latus: quality = proven SC chain height
    snap.sb_last_hash = chain_.back().hash();
    snap.bt_list = state_.backward_transfers();
    snap.state_after = state_.commitment();
    snap.mst_root_after = state_.mst().root();
    snap.state_before = epoch_start_commitment_;
    snap.mst_root_before = epoch_start_mst_root_;
    snap.delta_hash = state_.delta().hash();
    snap.delta = state_.delta();
    snap.steps = std::move(epoch_steps_);
    snap.boundary_state = state_;
    auto it_prev = mc_hash_by_height_.find(
        current_we_ == 0 ? mc_params_.start_block - 1
                         : mc_params_.epoch_end(current_we_ - 1));
    auto it_last = mc_hash_by_height_.find(mc_params_.epoch_end(current_we_));
    if (it_prev == mc_hash_by_height_.end() ||
        it_last == mc_hash_by_height_.end()) {
      return "missing MC epoch-boundary hashes";
    }
    snap.prev_epoch_last_mc = it_prev->second;
    snap.epoch_last_mc = it_last->second;
    pending_certs_.push_back(std::move(snap));

    // New withdrawal epoch: clear the BT list and delta (§5.2.1).
    epoch_steps_.clear();
    state_.begin_withdrawal_epoch();
    ++current_we_;
    epoch_start_commitment_ = state_.commitment();
    epoch_start_mst_root_ = state_.mst().root();
  }
  return "";
}

std::string LatusNode::forge_until_synced() {
  while (!pending_refs_.empty()) {
    if (std::string err = forge_block(); !err.empty()) return err;
  }
  maybe_checkpoint();
  return "";
}

std::optional<Digest> LatusNode::observed_mc_hash(std::uint64_t h) const {
  auto it = mc_hash_by_height_.find(h);
  if (it == mc_hash_by_height_.end()) return std::nullopt;
  return it->second;
}

void LatusNode::maybe_checkpoint() {
  if (!last_mc_height_) return;
  std::uint64_t h = *last_mc_height_;
  if (h % kCheckpointInterval != 0) return;
  if (!checkpoints_.empty() && checkpoints_.back().first >= h) return;
  auto snap = std::make_shared<LatusNode>(*this);
  // A snapshot must not hold snapshots of its own (and a restore must not
  // resurrect stale ones).
  snap->checkpoints_.clear();
  checkpoints_.emplace_back(h, std::move(snap));
  if (checkpoints_.size() > kMaxCheckpoints) {
    checkpoints_.erase(checkpoints_.begin());
  }
}

std::optional<std::uint64_t> LatusNode::rollback_to_mc_ancestor(
    std::uint64_t mc_height) {
  // Newest checkpoint at or below the fork point.
  std::size_t pick = checkpoints_.size();
  for (std::size_t i = checkpoints_.size(); i-- > 0;) {
    if (checkpoints_[i].first <= mc_height) {
      pick = i;
      break;
    }
  }
  if (pick == checkpoints_.size()) return std::nullopt;

  // Keep the checkpoints up to (and including) the restored one; the
  // assignment below would otherwise wipe them.
  auto kept = std::move(checkpoints_);
  std::uint64_t restored = kept[pick].first;
  *this = *kept[pick].second;
  kept.resize(pick + 1);
  checkpoints_ = std::move(kept);
  return restored;
}

std::optional<mainchain::WithdrawalCertificate> LatusNode::build_certificate(
    snark::RecursionStats* stats) {
  if (pending_certs_.empty()) return std::nullopt;
  EpochSnapshot snap = std::move(pending_certs_.front());
  pending_certs_.pop_front();

  WcertProofInput in;
  in.state_before = snap.state_before;
  in.state_after = snap.state_after;
  in.mst_root_before = snap.mst_root_before;
  in.mst_root_after = snap.mst_root_after;
  in.sb_last_hash = snap.sb_last_hash;
  in.delta_hash = snap.delta_hash;
  in.quality = snap.quality;
  in.prev_epoch_last_mc = snap.prev_epoch_last_mc;
  in.epoch_last_mc = snap.epoch_last_mc;
  {
    std::vector<Digest> leaves;
    for (const auto& bt : snap.bt_list) leaves.push_back(bt.leaf_hash());
    in.bt_root = merkle::merkle_root(leaves);
  }
  if (!snap.steps.empty()) {
    // The recursive composition of Figs. 10/11: base proof per transaction,
    // balanced merge tree up to the single epoch proof.
    in.epoch_proof = proofs_.transitions().prove_chain(snap.steps, stats);
  }

  mainchain::WithdrawalCertificate cert;
  cert.ledger_id = mc_params_.ledger_id;
  cert.epoch_id = snap.we_epoch;
  cert.quality = snap.quality;
  cert.bt_list = snap.bt_list;
  cert.proofdata = LatusProofSystem::wcert_proofdata(in);
  cert.proof = proofs_.prove_wcert(in);

  cert_states_.emplace(
      cert.hash(),
      CertRecord{std::move(*snap.boundary_state), std::move(snap.delta)});
  return cert;
}

OwnershipWitness LatusNode::make_ownership_witness(
    const Utxo& utxo, const crypto::KeyPair& owner,
    const Address& mc_receiver) const {
  if (!observed_cert_) {
    throw std::logic_error(
        "LatusNode: no certificate observed on the mainchain yet");
  }
  auto it = cert_states_.find(observed_cert_->cert.hash());
  if (it == cert_states_.end()) {
    throw std::logic_error(
        "LatusNode: no state snapshot for the observed certificate");
  }
  const LatusState& snapshot = it->second.state;
  if (!snapshot.contains(utxo)) {
    throw std::invalid_argument(
        "LatusNode: UTXO not present in the last committed state");
  }
  OwnershipWitness w;
  w.utxo = utxo;
  w.pubkey = owner.public_key();
  w.sig = owner.sign(
      LatusProofSystem::ownership_message(mc_receiver, utxo.nullifier()));
  w.mst_proof = snapshot.mst().prove(mst_position(utxo, state_.depth()));
  w.cert = observed_cert_->cert;
  w.cert_block_header = observed_cert_->block_header;
  w.cert_mproof = observed_cert_->mproof;
  return w;
}

mainchain::BtrRequest LatusNode::create_btr(const Utxo& utxo,
                                            const crypto::KeyPair& owner,
                                            const Address& mc_receiver) const {
  OwnershipWitness w = make_ownership_witness(utxo, owner, mc_receiver);
  mainchain::BtrRequest btr;
  btr.ledger_id = mc_params_.ledger_id;
  btr.receiver = mc_receiver;
  btr.amount = utxo.amount;
  btr.nullifier = utxo.nullifier();
  btr.proofdata = encode_utxo_proofdata(utxo);
  btr.proof = proofs_.prove_btr(w, mc_receiver);
  return btr;
}

mainchain::CeasedSidechainWithdrawal LatusNode::create_csw_historical(
    const Utxo& utxo, const crypto::KeyPair& owner,
    const Address& mc_receiver) const {
  // Find the oldest observed certificate whose archived state contains
  // the coin.
  std::size_t anchor_index = observed_history_.size();
  for (std::size_t i = 0; i < observed_history_.size(); ++i) {
    auto it = cert_states_.find(observed_history_[i].cert.hash());
    if (it != cert_states_.end() && it->second.state.contains(utxo)) {
      anchor_index = i;
      break;
    }
  }
  if (anchor_index == observed_history_.size()) {
    throw std::invalid_argument(
        "LatusNode: UTXO not found in any archived certificate state");
  }
  if (anchor_index + 1 == observed_history_.size()) {
    // No later certificates: the plain CSW path applies.
    return create_csw(utxo, owner, mc_receiver);
  }

  const ObservedCert& anchor = observed_history_[anchor_index];
  const CertRecord& record = cert_states_.at(anchor.cert.hash());

  HistoricalOwnershipWitness w;
  w.base.utxo = utxo;
  w.base.pubkey = owner.public_key();
  w.base.sig = owner.sign(
      LatusProofSystem::ownership_message(mc_receiver, utxo.nullifier()));
  w.base.mst_proof =
      record.state.mst().prove(mst_position(utxo, state_.depth()));
  w.base.cert = anchor.cert;
  w.base.cert_block_header = anchor.block_header;
  w.base.cert_mproof = anchor.mproof;
  for (std::size_t i = anchor_index + 1; i < observed_history_.size(); ++i) {
    const ObservedCert& later = observed_history_[i];
    auto it = cert_states_.find(later.cert.hash());
    if (it == cert_states_.end()) {
      throw std::logic_error(
          "LatusNode: missing delta archive for a later certificate");
    }
    w.links.push_back(DeltaLink{later.cert, later.block_header, later.mproof,
                                it->second.delta});
  }

  mainchain::CeasedSidechainWithdrawal csw;
  csw.ledger_id = mc_params_.ledger_id;
  csw.receiver = mc_receiver;
  csw.amount = utxo.amount;
  csw.nullifier = utxo.nullifier();
  csw.proof = proofs_.prove_csw_historical(w, mc_receiver);
  return csw;
}

mainchain::CeasedSidechainWithdrawal LatusNode::create_csw(
    const Utxo& utxo, const crypto::KeyPair& owner,
    const Address& mc_receiver) const {
  OwnershipWitness w = make_ownership_witness(utxo, owner, mc_receiver);
  mainchain::CeasedSidechainWithdrawal csw;
  csw.ledger_id = mc_params_.ledger_id;
  csw.receiver = mc_receiver;
  csw.amount = utxo.amount;
  csw.nullifier = utxo.nullifier();
  csw.proof = proofs_.prove_csw(w, mc_receiver);
  return csw;
}

}  // namespace zendoo::latus
