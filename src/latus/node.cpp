#include "latus/node.hpp"

#include <stdexcept>

namespace zendoo::latus {

LatusNode::LatusNode(const SidechainId& ledger_id, std::uint64_t start_block,
                     std::uint64_t epoch_len, std::uint64_t submit_len,
                     unsigned mst_depth, std::uint64_t slots_per_epoch)
    : proofs_(ledger_id, mst_depth),
      slots_per_epoch_(slots_per_epoch),
      live_(mst_depth),
      obs_(std::make_shared<obs::Registry>()),
      m_checkpoints_(obs_->gauge("sc.checkpoints")),
      m_checkpoint_bytes_(obs_->gauge("sc.checkpoint_bytes")),
      m_chain_blocks_(obs_->gauge("sc.chain_blocks")),
      m_cert_archive_(obs_->gauge("sc.cert_archive")),
      m_pending_certs_(obs_->gauge("sc.pending_certs")),
      m_mc_index_(obs_->gauge("sc.mc_index")) {
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

  live_.epoch_start_commitment = live_.state.commitment();
  live_.epoch_start_mst_root = live_.state.mst().root();
  checkpoints_.push_back(
      std::make_shared<const Checkpoint>(Checkpoint{LogLengths{}, live_}));
  publish_gauges();
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
  if (live_.last_mc_height) {
    if (h != *live_.last_mc_height + 1) {
      return "MC blocks must be observed in height order";
    }
    if (block.header.prev_hash != mc_hashes_.back()) {
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
  if (!live_.last_mc_height) {
    // First observation: remember the parent hash too (needed when it is
    // an epoch-boundary block, e.g. genesis for epoch 0).
    mc_hash_base_ = h > 0 ? h - 1 : 0;
    if (h > 0) mc_hashes_.push_back(block.header.prev_hash);
  }
  live_.last_mc_height = h;
  mc_hashes_.push_back(hash);
  if (ref.wcert) {
    // Remember the acceptance evidence: it anchors future BTR/CSW
    // ownership proofs (H(B_w) in Def 4.5) and extends the Appendix-A
    // certificate history.
    observed_history_.push_back(
        ObservedCert{*ref.wcert, block.header, *ref.mproof});
  }
  // A pending epoch leaves once no block can carry its certificate any
  // more (Def 4.2), or once this block carries one for it that ours could
  // not replace (§4.1.2). When that one is the certificate this node would
  // build, it is archived as build_certificate would archive it: BTR/CSW
  // proofs against it need the boundary state.
  const auto& wcert = ref.wcert;
  std::erase_if(live_.pending_certs, [&](const auto& snap) {
    if (h >= mc_params_.cert_window_end(snap->we_epoch)) return true;
    if (!wcert || wcert->epoch_id != snap->we_epoch ||
        wcert->quality < snap->quality) {
      return false;
    }
    if (wcert->quality == snap->quality &&
        wcert->bt_list == snap->boundary_state.backward_transfers() &&
        wcert->proofdata ==
            LatusProofSystem::wcert_proofdata(snap->proof_input())) {
      archive(wcert->hash(), *snap);
    }
    return true;
  });
  live_.pending_refs.push_back(std::move(ref));
  publish_gauges();
  return "";
}

Address LatusNode::next_slot_leader() const {
  if (forgers_.empty()) {
    throw std::logic_error("LatusNode: no forgers registered");
  }
  return live_.leaders.leader(
      chain_.size() + 1, slots_per_epoch_, live_.state,
      forgers_.front().address(),
      [&](std::uint64_t height) { return chain_[height - 1].hash(); });
}

std::string LatusNode::forge_block() {
  if (forgers_.empty()) return "no forgers registered";
  std::uint64_t new_height = chain_.size() + 1;

  Address leader = next_slot_leader();
  const crypto::KeyPair* key = forger_for(leader);
  if (key == nullptr) return "slot leader key not held by this node";

  ScBlock block;
  block.header.prev_hash = chain_.empty() ? Digest{} : chain_.back().hash();
  block.header.height = new_height;
  block.header.epoch = (new_height - 1) / slots_per_epoch_;
  block.header.slot = (new_height - 1) % slots_per_epoch_;
  block.header.forger = leader;

  LatusState& state = live_.state;
  std::vector<snark::TransitionStep>& steps = live_.epoch_steps;
  // Consume queued MC references in order, stopping after the one that
  // closes the withdrawal epoch (§5.1.1's simplifying restriction).
  bool boundary = false;
  while (!live_.pending_refs.empty() && !boundary) {
    McBlockReference& ref =
        block.mc_refs.emplace_back(std::move(live_.pending_refs.front()));
    live_.pending_refs.pop_front();
    if (std::string err = apply_mc_reference(state, ref, &steps);
        !err.empty()) {
      return err;
    }
    boundary = closes_epoch(mc_params_, live_.current_we, ref.header.height);
  }

  if (!boundary) {
    // Regular SC transactions; invalid ones are dropped (mempool policy).
    // Their signatures are verified first, in one batch into the memo.
    crypto::SignatureMemo& memo = proofs_.signature_memo();
    prime_spend_signatures(live_.mempool_payments, live_.mempool_bts, memo);
    for (PaymentTx& tx : live_.mempool_payments) {
      if (apply_step(state, tx, &steps, [&](LatusState& s) {
            return apply_payment(s, tx, memo);
          }).empty()) {
        block.payments.push_back(std::move(tx));
      }
    }
    live_.mempool_payments.clear();
    for (BackwardTransferTx& tx : live_.mempool_bts) {
      if (apply_step(state, tx, &steps, [&](LatusState& s) {
            return apply_backward_transfer(s, tx, memo);
          }).empty()) {
        block.bt_txs.push_back(std::move(tx));
      }
    }
    live_.mempool_bts.clear();
  }

  block.header.body_root = block.compute_body_root();
  block.header.state_commitment = state.commitment();
  block.header.forger_pubkey = key->public_key();
  block.header.forger_sig = key->sign(block.header.signing_digest());
  chain_.push_back(block);

  if (boundary) {
    // Snapshot everything the withdrawal certificate needs (§5.5.3.1).
    std::uint64_t we = live_.current_we;
    auto prev_last = observed_mc_hash(
        we == 0 ? mc_params_.start_block - 1 : mc_params_.epoch_end(we - 1));
    auto last = observed_mc_hash(mc_params_.epoch_end(we));
    if (!prev_last || !last) return "missing MC epoch-boundary hashes";
    live_.pending_certs.push_back(std::make_shared<const EpochSnapshot>(
        EpochSnapshot{.we_epoch = we,
                      // Latus: quality = proven SC chain height
                      .quality = new_height,
                      .sb_last_hash = chain_.back().hash(),
                      .state_before = live_.epoch_start_commitment,
                      .mst_root_before = live_.epoch_start_mst_root,
                      .prev_epoch_last_mc = *prev_last,
                      .epoch_last_mc = *last,
                      .steps = std::move(steps),
                      .boundary_state = state}));

    // New withdrawal epoch: clear the BT list and delta (§5.2.1).
    steps.clear();
    state.begin_withdrawal_epoch();
    ++live_.current_we;
    live_.epoch_start_commitment = state.commitment();
    live_.epoch_start_mst_root = state.mst().root();
  }
  publish_gauges();
  return "";
}

std::string LatusNode::forge_until_synced() {
  while (!live_.pending_refs.empty()) {
    if (std::string err = forge_block(); !err.empty()) return err;
  }
  maybe_checkpoint();
  return "";
}

std::optional<Digest> LatusNode::observed_mc_hash(std::uint64_t h) const {
  if (h < mc_hash_base_ || h - mc_hash_base_ >= mc_hashes_.size()) {
    return std::nullopt;
  }
  return mc_hashes_[h - mc_hash_base_];
}

std::uint64_t LatusNode::Mutable::dynamic_usage() const {
  // The state's MST nodes, with the UTXOs in their leaves, and the steps'
  // witnesses are shared with the live node, so only the pointers to them
  // count.
  return state.backward_transfers().size() *
             sizeof(mainchain::BackwardTransfer) +
         (state.delta().size() + 63) / 64 * sizeof(std::uint64_t) +
         pending_refs.size() * sizeof(McBlockReference) +
         mempool_payments.size() * sizeof(PaymentTx) +
         mempool_bts.size() * sizeof(BackwardTransferTx) +
         epoch_steps.size() *
             (sizeof(snark::TransitionStep) +
              sizeof(std::shared_ptr<const TransitionWitness>)) +
         pending_certs.size() * sizeof(std::shared_ptr<const EpochSnapshot>) +
         leaders.stake.entries().size() *
             (sizeof(std::pair<Address, Amount>) + sizeof(Amount));
}

void LatusNode::maybe_checkpoint() {
  if (!live_.last_mc_height) return;
  std::uint64_t h = *live_.last_mc_height;
  if (h % kCheckpointInterval != 0) return;
  if (checkpoints_.back()->live.last_mc_height >= h) return;
  LogLengths logs{chain_.size(), observed_history_.size(), mc_hashes_.size(),
                  cert_order_.size()};
  checkpoints_.push_back(
      std::make_shared<const Checkpoint>(Checkpoint{logs, live_}));
  if (checkpoints_.size() > kMaxCheckpoints + 1) {
    checkpoints_.erase(checkpoints_.begin() + 1);  // never the base
  }
  publish_gauges();
}

std::optional<std::uint64_t> LatusNode::rollback_to_mc_ancestor(
    std::uint64_t mc_height) {
  // Newest checkpoint at or below the fork point; the base checkpoint
  // observed nothing, so the search stops there at the latest.
  std::size_t pick = checkpoints_.size() - 1;
  while (checkpoints_[pick]->live.last_mc_height > mc_height) --pick;

  // Every newer checkpoint goes, so the logs of those kept stay prefixes
  // of the live ones.
  checkpoints_.resize(pick + 1);
  const Checkpoint& cp = *checkpoints_.back();
  chain_.resize(cp.logs.chain);
  observed_history_.resize(cp.logs.observed_certs);
  mc_hashes_.resize(cp.logs.mc_hashes);
  for (std::size_t i = cp.logs.cert_records; i < cert_order_.size(); ++i) {
    cert_states_.erase(cert_order_[i]);
  }
  cert_order_.resize(cp.logs.cert_records);
  live_ = cp.live;
  publish_gauges();
  return live_.last_mc_height;
}

void LatusNode::publish_gauges() {
  std::uint64_t bytes = 0;
  for (const auto& cp : checkpoints_) {
    bytes += sizeof(Checkpoint) + cp->live.dynamic_usage();
  }
  m_checkpoints_->set(checkpoints_.size());
  m_checkpoint_bytes_->set(bytes);
  m_chain_blocks_->set(chain_.size());
  m_cert_archive_->set(cert_states_.size());
  m_pending_certs_->set(live_.pending_certs.size());
  m_mc_index_->set(mc_hashes_.size());
}

std::optional<mainchain::WithdrawalCertificate> LatusNode::build_certificate(
    snark::RecursionStats* stats) {
  if (live_.pending_certs.empty()) return std::nullopt;
  std::shared_ptr<const EpochSnapshot> shared =
      std::move(live_.pending_certs.front());
  live_.pending_certs.pop_front();
  const EpochSnapshot& snap = *shared;

  WcertProofInput in = snap.proof_input();
  if (!snap.steps.empty()) {
    // The recursive composition of Figs. 10/11: base proof per transaction,
    // balanced merge tree up to the single epoch proof.
    in.epoch_proof = proofs_.transitions().prove_chain(snap.steps, stats);
  }

  mainchain::WithdrawalCertificate cert;
  cert.ledger_id = mc_params_.ledger_id;
  cert.epoch_id = snap.we_epoch;
  cert.quality = snap.quality;
  cert.bt_list = snap.boundary_state.backward_transfers();
  cert.proofdata = LatusProofSystem::wcert_proofdata(in);
  cert.proof = proofs_.prove_wcert(in);

  archive(cert.hash(), snap);
  publish_gauges();
  return cert;
}

WcertProofInput LatusNode::EpochSnapshot::proof_input() const {
  WcertProofInput in;
  in.state_before = state_before;
  in.state_after = boundary_state.commitment();
  in.mst_root_before = mst_root_before;
  in.mst_root_after = boundary_state.mst().root();
  in.sb_last_hash = sb_last_hash;
  in.delta_hash = boundary_state.delta().hash();
  in.quality = quality;
  in.prev_epoch_last_mc = prev_epoch_last_mc;
  in.epoch_last_mc = epoch_last_mc;
  in.bt_root = boundary_state.bt_list_root();
  return in;
}

void LatusNode::archive(const Digest& cert_hash, const EpochSnapshot& snap) {
  // A checkpoint may still hold the snapshot, so the archive copies its
  // state.
  auto [it, inserted] = cert_states_.emplace(cert_hash, snap.boundary_state);
  if (inserted) cert_order_.push_back(it->first);
}

OwnershipWitness LatusNode::make_ownership_witness(
    const Utxo& utxo, const crypto::KeyPair& owner,
    const Address& mc_receiver) const {
  if (observed_history_.empty()) {
    throw std::logic_error(
        "LatusNode: no certificate observed on the mainchain yet");
  }
  const ObservedCert& observed = observed_history_.back();
  auto it = cert_states_.find(observed.cert.hash());
  if (it == cert_states_.end()) {
    throw std::logic_error(
        "LatusNode: no state snapshot for the observed certificate");
  }
  const LatusState& snapshot = it->second;
  if (!snapshot.contains(utxo)) {
    throw std::invalid_argument(
        "LatusNode: UTXO not present in the last committed state");
  }
  OwnershipWitness w;
  w.utxo = utxo;
  w.pubkey = owner.public_key();
  w.sig = owner.sign(
      LatusProofSystem::ownership_message(mc_receiver, utxo.nullifier()));
  w.mst_proof =
      snapshot.mst().prove(mst_position(utxo, live_.state.depth()));
  w.cert = observed.cert;
  w.cert_block_header = observed.block_header;
  w.cert_mproof = observed.mproof;
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
    if (it != cert_states_.end() && it->second.contains(utxo)) {
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
  const LatusState& anchor_state = cert_states_.at(anchor.cert.hash());

  HistoricalOwnershipWitness w;
  w.base.utxo = utxo;
  w.base.pubkey = owner.public_key();
  w.base.sig = owner.sign(
      LatusProofSystem::ownership_message(mc_receiver, utxo.nullifier()));
  w.base.mst_proof =
      anchor_state.mst().prove(mst_position(utxo, live_.state.depth()));
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
                                it->second.delta()});
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
