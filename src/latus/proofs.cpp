#include "latus/proofs.hpp"

#include <memory>
#include <stdexcept>

namespace zendoo::latus {

namespace {

using snark::PredicateSnark;
using snark::Statement;
using snark::Witness;

/// Witness wrapper for the WCert circuit.
struct WcertWitness {
  WcertProofInput in;
};

/// Witness wrapper distinguishing BTR from CSW proving.
struct OwnershipProverInput {
  OwnershipWitness w;
  Address receiver;
};

/// CSW prover input: a plain withdrawal (links empty) or the Appendix-A
/// historical path (links anchor the statement's H(B_w)).
struct CswProverInput {
  OwnershipWitness base;
  Address receiver;
  std::vector<DeltaLink> links;
};

/// The base-transition circuit. Its signature memo comes from the proof
/// system that set it up, never from the witness, so a prover can only
/// skip checks this node already ran and passed. It reads the transition
/// as make_transition_step stores it.
snark::TransitionChecker make_checker(
    std::shared_ptr<crypto::SignatureMemo> memo) {
  return [memo = std::move(memo)](const Digest& before, const Digest& after,
                                  const std::any& t) {
    const auto* w =
        std::any_cast<std::shared_ptr<const TransitionWitness>>(&t);
    if (w == nullptr || *w == nullptr) return false;
    LatusState state = (*w)->before_state;
    if (state.commitment() != before) return false;
    TxVariant tx = (*w)->tx;  // derived fields recomputed by apply
    if (!apply_transaction(state, tx, *memo).empty()) return false;
    return state.commitment() == after;
  };
}

/// The post-epoch state commitment the certificate attests:
/// H(mst_root_after ‖ MH(BTList)).
Digest state_commitment_of(const Digest& mst_root, const Digest& bt_root) {
  return crypto::Hasher(crypto::Domain::kStateCommitment)
      .write(mst_root)
      .write(bt_root)
      .finalize();
}

Digest empty_bt_root() { return merkle::MerkleTree::empty_root(); }

/// Shared logic of the BTR/CSW circuits: verifies the full evidence chain
/// from the MC block header down to the UTXO and its spending signature.
/// When `require_anchor` is false the H(B_w) == witnessed-header check is
/// skipped (the historical path anchors through the delta-link chain
/// instead).
bool check_ownership(const SidechainId& ledger_id, unsigned mst_depth,
                     const Statement& st, const OwnershipWitness& w,
                     const Digest& receiver, bool expect_empty_proofdata,
                     bool require_anchor = true) {
  if (st.size() < 5) return false;
  const Digest& h_bw = st[0];
  const Digest& nullifier = st[1];
  const Digest& st_receiver = st[2];
  const Digest& st_amount = st[3];
  const Digest& st_proofdata_root = st[4];

  // 1. The witnessed MC header is the block the MC says holds the last
  //    certificate.
  if (require_anchor && w.cert_block_header.hash() != h_bw) return false;
  // 2. That header's SCTxsCommitment commits to exactly this certificate
  //    for this sidechain.
  if (w.cert_mproof.wcert_leaf != w.cert.hash()) return false;
  if (!merkle::ScTxCommitmentTree::verify_membership(
          w.cert_block_header.sc_txs_commitment, ledger_id, w.cert_mproof)) {
    return false;
  }
  if (w.cert.ledger_id != ledger_id) return false;
  // 3. The certificate's proofdata carries the committed MST root.
  if (w.cert.proofdata.size() != LatusProofSystem::kWcertProofdataLen) {
    return false;
  }
  const Digest& mst_root = w.cert.proofdata[1];
  // 4. The claimed UTXO occupies its deterministic slot in that MST.
  if (w.mst_proof.leaf_index != mst_position(w.utxo, mst_depth)) return false;
  if (w.mst_proof.siblings.size() != mst_depth) return false;
  if (!merkle::MerkleStateTree::verify(mst_root, w.utxo.hash(),
                                       w.mst_proof)) {
    return false;
  }
  // 5. Statement consistency: nullifier, amount, receiver.
  if (nullifier != w.utxo.nullifier()) return false;
  if (st_amount != snark::statement_u64(w.utxo.amount)) return false;
  if (st_receiver != receiver) return false;
  // 6. Spending authorization bound to (receiver, nullifier).
  if (crypto::address_of(w.pubkey) != w.utxo.addr) return false;
  if (!crypto::verify_signature(
          w.pubkey, LatusProofSystem::ownership_message(receiver, nullifier),
          w.sig)) {
    return false;
  }
  // 7. proofdata binding.
  if (expect_empty_proofdata) {
    return st_proofdata_root == merkle::merkle_root({});
  }
  return st_proofdata_root ==
         merkle::merkle_root(encode_utxo_proofdata(w.utxo));
}

}  // namespace

snark::TransitionStep make_transition_step(const Digest& before,
                                           const Digest& after,
                                           TransitionWitness w) {
  return {before, after,
          std::make_shared<const TransitionWitness>(std::move(w))};
}

LatusProofSystem::LatusProofSystem(const SidechainId& ledger_id,
                                   unsigned mst_depth)
    : ledger_id_(ledger_id),
      mst_depth_(mst_depth),
      signature_memo_(std::make_shared<crypto::SignatureMemo>()),
      transitions_(make_checker(signature_memo_),
                   "latus/" + ledger_id.to_hex()) {
  // ---- WCert circuit (§5.5.3.1) ----
  // Captures the transition system's verification key: "the circuit embeds
  // the verifier of the epoch transition proof".
  snark::VerifyingKey transition_vk = transitions_.vk();
  auto wcert_circuit = [transition_vk](const Statement& st,
                                       const Witness& witness) {
    const auto* w = std::any_cast<WcertWitness>(&witness);
    if (w == nullptr || st.size() != 5) return false;
    const WcertProofInput& in = w->in;
    // Statement layout fixed by the MC (§4.1.2):
    // [H(quality), MH(BTList), H(B_{i-1,last}), H(B_{i,last}), MH(proofdata)]
    if (st[0] != snark::statement_u64(in.quality)) return false;
    if (st[1] != in.bt_root) return false;
    if (st[2] != in.prev_epoch_last_mc) return false;
    if (st[3] != in.epoch_last_mc) return false;
    if (st[4] != merkle::merkle_root(wcert_proofdata(in))) return false;
    // The committed states must decompose as H(mst_root ‖ bt_root): the
    // epoch starts with an empty BT list (§5.2.1) and ends with BTList.
    if (in.state_before !=
        state_commitment_of(in.mst_root_before, empty_bt_root())) {
      return false;
    }
    if (in.state_after !=
        state_commitment_of(in.mst_root_after, in.bt_root)) {
      return false;
    }
    // Epoch transition proof: s_before -> s_after across every transaction
    // of the withdrawal epoch (Fig. 11). An epoch without transitions is
    // valid only when the state did not move at all.
    if (in.epoch_proof.has_value()) {
      snark::Statement transition_st{in.state_before, in.state_after};
      return PredicateSnark::verify(transition_vk, transition_st,
                                    *in.epoch_proof);
    }
    return in.state_before == in.state_after &&
           in.bt_root == empty_bt_root();
  };
  auto [wpk, wvk] = PredicateSnark::setup(
      wcert_circuit, "latus-wcert/" + ledger_id.to_hex());
  wcert_pk_ = wpk;
  wcert_vk_ = wvk;

  // ---- BTR circuit (§5.5.3.2) ----
  SidechainId id = ledger_id_;
  unsigned depth = mst_depth_;
  auto btr_circuit = [id, depth](const Statement& st, const Witness& witness) {
    const auto* in = std::any_cast<OwnershipProverInput>(&witness);
    if (in == nullptr || st.size() != 5) return false;
    return check_ownership(id, depth, st, in->w, in->receiver,
                           /*expect_empty_proofdata=*/false);
  };
  auto [bpk, bvk] =
      PredicateSnark::setup(btr_circuit, "latus-btr/" + ledger_id.to_hex());
  btr_pk_ = bpk;
  btr_vk_ = bvk;

  // ---- CSW circuit (§5.5.3.3 + Appendix A): same evidence chain, direct
  // payment, statement carries the extra CSW domain tag. With delta links
  // present, ownership is proven against an OLD certificate and every
  // later certificate's mst_delta must leave the slot untouched; the
  // continuity of the certificate chain is enforced through the published
  // mst_root_before/after values in proofdata. ----
  auto csw_circuit = [id, depth](const Statement& st, const Witness& witness) {
    const auto* in = std::any_cast<CswProverInput>(&witness);
    if (in == nullptr || st.size() != 6) return false;
    if (st[5] != crypto::hash_str(crypto::Domain::kSnarkStatement, "csw")) {
      return false;
    }
    if (in->links.empty()) {
      return check_ownership(id, depth, st, in->base, in->receiver,
                             /*expect_empty_proofdata=*/true);
    }
    // Historical path. The base witness proves the UTXO against the old
    // certificate; H(B_w) is anchored by the last link instead.
    if (!check_ownership(id, depth, st, in->base, in->receiver,
                         /*expect_empty_proofdata=*/true,
                         /*require_anchor=*/false)) {
      return false;
    }
    if (st[0] != in->links.back().header.hash()) return false;
    std::uint64_t pos = mst_position(in->base.utxo, depth);
    Digest prev_root_after = in->base.cert.proofdata[1];
    for (const DeltaLink& link : in->links) {
      // Each later certificate is anchored in an MC header...
      if (link.mproof.wcert_leaf != link.cert.hash()) return false;
      if (!merkle::ScTxCommitmentTree::verify_membership(
              link.header.sc_txs_commitment, id, link.mproof)) {
        return false;
      }
      if (link.cert.ledger_id != id) return false;
      if (link.cert.proofdata.size() !=
          LatusProofSystem::kWcertProofdataLen) {
        return false;
      }
      // ...continues exactly where the previous certificate left off...
      if (link.cert.proofdata[3] != prev_root_after) return false;
      prev_root_after = link.cert.proofdata[1];
      // ...and its published delta leaves the claimed slot untouched.
      if (link.delta.depth() != depth) return false;
      if (link.delta.hash() != link.cert.proofdata[2]) return false;
      if (link.delta.get(pos)) return false;
    }
    return true;
  };
  auto [cpk, cvk] =
      PredicateSnark::setup(csw_circuit, "latus-csw/" + ledger_id.to_hex());
  csw_pk_ = cpk;
  csw_vk_ = cvk;
}

snark::Proof LatusProofSystem::prove_transition(
    const Digest& before, const Digest& after,
    const TransitionWitness& w) const {
  return transitions_.prove_base(
      before, after, make_transition_step(before, after, w).transition);
}

std::vector<Digest> LatusProofSystem::wcert_proofdata(
    const WcertProofInput& in) {
  return {in.sb_last_hash, in.mst_root_after, in.delta_hash,
          in.mst_root_before};
}

snark::Proof LatusProofSystem::prove_wcert(const WcertProofInput& in) const {
  Statement st = mainchain::wcert_statement(
      in.quality, in.bt_root, in.prev_epoch_last_mc, in.epoch_last_mc,
      merkle::merkle_root(wcert_proofdata(in)));
  auto proof = PredicateSnark::prove(wcert_pk_, st, WcertWitness{in});
  if (!proof) {
    throw std::invalid_argument(
        "LatusProofSystem::prove_wcert: inputs violate the WCert statement");
  }
  return *proof;
}

Digest LatusProofSystem::ownership_message(const Address& receiver,
                                           const Digest& nullifier) {
  return crypto::Hasher(crypto::Domain::kSignature)
      .write_str("latus-withdrawal")
      .write(receiver)
      .write(nullifier)
      .finalize();
}

snark::Proof LatusProofSystem::prove_btr(const OwnershipWitness& w,
                                         const Address& receiver) const {
  Statement st = mainchain::btr_statement(
      w.cert_block_header.hash(), w.utxo.nullifier(), receiver, w.utxo.amount,
      merkle::merkle_root(encode_utxo_proofdata(w.utxo)));
  auto proof =
      PredicateSnark::prove(btr_pk_, st, OwnershipProverInput{w, receiver});
  if (!proof) {
    throw std::invalid_argument(
        "LatusProofSystem::prove_btr: witness violates the BTR statement");
  }
  return *proof;
}

snark::Proof LatusProofSystem::prove_csw(const OwnershipWitness& w,
                                         const Address& receiver) const {
  Statement st = mainchain::csw_statement(
      w.cert_block_header.hash(), w.utxo.nullifier(), receiver, w.utxo.amount,
      merkle::merkle_root({}));
  auto proof =
      PredicateSnark::prove(csw_pk_, st, CswProverInput{w, receiver, {}});
  if (!proof) {
    throw std::invalid_argument(
        "LatusProofSystem::prove_csw: witness violates the CSW statement");
  }
  return *proof;
}

snark::Proof LatusProofSystem::prove_csw_historical(
    const HistoricalOwnershipWitness& w, const Address& receiver) const {
  if (w.links.empty()) {
    throw std::invalid_argument(
        "LatusProofSystem::prove_csw_historical: no delta links (use "
        "prove_csw)");
  }
  Statement st = mainchain::csw_statement(
      w.links.back().header.hash(), w.base.utxo.nullifier(), receiver,
      w.base.utxo.amount, merkle::merkle_root({}));
  auto proof = PredicateSnark::prove(
      csw_pk_, st, CswProverInput{w.base, receiver, w.links});
  if (!proof) {
    throw std::invalid_argument(
        "LatusProofSystem::prove_csw_historical: witness violates the "
        "Appendix-A CSW statement");
  }
  return *proof;
}

}  // namespace zendoo::latus
