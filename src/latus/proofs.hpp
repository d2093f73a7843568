// Latus SNARK circuits (paper §5.4, §5.5.3).
//
// A LatusProofSystem serves one sidechain (one ledgerId); every node of
// that sidechain derives the same keys. It owns:
//
//  * the recursive state-transition system (§5.4): Base proofs for single
//    transactions, Merge proofs per block and per withdrawal epoch
//    (Figs. 10/11);
//  * the withdrawal-certificate circuit (§5.5.3.1): verifies the epoch
//    transition proof and binds it to the certificate's public inputs
//    (quality, BTList root, proofdata);
//  * the BTR and CSW ownership circuits (§5.5.3.2/.3): verify — entirely
//    inside the circuit — the chain MC-block-header → SCTxsCommitment →
//    withdrawal certificate → committed MST root → UTXO membership →
//    spending signature → nullifier.
//
// The verification keys are what the sidechain registers on the mainchain
// at creation (§4.2).
//
// The proof system also owns its node's crypto::SignatureMemo, and the
// base-transition circuit captures it at setup. Forging fills it, so the
// circuit's re-run of a forged payment verifies no signature again. A hit
// is sound for the reason latus/transactions.hpp gives: the memo holds
// only triples verify_signature accepted, keyed by all of their bytes, and
// the circuit recomputes each signing digest from the witnessed
// transaction. The memo never travels in a TransitionWitness or
// LatusState, so a prover cannot bring its own. Copies of the proof system
// (copies of a node) share the memo; each setup keeps its own circuit
// instance (see snark::ProvingKey), so two nodes never share one.
#pragma once

#include <deque>
#include <memory>

#include "latus/block.hpp"
#include "snark/recursive.hpp"

namespace zendoo::latus {

/// Witness of one basic state transition (Def 2.4): the full pre-state and
/// the transition. The checker re-executes `update` and compares digests.
struct TransitionWitness {
  LatusState before_state;
  TxVariant tx;
};

/// The recursive-proof step for `w`, in the form the transition circuit
/// reads: the step holds a std::shared_ptr<const TransitionWitness>, so
/// its copies (a node's checkpoints and epoch snapshots) share the
/// witness.
[[nodiscard]] snark::TransitionStep make_transition_step(
    const Digest& before, const Digest& after, TransitionWitness w);

/// Inputs for building a withdrawal-certificate proof.
struct WcertProofInput {
  /// Epoch transition proof from prove_chain/merge_spans; absent only for
  /// an epoch with no transitions at all.
  std::optional<snark::Proof> epoch_proof;
  Digest state_before;      ///< commitment at the start of the epoch
  Digest state_after;       ///< commitment after the epoch's last block
  Digest mst_root_before;   ///< MST root at epoch start
  Digest mst_root_after;    ///< MST root after the epoch (proofdata[1])
  Digest sb_last_hash;      ///< H(SB_last) (proofdata[0])
  Digest delta_hash;        ///< hash of the epoch's mst_delta (proofdata[2])
  std::uint64_t quality = 0;
  Digest bt_root;           ///< MH(BTList)
  Digest prev_epoch_last_mc;
  Digest epoch_last_mc;
};

/// Witness for BTR/CSW ownership proofs: everything needed to verify the
/// claimed UTXO against the last certificate committed on the mainchain.
struct OwnershipWitness {
  Utxo utxo;
  std::pair<crypto::u256, crypto::u256> pubkey;
  crypto::Signature sig;  ///< over ownership_message(receiver, nullifier)
  merkle::MerkleProof mst_proof;
  mainchain::WithdrawalCertificate cert;
  mainchain::BlockHeader cert_block_header;
  merkle::CommitmentMembershipProof cert_mproof;
};

/// One later certificate in a historical ownership proof (Appendix A):
/// the certificate, its MC anchoring, and the full mst_delta whose hash
/// the certificate's proofdata commits to.
struct DeltaLink {
  mainchain::WithdrawalCertificate cert;
  mainchain::BlockHeader header;
  merkle::CommitmentMembershipProof mproof;
  merkle::MstDelta delta;
};

/// Witness for the Appendix-A data-availability path: the UTXO is proven
/// against an OLD certificate's MST root, and every later certificate's
/// mst_delta shows the slot untouched. Certificate continuity is enforced
/// through the published mst_root_before/after chain in proofdata.
struct HistoricalOwnershipWitness {
  OwnershipWitness base;         ///< cert fields anchor the OLD certificate
  std::vector<DeltaLink> links;  ///< later certificates, oldest first;
                                 ///< the last one is the latest (H(B_w))
};

class LatusProofSystem {
 public:
  /// Latus fixes proofdata as
  /// [H(SB_last), mst_root_after, delta_hash, mst_root_before] (§5.5.3.1 —
  /// we additionally publish the epoch's starting MST root so observers can
  /// audit continuity across certificates).
  static constexpr std::uint64_t kWcertProofdataLen = 4;
  /// BTR proofdata carries the claimed UTXO (§5.5.3.2): [addr, amount,
  /// nonce].
  static constexpr std::uint64_t kBtrProofdataLen = 3;
  /// CSW needs no sidechain-defined proofdata.
  static constexpr std::uint64_t kCswProofdataLen = 0;

  LatusProofSystem(const SidechainId& ledger_id, unsigned mst_depth);

  /// The recursive transition system (Base/Merge of Def 2.5).
  [[nodiscard]] const snark::TransitionProofSystem& transitions() const {
    return transitions_;
  }

  /// This node's memo of verified spend signatures: LatusNode forges
  /// through it, and the transition circuit checks through it.
  [[nodiscard]] crypto::SignatureMemo& signature_memo() const {
    return *signature_memo_;
  }

  /// Verification keys to register on the mainchain (§4.2).
  [[nodiscard]] const snark::VerifyingKey& wcert_vk() const { return wcert_vk_; }
  [[nodiscard]] const snark::VerifyingKey& btr_vk() const { return btr_vk_; }
  [[nodiscard]] const snark::VerifyingKey& csw_vk() const { return csw_vk_; }

  /// Base proof for one transaction (Fig. 10 bottom level). Throws if the
  /// witness does not connect the states.
  [[nodiscard]] snark::Proof prove_transition(const Digest& before,
                                              const Digest& after,
                                              const TransitionWitness& w) const;

  /// Builds the certificate proof. Throws std::invalid_argument when the
  /// inputs do not satisfy the WCert SNARK statement.
  [[nodiscard]] snark::Proof prove_wcert(const WcertProofInput& in) const;

  /// Canonical proofdata for a certificate built from `in`.
  [[nodiscard]] static std::vector<Digest> wcert_proofdata(
      const WcertProofInput& in);

  /// Message a user signs to authorize a mainchain-managed withdrawal:
  /// binds the MC receiver and the nullifier.
  [[nodiscard]] static Digest ownership_message(const Address& receiver,
                                                const Digest& nullifier);

  /// BTR proof (§5.5.3.2). Statement fields are derived from the witness
  /// plus the MC-enforced H(B_w).
  [[nodiscard]] snark::Proof prove_btr(const OwnershipWitness& w,
                                       const Address& receiver) const;

  /// CSW proof (§5.5.3.3).
  [[nodiscard]] snark::Proof prove_csw(const OwnershipWitness& w,
                                       const Address& receiver) const;

  /// Appendix-A CSW: proves ownership against an old certificate when the
  /// MST behind the latest certificate was never published (data
  /// availability attack). The statement's H(B_w) anchors the LAST link.
  [[nodiscard]] snark::Proof prove_csw_historical(
      const HistoricalOwnershipWitness& w, const Address& receiver) const;

 private:
  SidechainId ledger_id_;
  unsigned mst_depth_;
  /// Declared before transitions_, whose circuit captures it.
  std::shared_ptr<crypto::SignatureMemo> signature_memo_;
  snark::TransitionProofSystem transitions_;
  snark::ProvingKey wcert_pk_;
  snark::VerifyingKey wcert_vk_;
  snark::ProvingKey btr_pk_;
  snark::VerifyingKey btr_vk_;
  snark::ProvingKey csw_pk_;
  snark::VerifyingKey csw_vk_;
};

}  // namespace zendoo::latus
