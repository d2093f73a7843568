// The Latus sidechain node (paper §5).
//
// A LatusNode observes the mainchain block by block (building the
// MCBlockReferences of §5.5.1), forges sidechain blocks under the
// Ouroboros-style schedule of §5.1, maintains the MST state of §5.2,
// accumulates recursive transition proofs across each withdrawal epoch
// (§5.4), and emits withdrawal certificates (§5.5.3.1) plus user-requested
// BTR/CSW proofs (§5.5.3.2/.3).
//
// The node plays all forger roles of the (simulated) sidechain network:
// register stakeholder keys with add_forger() and the node signs each
// block with whichever key the slot-leader schedule selects.
#pragma once

#include <deque>
#include <memory>

#include "latus/consensus.hpp"
#include "latus/proofs.hpp"
#include "mainchain/params.hpp"

namespace zendoo::latus {

class LatusNode {
 public:
  /// MC reorg handling (§5.1 "Mainchain forks resolution"): the node
  /// checkpoints its full state every kCheckpointInterval observed MC
  /// blocks (bounded ring of kMaxCheckpoints), so a rollback to a fork
  /// point restores the newest covering checkpoint and replays only the
  /// MC blocks after it — instead of rebuilding from genesis.
  ///
  /// A checkpoint is a full LatusNode copy. Every LatusState in it (the
  /// live state, each pending transition step's witness pre-state, each
  /// epoch snapshot and archived certificate state) shares its MST nodes
  /// with the source, so the trees cost O(1) per copy. The copy still
  /// duplicates each state's UTXO map and dense mst_delta, the SC chain,
  /// the certificate archive map, the observed certificate history and
  /// the MC hash index, so its cost still grows with history.
  static constexpr std::uint64_t kCheckpointInterval = 8;
  static constexpr std::size_t kMaxCheckpoints = 16;
  LatusNode(const SidechainId& ledger_id, std::uint64_t start_block,
            std::uint64_t epoch_len, std::uint64_t submit_len,
            unsigned mst_depth = 12, std::uint64_t slots_per_epoch = 16);

  /// Parameters to register on the mainchain (§4.2), including the three
  /// verification keys of this sidechain's circuits.
  [[nodiscard]] const mainchain::SidechainParams& mc_params() const {
    return mc_params_;
  }
  [[nodiscard]] const LatusProofSystem& proofs() const { return proofs_; }
  [[nodiscard]] const LatusState& state() const { return state_; }
  [[nodiscard]] const std::vector<ScBlock>& chain() const { return chain_; }
  [[nodiscard]] std::uint64_t height() const { return chain_.size(); }
  [[nodiscard]] bool has_pending_refs() const {
    return !pending_refs_.empty();
  }
  [[nodiscard]] std::size_t pending_certificates() const {
    return pending_certs_.size();
  }

  /// Register a stakeholder/forger key.
  void add_forger(const crypto::KeyPair& key);

  /// SC mempool.
  void submit_payment(PaymentTx tx) { mempool_payments_.push_back(std::move(tx)); }
  void submit_backward_transfer(BackwardTransferTx tx) {
    mempool_bts_.push_back(std::move(tx));
  }

  /// Feed the next MC block of the active chain (in height order). Builds
  /// the MC block reference with the appropriate commitment proof and the
  /// synced FTTx/BTRTx. Returns "" or a diagnostic.
  [[nodiscard]] std::string observe_mc_block(const mainchain::Block& block);

  /// Forge one sidechain block: consumes queued MC references (stopping at
  /// a withdrawal-epoch boundary, §5.1.1) and, when not at a boundary, the
  /// mempool. Invalid mempool transactions are dropped. Returns "" or a
  /// diagnostic.
  [[nodiscard]] std::string forge_block();

  /// Forge blocks until every queued MC reference is consumed.
  [[nodiscard]] std::string forge_until_synced();

  /// Build the withdrawal certificate for the oldest completed withdrawal
  /// epoch (generating the full recursive epoch proof, Fig. 11), or
  /// nullopt when no epoch has completed. `stats` reports proof counts.
  [[nodiscard]] std::optional<mainchain::WithdrawalCertificate>
  build_certificate(snark::RecursionStats* stats = nullptr);

  /// Build a Backward Transfer Request for `utxo` (must be provable in the
  /// state committed by the last certificate this node saw accepted on the
  /// MC). Throws when no certificate has been observed yet.
  [[nodiscard]] mainchain::BtrRequest create_btr(
      const Utxo& utxo, const crypto::KeyPair& owner,
      const Address& mc_receiver) const;

  /// Build a Ceased Sidechain Withdrawal for `utxo` (same evidence chain,
  /// direct MC payment).
  [[nodiscard]] mainchain::CeasedSidechainWithdrawal create_csw(
      const Utxo& utxo, const crypto::KeyPair& owner,
      const Address& mc_receiver) const;

  /// Appendix-A CSW: proves `utxo` against the OLDEST observed certificate
  /// whose committed state contains it, chaining every later certificate's
  /// mst_delta to show the slot untouched since. Works even when the
  /// latest certificate's MST was never published (data availability
  /// attack). Throws if the coin is not provable this way.
  [[nodiscard]] mainchain::CeasedSidechainWithdrawal create_csw_historical(
      const Utxo& utxo, const crypto::KeyPair& owner,
      const Address& mc_receiver) const;

  /// Slot leader for the node's next block, for inspection/testing.
  [[nodiscard]] Address next_slot_leader() const;

  // ---- MC reorg support ----

  /// Height of the last MC block this node observed, if any.
  [[nodiscard]] std::optional<std::uint64_t> last_observed_mc_height() const {
    return last_mc_height_;
  }
  /// Hash of the MC block this node observed at `h`, if it observed one.
  [[nodiscard]] std::optional<Digest> observed_mc_hash(
      std::uint64_t h) const;

  /// Rolls the node back to the newest checkpoint whose last observed MC
  /// height is <= mc_height (the fork point of a reorg). Returns the
  /// restored observation height — the caller replays the new active
  /// branch from the block after it — or nullopt when no retained
  /// checkpoint is old enough (the node must be rebuilt from scratch).
  [[nodiscard]] std::optional<std::uint64_t> rollback_to_mc_ancestor(
      std::uint64_t mc_height);

 private:
  /// Everything needed to produce the certificate of one withdrawal epoch.
  struct EpochSnapshot {
    std::uint64_t we_epoch = 0;
    std::uint64_t quality = 0;
    Digest sb_last_hash;
    std::vector<mainchain::BackwardTransfer> bt_list;
    Digest state_before, state_after;
    Digest mst_root_before, mst_root_after;
    Digest delta_hash;
    Digest prev_epoch_last_mc, epoch_last_mc;
    std::vector<snark::TransitionStep> steps;
    /// State at the boundary, for later BTR/CSW membership proofs.
    /// Optional only because LatusState has no default construction.
    std::optional<LatusState> boundary_state;
    /// Full epoch delta (whose hash is delta_hash), for Appendix-A proofs.
    merkle::MstDelta delta;
  };

  struct ObservedCert {
    mainchain::WithdrawalCertificate cert;
    mainchain::BlockHeader block_header;
    merkle::CommitmentMembershipProof mproof;
  };

  [[nodiscard]] OwnershipWitness make_ownership_witness(
      const Utxo& utxo, const crypto::KeyPair& owner,
      const Address& mc_receiver) const;
  [[nodiscard]] const crypto::KeyPair* forger_for(const Address& addr) const;
  void refresh_consensus_epoch(std::uint64_t epoch) const;
  /// Snapshot the node every kCheckpointInterval MC heights once fully
  /// forged (no pending refs).
  void maybe_checkpoint();

  mainchain::SidechainParams mc_params_;
  LatusProofSystem proofs_;
  LatusState state_;
  std::uint64_t slots_per_epoch_;

  std::vector<crypto::KeyPair> forgers_;
  std::vector<ScBlock> chain_;
  std::deque<std::pair<McBlockReference, std::uint64_t>> pending_refs_;
  std::vector<PaymentTx> mempool_payments_;
  std::vector<BackwardTransferTx> mempool_bts_;

  // MC observation.
  std::optional<std::uint64_t> last_mc_height_;
  std::unordered_map<std::uint64_t, Digest> mc_hash_by_height_;

  // Withdrawal-epoch accumulation (§5.4).
  std::uint64_t current_we_ = 0;
  Digest epoch_start_commitment_;
  Digest epoch_start_mst_root_;
  std::vector<snark::TransitionStep> epoch_steps_;
  std::deque<EpochSnapshot> pending_certs_;
  /// Per-certificate archive (keyed by certificate hash): the boundary
  /// state for membership proofs and the epoch delta for Appendix-A
  /// proofs.
  struct CertRecord {
    LatusState state;
    merkle::MstDelta delta;
  };
  std::unordered_map<Digest, CertRecord, crypto::DigestHash> cert_states_;
  /// Latest observed certificate (H(B_w) anchor).
  std::optional<ObservedCert> observed_cert_;
  /// All observed certificates in MC order (Appendix-A link chain).
  std::vector<ObservedCert> observed_history_;

  /// Reorg checkpoints, oldest first: (last observed MC height, snapshot).
  /// Snapshots carry an empty checkpoint list of their own; copying a
  /// LatusNode only bumps shared_ptr refcounts here.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const LatusNode>>>
      checkpoints_;

  // Consensus-epoch cache (lazily refreshed; logically const).
  mutable std::uint64_t cached_consensus_epoch_ = ~0ULL;
  mutable StakeDistribution epoch_stake_;
  mutable Digest epoch_rand_;
};

}  // namespace zendoo::latus
