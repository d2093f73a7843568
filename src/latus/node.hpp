// The Latus sidechain node (paper §5).
//
// A LatusNode observes the mainchain block by block (building the
// MCBlockReferences of §5.5.1), forges sidechain blocks under the
// Ouroboros-style schedule of §5.1, maintains the MST state of §5.2,
// accumulates recursive transition proofs across each withdrawal epoch
// (§5.4), and emits withdrawal certificates (§5.5.3.1) plus user-requested
// BTR/CSW proofs (§5.5.3.2/.3).
//
// It forges through latus/validation.hpp's block rules, the ones a
// ScValidator checks.
//
// The node plays all forger roles of the (simulated) sidechain network:
// register stakeholder keys with add_forger() and the node signs each
// block with whichever key the slot-leader schedule selects.
#pragma once

#include <deque>
#include <memory>

#include "latus/validation.hpp"
#include "obs/metrics.hpp"

namespace zendoo::latus {

class LatusNode {
 public:
  /// MC reorg handling (§5.1 "Mainchain forks resolution"): the node
  /// checkpoints itself once at construction (the base checkpoint, which
  /// has observed nothing) and every kCheckpointInterval observed MC
  /// blocks (a ring of kMaxCheckpoints that never evicts the base), so a
  /// rollback to any fork point restores the newest covering checkpoint
  /// and the caller replays only the MC blocks after it. The node object
  /// and what it keeps across checkpoints, its forger keys, survive
  /// every reorg.
  ///
  /// A checkpoint is an undo record, not a copy of the node. The node's
  /// data splits in two:
  ///  - append-only logs: the SC chain, the observed certificates, the
  ///    MC hash index and the certificate archive. A checkpoint records
  ///    their lengths, and a rollback truncates them. A retained
  ///    checkpoint's logs are always prefixes of the live ones: the logs
  ///    only append between rollbacks, and a rollback discards every
  ///    newer checkpoint.
  ///  - the mutable part (Mutable below): the state, the queued MC
  ///    references, the mempools, the epoch accumulator and the
  ///    slot-leader cache. A checkpoint copies it. Its transition
  ///    witnesses and pending epoch snapshots are shared, immutable
  ///    objects, so the copy costs one pointer each; the state's MST
  ///    nodes, which hold its UTXOs, are shared too, so only its BT list
  ///    and dense mst_delta are duplicated.
  /// So a checkpoint costs the state plus a pointer per open transition
  /// step, however long the history (the "sc.checkpoint_bytes" gauge).
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
  [[nodiscard]] const LatusState& state() const { return live_.state; }
  [[nodiscard]] const std::vector<ScBlock>& chain() const { return chain_; }
  [[nodiscard]] std::uint64_t height() const { return chain_.size(); }
  [[nodiscard]] bool has_pending_refs() const {
    return !live_.pending_refs.empty();
  }
  /// Completed epochs whose certificate can still be built and accepted:
  /// a snapshot leaves once the node observes an MC block at or past its
  /// epoch's cert_window_end (Def 4.2), or one carrying a certificate for
  /// its epoch of at least its quality, which ours could not replace
  /// (§4.1.2).
  [[nodiscard]] std::size_t pending_certificates() const {
    return live_.pending_certs.size();
  }

  /// Register a stakeholder/forger key.
  void add_forger(const crypto::KeyPair& key);

  /// SC mempool.
  void submit_payment(PaymentTx tx) {
    live_.mempool_payments.push_back(std::move(tx));
  }
  void submit_backward_transfer(BackwardTransferTx tx) {
    live_.mempool_bts.push_back(std::move(tx));
  }

  /// Feed the next MC block of the active chain (in height order). Builds
  /// the MC block reference with the appropriate commitment proof and the
  /// synced FTTx/BTRTx. Returns "" or a diagnostic.
  [[nodiscard]] std::string observe_mc_block(const mainchain::Block& block);

  /// Forge one sidechain block: consumes queued MC references (stopping at
  /// a withdrawal-epoch boundary, §5.1.1) and, when not at a boundary, the
  /// mempool. Invalid mempool transactions are dropped; the references were
  /// verified when observed. Returns "" or a diagnostic.
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
    return live_.last_mc_height;
  }
  /// Hash of the MC block this node observed at `h`, if it observed one.
  [[nodiscard]] std::optional<Digest> observed_mc_hash(
      std::uint64_t h) const;

  /// Rolls the node back to the newest checkpoint whose last observed MC
  /// height is <= mc_height (the fork point of a reorg); the base
  /// checkpoint covers every fork point. Returns the last observed MC
  /// height after the restore — the caller replays the new active branch
  /// from the block after it — or nullopt when the node has observed
  /// nothing any more (the base checkpoint was restored).
  [[nodiscard]] std::optional<std::uint64_t> rollback_to_mc_ancestor(
      std::uint64_t mc_height);

  // ---- Observability ----
  //
  // "sc." gauges (all kStable), refreshed by every call that changes
  // them: sc.checkpoints (the base included), sc.checkpoint_bytes (each
  // checkpoint's size plus its Mutable::dynamic_usage), sc.chain_blocks,
  // sc.cert_archive, sc.pending_certs and sc.mc_index. Copies of a node
  // share its registry, as Blockchain copies do.
  [[nodiscard]] obs::Registry& registry() { return *obs_; }
  [[nodiscard]] const obs::Registry& registry() const { return *obs_; }

 private:
  /// Everything needed to produce the certificate of one withdrawal epoch.
  /// Immutable once built: the pending deque and checkpoints share it.
  struct EpochSnapshot {
    std::uint64_t we_epoch = 0;
    std::uint64_t quality = 0;
    Digest sb_last_hash;
    Digest state_before, mst_root_before;
    Digest prev_epoch_last_mc, epoch_last_mc;
    std::vector<snark::TransitionStep> steps;
    /// State at the boundary. It holds the certificate's BT list, its
    /// state and MST root after the epoch and the full epoch delta (for
    /// Appendix-A proofs), and serves later BTR/CSW membership proofs.
    LatusState boundary_state;

    /// The certificate's statement inputs, all but the epoch proof.
    [[nodiscard]] WcertProofInput proof_input() const;
  };

  struct ObservedCert {
    mainchain::WithdrawalCertificate cert;
    mainchain::BlockHeader block_header;
    merkle::CommitmentMembershipProof mproof;
  };

  /// What a checkpoint copies: everything that is overwritten, not
  /// appended, as the node runs.
  struct Mutable {
    explicit Mutable(unsigned mst_depth) : state(mst_depth) {}

    /// Heap bytes a copy owns, from element counts times sizes (zen's
    /// DynamicMemoryUsage style), so the estimate is deterministic.
    [[nodiscard]] std::uint64_t dynamic_usage() const;

    LatusState state;
    std::deque<McBlockReference> pending_refs;
    std::vector<PaymentTx> mempool_payments;
    std::vector<BackwardTransferTx> mempool_bts;
    std::optional<std::uint64_t> last_mc_height;

    // Withdrawal-epoch accumulation (§5.4). Each step shares its witness
    // (make_transition_step).
    std::uint64_t current_we = 0;
    Digest epoch_start_commitment;
    Digest epoch_start_mst_root;
    std::vector<snark::TransitionStep> epoch_steps;
    std::deque<std::shared_ptr<const EpochSnapshot>> pending_certs;

    // Slot-leader cache (lazily refreshed; logically const). It was
    // filled from the state at the consensus epoch's first slot, so a
    // rollback restores it rather than refilling it from the restored
    // state, which could elect other slot leaders.
    mutable SlotLeaders leaders;
  };

  /// Lengths of the append-only logs.
  struct LogLengths {
    std::size_t chain = 0;
    std::size_t observed_certs = 0;
    std::size_t mc_hashes = 0;
    std::size_t cert_records = 0;
  };

  struct Checkpoint {
    LogLengths logs;
    Mutable live;
  };

  [[nodiscard]] OwnershipWitness make_ownership_witness(
      const Utxo& utxo, const crypto::KeyPair& owner,
      const Address& mc_receiver) const;
  [[nodiscard]] const crypto::KeyPair* forger_for(const Address& addr) const;
  /// Checkpoint the node every kCheckpointInterval MC heights once fully
  /// forged (no pending refs).
  void maybe_checkpoint();
  /// Archive `snap`'s boundary state as the record of the certificate
  /// `cert_hash`.
  void archive(const Digest& cert_hash, const EpochSnapshot& snap);
  void publish_gauges();

  mainchain::SidechainParams mc_params_;
  LatusProofSystem proofs_;
  std::uint64_t slots_per_epoch_;
  std::vector<crypto::KeyPair> forgers_;

  Mutable live_;

  // Append-only logs.
  std::vector<ScBlock> chain_;
  /// All observed certificates in MC order (Appendix-A link chain); the
  /// last one anchors BTR/CSW ownership proofs (H(B_w)).
  std::vector<ObservedCert> observed_history_;
  /// Hashes of the observed MC blocks, [0] at height mc_hash_base_: the
  /// first observed block's parent, then every observed block.
  std::uint64_t mc_hash_base_ = 0;
  std::vector<Digest> mc_hashes_;
  /// Certificate archive: each certificate's boundary state (for
  /// membership proofs; its delta serves Appendix-A proofs), keyed by
  /// certificate hash, and its keys in insertion order so a rollback can
  /// erase the newer records.
  std::unordered_map<Digest, LatusState, crypto::DigestHash> cert_states_;
  std::vector<Digest> cert_order_;

  /// Reorg checkpoints, oldest first: the base, then the periodic ones.
  /// Immutable, so copies of the node share them.
  std::vector<std::shared_ptr<const Checkpoint>> checkpoints_;

  std::shared_ptr<obs::Registry> obs_;
  obs::Gauge* m_checkpoints_ = nullptr;
  obs::Gauge* m_checkpoint_bytes_ = nullptr;
  obs::Gauge* m_chain_blocks_ = nullptr;
  obs::Gauge* m_cert_archive_ = nullptr;
  obs::Gauge* m_pending_certs_ = nullptr;
  obs::Gauge* m_mc_index_ = nullptr;
};

}  // namespace zendoo::latus
