// Layered state views over the mainchain state machine.
//
// The paper's §5.1 makes mainchain reorgs an observable behaviour
// sidechains must handle, so connecting, dry-running and disconnecting
// blocks are all first-class operations. Instead of copying the whole
// state per block (copy-validate), block application goes through a
// view stack, following the CCoinsView layering of the reference
// implementation lineage:
//
//   * StateView       — read interface (UTXO, sidechain status, nullifier
//                       and active-chain lookups). ChainState implements
//                       it as the backing store.
//   * CacheView       — copy-on-write overlay and the only writable view:
//                       reads fall through to a const base, writes land
//                       in dirty-entry maps, so validation can never touch
//                       the backing store. connect flushes the overlay in
//                       one batch; dry_run drops it. Overlays nest: block
//                       assembly applies each candidate item into an
//                       overlay over the block's overlay and flushes it
//                       there only if it validates.
//
// Connecting a block also emits a BlockUndo record — the exact delta
// needed to roll the tip back in O(delta): spent outputs, created
// outpoints, prior per-sidechain status, added nullifiers. Fork choice
// walks back to the fork point via these records instead of replaying the
// chain from genesis.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mainchain/block.hpp"
#include "parallel/batch_verifier.hpp"

namespace zendoo::mainchain {

/// Live state of one registered sidechain as tracked by the mainchain.
struct SidechainStatus {
  SidechainParams params;
  std::uint64_t created_at_height = 0;
  /// Safeguard balance (§4.1.2.2): FTs credit, finalized WCerts and CSWs
  /// debit; never exceeded by withdrawals.
  Amount balance = 0;
  /// Permanently set when a certificate submission window elapses with no
  /// accepted certificate (Def 4.2).
  bool ceased = false;

  /// Best (highest-quality) certificate currently inside its submission
  /// window, if any, and the epoch it certifies.
  std::optional<WithdrawalCertificate> pending_cert;
  std::uint64_t pending_cert_epoch = 0;
  /// Hash of the MC block that contained the pending certificate.
  Digest pending_cert_block;

  /// Last epoch whose certificate was finalized (payouts created).
  std::optional<std::uint64_t> last_finalized_epoch;
  /// H(B_w): hash of the MC block containing the latest finalized
  /// certificate — the anchor of BTR/CSW statements (Def 4.5).
  Digest last_cert_block;
};

/// Domain-separated storage key of a (sidechain, nullifier) pair.
[[nodiscard]] Digest nullifier_key(const SidechainId& id,
                                   const Digest& nullifier);

/// Read interface over the mainchain state machine.
class StateView {
 public:
  virtual ~StateView() = default;

  [[nodiscard]] virtual const TxOutput* find_utxo(const OutPoint& op) const = 0;
  [[nodiscard]] virtual const SidechainStatus* find_sidechain(
      const SidechainId& id) const = 0;
  [[nodiscard]] virtual bool nullifier_key_used(const Digest& key) const = 0;
  /// Height of the connected tip.
  [[nodiscard]] virtual std::uint64_t height() const = 0;
  [[nodiscard]] virtual Digest tip_hash() const = 0;
  /// Active-chain block hash at `h` (zero digest above the tip).
  [[nodiscard]] virtual Digest hash_at_height(std::uint64_t h) const = 0;
  /// Ids of every registered sidechain, in SidechainId order.
  [[nodiscard]] virtual std::vector<SidechainId> sidechain_ids() const = 0;

  [[nodiscard]] bool nullifier_used(const SidechainId& id,
                                    const Digest& nullifier) const {
    return nullifier_key_used(nullifier_key(id, nullifier));
  }

  /// Epoch-boundary block hashes (H(B_{epoch-1,last}), H(B_{epoch,last}))
  /// used in wcert_sysdata; both heights must already exist.
  [[nodiscard]] std::pair<Digest, Digest> epoch_boundary_hashes(
      const SidechainParams& params, std::uint64_t epoch) const;
};

/// Copy-on-write overlay over a base view. Reads consult the dirty-entry
/// maps first and fall through to the base; writes only ever touch the
/// overlay. Dropping the overlay discards every change (dry_run);
/// ChainState::connect_block flushes it in one batch.
class CacheView final : public StateView {
 public:
  explicit CacheView(const StateView& base) : base_(base) {}

  // ---- StateView ----
  [[nodiscard]] const TxOutput* find_utxo(const OutPoint& op) const override;
  [[nodiscard]] const SidechainStatus* find_sidechain(
      const SidechainId& id) const override;
  [[nodiscard]] bool nullifier_key_used(const Digest& key) const override;
  [[nodiscard]] std::uint64_t height() const override { return base_.height(); }
  [[nodiscard]] Digest tip_hash() const override { return base_.tip_hash(); }
  [[nodiscard]] Digest hash_at_height(std::uint64_t h) const override {
    return base_.hash_at_height(h);
  }
  [[nodiscard]] std::vector<SidechainId> sidechain_ids() const override;

  // ---- Writes ----
  void add_utxo(const OutPoint& op, const TxOutput& out);
  void spend_utxo(const OutPoint& op);
  /// Mutable status entry for `id`, created empty when not yet registered.
  SidechainStatus& sidechain_for_update(const SidechainId& id);
  void add_nullifier_key(const Digest& key);
  void add_nullifier(const SidechainId& id, const Digest& nullifier) {
    add_nullifier_key(nullifier_key(id, nullifier));
  }

  // ---- Dirty-entry introspection (flush / undo construction) ----
  /// UTXO delta: value = new output, nullopt = spent.
  [[nodiscard]] const std::unordered_map<OutPoint, std::optional<TxOutput>,
                                         OutPointHash>&
  utxo_entries() const {
    return utxos_;
  }
  [[nodiscard]] const std::map<SidechainId, SidechainStatus>&
  sidechain_entries() const {
    return sidechains_;
  }
  [[nodiscard]] const std::unordered_set<Digest, crypto::DigestHash>&
  nullifier_entries() const {
    return nullifiers_;
  }

  /// Writes every dirty entry into `target` (usually the overlay this one
  /// was stacked on), which then reads as this overlay did.
  void flush_into(CacheView& target) const;

 private:
  const StateView& base_;
  std::unordered_map<OutPoint, std::optional<TxOutput>, OutPointHash> utxos_;
  std::map<SidechainId, SidechainStatus> sidechains_;
  std::unordered_set<Digest, crypto::DigestHash> nullifiers_;
};

/// Per-block undo record (the delta connect produced), enough to roll the
/// tip back in O(delta).
struct BlockUndo {
  Digest block_hash;        ///< block this record undoes
  std::uint64_t height = 0; ///< its height
  /// Outputs consumed by the block (restored on disconnect).
  std::vector<std::pair<OutPoint, TxOutput>> spent;
  /// Outpoints created by the block (erased on disconnect).
  std::vector<OutPoint> created;
  /// Prior status of every sidechain the block touched; nullopt when the
  /// sidechain was first registered in this block (erased on disconnect).
  std::vector<std::pair<SidechainId, std::optional<SidechainStatus>>>
      sidechains;
  /// Nullifier keys the block added (erased on disconnect).
  std::vector<Digest> nullifier_keys;
};

/// Validates `block` on top of `view` and applies its effects into the
/// view. Shared by connect_block (which flushes the overlay) and dry_run
/// (which discards it). Expects a non-genesis block; returns "" or a
/// diagnostic, in which case the overlay may hold partial writes and must
/// be discarded.
///
/// Expensive stateless checks (SNARK proofs, input signatures) are
/// collected into `batch` where they are met, and the whole batch is run
/// before this function returns. A collected check that fails is reported
/// in favour of any stateful failure it sequentially preceded, so the
/// diagnostic is the one checking each item in turn would give.
[[nodiscard]] std::string apply_block(CacheView& view,
                                      const ChainParams& params,
                                      const Block& block,
                                      parallel::BatchProofVerifier& batch);

// ---- Per-item rules ----
//
// The steps apply_block runs for a block at `new_height`, in its order.
// Miner::build_block applies mempool items through them one at a time.
// Each checks one item against `view` and, if it is valid, applies it; a
// diagnostic means `view` may hold partial writes. SNARK and signature
// checks are collected into `batch`, and the caller runs it.

/// Step 1: finalizes the certificate windows that close at `new_height`
/// and ceases each sidechain whose window closed without one (Def 4.2).
[[nodiscard]] std::string finalize_epochs(CacheView& view,
                                          std::uint64_t new_height);
/// Step 2: registers a sidechain.
[[nodiscard]] std::string apply_creation(CacheView& view,
                                         const SidechainParams& sc,
                                         std::uint64_t new_height);
/// Step 3: a regular (non-coinbase) transaction; adds its fee to `*fees`.
[[nodiscard]] std::string apply_transaction(
    CacheView& view, const Transaction& tx, Amount* fees,
    parallel::BatchProofVerifier& batch);
/// Step 5 (step 4 is the coinbase): a withdrawal certificate carried by
/// the block whose hash is `block_hash`, which becomes the sidechain's
/// H(B_w).
[[nodiscard]] std::string apply_certificate(
    CacheView& view, const WithdrawalCertificate& cert,
    std::uint64_t new_height, const Digest& block_hash,
    parallel::BatchProofVerifier& batch);
/// Step 6: a backward transfer request.
[[nodiscard]] std::string apply_btr(CacheView& view, const BtrRequest& btr,
                                    parallel::BatchProofVerifier& batch);
/// Step 7: a ceased sidechain withdrawal.
[[nodiscard]] std::string apply_csw(CacheView& view,
                                    const CeasedSidechainWithdrawal& csw,
                                    parallel::BatchProofVerifier& batch);

}  // namespace zendoo::mainchain
