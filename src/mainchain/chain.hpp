// Mainchain consensus: chain state, block validation, fork choice.
//
// ChainState is the deterministic state machine of Def 3.1's mainchain:
// UTXO set plus the per-sidechain CCTP state the paper defines in §4 —
// registration, safeguard balances (§4.1.2.2), withdrawal-epoch schedule
// and certificate quality selection (§4.1.2), ceased-sidechain detection
// (Def 4.2), nullifier tracking and BTR/CSW processing (§4.1.2.1).
//
// ChainState is the backing store of the view stack declared in view.hpp:
// connect_block validates into a CacheView overlay (no full-state copy),
// flushes it on success and emits a BlockUndo; disconnect_block rolls the
// tip back in O(delta) from that record. Blockchain layers Nakamoto fork
// choice on top: blocks form a tree, the branch with the greatest height
// (first-seen tiebreak) is active, and a reorg walks back to the fork
// point via undo data and connects only the new branch — the observable
// behaviour sidechains must cope with (§5.1 "Mainchain forks
// resolution"), bounded by ChainParams::max_reorg_depth.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mainchain/view.hpp"
#include "obs/trace.hpp"

namespace zendoo::mainchain {

/// The replayable mainchain state machine (backing store of the view
/// stack).
class ChainState final : public StateView {
 public:
  explicit ChainState(ChainParams params);

  /// Validates `block` against the current state and applies it.
  /// Returns an empty string on success, otherwise a diagnostic and the
  /// state is left unchanged (validation runs in a discardable overlay).
  /// When `undo` is non-null it receives the record disconnect_block
  /// needs to roll this block back.
  [[nodiscard]] std::string connect_block(const Block& block,
                                          BlockUndo* undo = nullptr);

  /// Rolls the tip block back using its undo record. Returns "" or a
  /// diagnostic (undo not matching the tip); the state is unchanged on
  /// error.
  [[nodiscard]] std::string disconnect_block(const BlockUndo& undo);

  /// Validation-only variant: same checks as connect_block, no mutation
  /// (runs in a discard-on-drop overlay).
  [[nodiscard]] std::string dry_run(const Block& block) const;

  // ---- StateView ----
  /// 0 before genesis is connected, like the genesis-only state.
  [[nodiscard]] std::uint64_t height() const override {
    return block_hashes_.empty() ? 0 : block_hashes_.size() - 1;
  }
  /// Zero digest before genesis is connected.
  [[nodiscard]] Digest tip_hash() const override {
    return block_hashes_.empty() ? Digest{} : block_hashes_.back();
  }
  [[nodiscard]] const TxOutput* find_utxo(const OutPoint& op) const override;
  [[nodiscard]] const SidechainStatus* find_sidechain(
      const SidechainId& id) const override;
  [[nodiscard]] bool nullifier_key_used(const Digest& key) const override;
  [[nodiscard]] Digest hash_at_height(std::uint64_t h) const override;
  [[nodiscard]] std::vector<SidechainId> sidechain_ids() const override;

  // ---- Queries ----
  [[nodiscard]] std::size_t utxo_count() const { return utxos_.size(); }

  /// Total value of UTXOs owned by `addr` (test/wallet convenience).
  [[nodiscard]] Amount balance_of(const Address& addr) const;
  /// All outpoints owned by `addr`.
  [[nodiscard]] std::vector<std::pair<OutPoint, TxOutput>> utxos_of(
      const Address& addr) const;

  /// Order-independent digest of the complete state (UTXO set, sidechain
  /// statuses, nullifiers, active chain). Two states with equal
  /// fingerprints are equal — the hook for differential reorg tests.
  [[nodiscard]] Digest state_fingerprint() const;

  /// The validation runtime (never null; copies of a ChainState share
  /// it) — exposed for stats introspection in tests and benchmarks.
  [[nodiscard]] const std::shared_ptr<parallel::ValidationContext>&
  validation_context() const {
    return vctx_;
  }

 private:
  /// Applies the dirty entries of a validated overlay plus the new tip.
  void flush(const CacheView& view, const Block& block);
  /// Builds the undo record for a validated overlay.
  [[nodiscard]] BlockUndo build_undo(const CacheView& view,
                                     const Block& block) const;

  ChainParams params_;
  std::unordered_map<OutPoint, TxOutput, OutPointHash> utxos_;
  std::map<SidechainId, SidechainStatus> sidechains_;
  /// Used nullifiers per sidechain (keyed by nullifier_key).
  std::unordered_set<Digest, crypto::DigestHash> nullifiers_;
  /// Active-chain block hash per height, [0] = genesis: the one record of
  /// height, tip and whether genesis is connected (empty until it is).
  std::vector<Digest> block_hashes_;
  /// Batch-verification runtime (worker pool + verified-check cache),
  /// created from params_.validation. Shared across ChainState copies —
  /// the pool serializes batches and the cache is content-addressed, so
  /// sharing is always sound.
  std::shared_ptr<parallel::ValidationContext> vctx_;
};

/// Outcome class of Blockchain::submit_block — the contract a gossip
/// layer programs against.
enum class SubmitCode {
  kAccepted,   ///< stored in the block tree (may or may not be active)
  kDuplicate,  ///< already known (tree or orphan pool); idempotent no-op
  kOrphaned,   ///< parent unknown; buffered until it arrives (or refused
               ///< retention when outside the pool bounds — redelivery
               ///< re-triggers this code, so callers backfill either way)
  kInvalid,    ///< failed validation and was rejected
};

/// Outcome class of Blockchain::submit_header — headers-first sync
/// accepts and connects headers ahead of block bodies.
enum class HeaderCode {
  kAccepted,      ///< entered the header tree (may advance the best header)
  kDuplicate,     ///< header (or its stored block) already known
  kDisconnected,  ///< parent header unknown; headers always arrive
                  ///< fork-point-first, so this is a protocol violation
                  ///< and the header is dropped, not buffered
  kInvalid,       ///< failed PoW / height validation
};

struct HeaderResult {
  HeaderCode code = HeaderCode::kInvalid;
  std::string error;  ///< non-empty iff code == kInvalid
  /// Suggested misbehavior penalty for the peer that relayed this header
  /// (zen's nDoS): non-zero only for outcomes no honest peer produces —
  /// PoW-invalid or malformed headers, out-of-order (disconnected)
  /// batches. The network layer decides whether and how to apply it.
  int dos = 0;
  [[nodiscard]] bool accepted() const { return code == HeaderCode::kAccepted; }
};

/// Block tree with Nakamoto fork choice.
class Blockchain {
 public:
  explicit Blockchain(ChainParams params);

  struct SubmitResult {
    SubmitCode code = SubmitCode::kInvalid;
    /// Block entered the tree (may or may not be active).
    [[nodiscard]] bool accepted() const {
      return code == SubmitCode::kAccepted;
    }
    bool reorged = false;    ///< fork choice switched branches
    std::string error;       ///< non-empty iff code == kInvalid
    /// Suggested misbehavior penalty for the relaying peer (zen's nDoS).
    /// Zero for rejections that are local policy rather than peer fault
    /// (e.g. a reorg deeper than max_reorg_depth).
    int dos = 0;
    std::uint64_t disconnected = 0;  ///< blocks rolled back by a reorg
    std::uint64_t connected = 0;     ///< blocks applied (1 on the fast path)
    /// Buffered orphans adopted into the tree because this block (or a
    /// block it unlocked) was their missing parent.
    std::uint64_t orphans_connected = 0;
  };

  /// Validate and store a block; extends the tree and may switch the
  /// active branch (longest chain, first-seen tiebreak). A branch switch
  /// disconnects back to the fork point via undo records and connects
  /// only the new branch — O(depth), not O(chain length). Overtaking
  /// branches forking deeper than max_reorg_depth are rejected.
  ///
  /// Gossip-friendly: resubmitting a known block is a kDuplicate no-op,
  /// and a block whose parent has not arrived yet is buffered in a
  /// bounded orphan pool (kOrphaned) and connected automatically once the
  /// parent does — out-of-order delivery is handled here, not by callers.
  SubmitResult submit_block(const Block& block);

  [[nodiscard]] const ChainState& state() const { return state_; }
  [[nodiscard]] std::uint64_t height() const { return state_.height(); }
  [[nodiscard]] Digest tip_hash() const { return state_.tip_hash(); }
  [[nodiscard]] const Block* find_block(const Digest& hash) const;
  [[nodiscard]] const Block& genesis() const;
  [[nodiscard]] const ChainParams& params() const { return params_; }
  /// Active-chain block hash at `h`.
  [[nodiscard]] Digest hash_at_height(std::uint64_t h) const {
    return state_.hash_at_height(h);
  }

  // ---- Headers-first sync ----
  //
  // The header tree mirrors the block tree but holds PoW-checked headers
  // whose bodies have not arrived yet. The best-header branch (longest
  // valid header chain known, never shorter than the active chain) is
  // what a download scheduler walks to fetch bodies in parallel from
  // many peers; bodies connect through submit_block / the orphan pool as
  // they arrive in any order.

  /// Validates a header (PoW, height, parent connectivity) and stores it.
  /// Extends the best-header branch when it becomes the longest known.
  HeaderResult submit_header(const BlockHeader& header);
  /// Height of the best-header branch (>= height()).
  [[nodiscard]] std::uint64_t header_height() const {
    return header_chain_.size() - 1;
  }
  [[nodiscard]] Digest best_header_hash() const {
    return header_chain_.back();
  }
  /// Best-header-branch hash at `h` (zero when above the branch tip).
  [[nodiscard]] Digest header_hash_at(std::uint64_t h) const {
    return h < header_chain_.size() ? header_chain_[h] : Digest{};
  }
  /// Header by hash, whether body-less or from a stored block.
  [[nodiscard]] const BlockHeader* find_header(const Digest& hash) const;
  /// Locator over the best-header branch: dense near the tip, then
  /// exponentially spaced, genesis last. Built from headers rather than
  /// the active chain so a syncing node never re-fetches headers it
  /// already connected.
  [[nodiscard]] BlockLocator locator() const;
  /// Serves a getheaders request: headers following the highest locator
  /// hash found on the active chain (genesis if none match), oldest
  /// first, at most `max`. Served from the active chain because that is
  /// where this node can also serve the bodies.
  [[nodiscard]] std::vector<BlockHeader> headers_after(
      const BlockLocator& loc, std::size_t max) const;
  /// True when the full block for `hash` is held (block tree or orphan
  /// pool) — i.e. a download scheduler need not fetch it.
  [[nodiscard]] bool has_body(const Digest& hash) const {
    return blocks_.contains(hash) || orphans_.contains(hash);
  }
  /// Next `max` block hashes on the best-header branch whose bodies are
  /// missing, ascending height — the download frontier. Non-const: it
  /// advances a scan hint past permanently stored bodies (orphan-pool
  /// bodies can still be evicted, so they stay re-requestable).
  std::vector<Digest> next_missing_bodies(std::size_t max);

  // ---- Orphan pool introspection (tests, gossip backfill) ----
  [[nodiscard]] std::size_t orphan_count() const { return orphans_.size(); }
  [[nodiscard]] bool has_orphan(const Digest& hash) const {
    return orphans_.contains(hash);
  }

  // ---- Observability ----
  //
  // The registry lives behind a shared_ptr because a Blockchain is
  // copyable (bench fixtures copy a pre-built chain per measurement):
  // copies share one registry — the metric handles point
  // into registry-owned storage, so they stay valid and both copies
  // count into the same metrics. "mc." counters count state-machine
  // transitions (reorg rollback/redo work included), so they can exceed
  // SubmitResult aggregates; the genesis connect in the constructor is
  // not counted. "mc.connect_block_ns"/"mc.disconnect_block_ns" are
  // wall-clock (Determinism::kWallClock) and excluded from
  // deterministic exports.
  [[nodiscard]] obs::Registry& registry() { return *obs_; }
  [[nodiscard]] const obs::Registry& registry() const { return *obs_; }

 private:
  [[nodiscard]] bool on_active_chain(const Digest& hash) const;
  void push_undo(BlockUndo undo);
  /// Re-roots the best-header branch onto `tip` (strictly higher than
  /// the current best header).
  void set_best_header(const Digest& tip, std::uint64_t tip_height);
  /// Folds a freshly stored block's header into the header tree.
  void note_stored_block(const Digest& hash, const BlockHeader& header);
  /// Switches the active branch to the stored block `tip`. Expects `tip`
  /// to be strictly higher than the current tip.
  SubmitResult activate_branch(const Digest& tip);
  /// submit_block for a block whose parent is already in the tree.
  SubmitResult submit_attached(const Block& block);
  /// Adopts every orphan whose ancestry became complete when `parent`
  /// entered the tree, folding their effects into `agg`.
  void connect_orphans(const Digest& parent, SubmitResult& agg);
  /// Drops the orphan with this hash from pool and parent index.
  void erase_orphan(const Digest& hash);
  /// Creates the shared registry and resolves the metric handles.
  void init_metrics();
  /// Enforces the orphan height window and size bound (deterministic:
  /// farthest-from-tip first, larger hash breaking ties).
  void prune_orphans();

  ChainParams params_;
  /// The block tree (every branch), by own hash; a block's height is its
  /// header's.
  std::unordered_map<Digest, Block, crypto::DigestHash> blocks_;
  /// Blocks waiting for their parent, by own hash; bounded by
  /// ChainParams::max_orphan_blocks / orphan_height_window.
  std::unordered_map<Digest, Block, crypto::DigestHash> orphans_;
  /// Parent hash -> orphan hash index for O(1) adoption.
  std::unordered_multimap<Digest, Digest, crypto::DigestHash>
      orphan_children_;
  Digest genesis_hash_;
  /// Body-less validated headers by own hash (headers-first sync); a
  /// header whose body later arrives keeps its entry — find_header
  /// consults this and the block tree.
  std::unordered_map<Digest, BlockHeader, crypto::DigestHash> headers_;
  /// Best-header branch by height, [0] = genesis. Never shorter than the
  /// active chain; runs ahead of it while bodies download.
  std::vector<Digest> header_chain_;
  /// Scan hint for next_missing_bodies: lowest height whose body might
  /// be missing. Only advanced past block-tree bodies; reset to the fork
  /// height when the best-header branch re-roots.
  std::uint64_t first_missing_body_ = 1;
  ChainState state_;
  /// Undo records for the most recent active blocks, oldest first; the
  /// back rolls back the tip. Trimmed to max_reorg_depth entries —
  /// deeper records could never be consumed, since activate_branch
  /// rejects deeper reorgs.
  std::deque<BlockUndo> undo_stack_;

  /// Shared across copies (see the registry() comment). The raw
  /// pointers are hot-path handles into registry-owned metrics.
  std::shared_ptr<obs::Registry> obs_;
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_connected_ = nullptr;
  obs::Counter* m_disconnected_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_reorgs_ = nullptr;
  obs::Counter* m_orphans_buffered_ = nullptr;
  obs::Counter* m_orphans_connected_ = nullptr;
  obs::Counter* m_orphans_evicted_ = nullptr;
  obs::Counter* m_headers_accepted_ = nullptr;
  obs::Histogram* m_reorg_depth_ = nullptr;
  obs::Histogram* m_connect_ns_ = nullptr;     ///< wall clock
  obs::Histogram* m_disconnect_ns_ = nullptr;  ///< wall clock
  obs::Gauge* m_orphan_pool_ = nullptr;
  obs::Gauge* m_height_ = nullptr;
};

}  // namespace zendoo::mainchain
