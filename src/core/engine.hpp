// zendoo::Engine — the top-level harness a downstream user programs
// against: one mainchain plus any number of Latus sidechains, wired
// through the cross-chain transfer protocol.
//
// Engine::step() advances the world by one MC block: it mines the pending
// mempool, lets every sidechain node observe the new block and forge the
// corresponding SC blocks, and queues any completed withdrawal
// certificates for inclusion in the next MC block — which lands them
// inside their submission window (§4.1.2).
#pragma once

#include <memory>

#include "latus/node.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::core {

using crypto::Digest;
using mainchain::SidechainId;

class Engine {
 public:
  Engine(mainchain::ChainParams params, const crypto::KeyPair& miner_key);

  [[nodiscard]] mainchain::Blockchain& mc() { return chain_; }
  [[nodiscard]] const mainchain::Blockchain& mc() const { return chain_; }
  [[nodiscard]] mainchain::Mempool& mempool() { return mempool_; }
  [[nodiscard]] mainchain::Wallet& miner_wallet() { return miner_wallet_; }

  /// Creates a Latus sidechain node, queues its registration transaction,
  /// and returns the node. `forgers` are the initial stakeholder keys the
  /// node will forge with.
  latus::LatusNode& add_latus_sidechain(
      const SidechainId& id, std::uint64_t start_block,
      std::uint64_t epoch_len, std::uint64_t submit_len,
      const std::vector<crypto::KeyPair>& forgers, unsigned mst_depth = 12,
      std::uint64_t slots_per_epoch = 16);

  [[nodiscard]] latus::LatusNode& sidechain(const SidechainId& id);

  /// Advance one MC block: mine the mempool, sync every sidechain, forge
  /// SC blocks, and queue freshly completed certificates. Throws on
  /// internal inconsistency (a bug, not a user error).
  mainchain::Block step();

  /// Submit a block produced elsewhere (received from a peer) to the
  /// mainchain. Whenever the active chain advances or switches branches
  /// — including via orphans the block unlocked — every sidechain is
  /// brought back in sync with the resulting active chain, so a gossip
  /// layer can feed blocks in any arrival order.
  mainchain::Blockchain::SubmitResult submit_external_block(
      const mainchain::Block& block);

  /// Advance `n` MC blocks.
  void run(std::uint64_t n);

  /// Queue a forward transfer from the miner wallet (§4.1.1); the Latus
  /// metadata convention is [receiverAddr, paybackAddr].
  /// Returns false when the wallet lacks funds.
  bool queue_forward_transfer(const SidechainId& id,
                              const mainchain::Address& sc_receiver,
                              const mainchain::Address& mc_payback,
                              mainchain::Amount amount);

  /// Enable/disable automatic certificate submission for a sidechain —
  /// disabling simulates a halted or censoring sidechain, the trigger for
  /// ceased-sidechain handling (Def 4.2) and CSWs.
  void set_auto_certificates(const SidechainId& id, bool enabled);

  /// Bring every sidechain node to the MC active tip: the one sync path,
  /// behind step() and submit_external_block() too, and the §5.1
  /// "mainchain forks resolution" behaviour. Each node rolls back to its
  /// newest checkpoint at or below the fork point between what it
  /// observed and the active chain (LatusNode::rollback_to_mc_ancestor;
  /// the base checkpoint covers any fork point), unwinding the SC blocks
  /// that referenced rolled-back MC blocks, then observes and forges every
  /// active block after what it still holds; a plain catch-up is the
  /// zero-depth case. At the tip, a node that certifies queues its
  /// completed epochs' certificates while its sidechain can take them.
  /// First, a queued certificate leaves the mempool once the active chain
  /// has finalized its epoch or holds one for it of at least its quality.
  /// A rollback costs the same however long the node's history; SC-local
  /// mempool content submitted after the restored checkpoint is dropped.
  void resync_sidechains_after_reorg();

 private:
  /// One sidechain node, never replaced: its own checkpoints and MC hash
  /// index are the only record of what it has synced.
  struct ScEntry {
    std::unique_ptr<latus::LatusNode> node;
    /// MC height when the node was added: it observes only later blocks.
    std::uint64_t added_at = 0;
    bool auto_certificates = true;
  };

  mainchain::Blockchain chain_;
  crypto::KeyPair miner_key_;
  mainchain::Wallet miner_wallet_;
  mainchain::Miner miner_;
  mainchain::Mempool mempool_;
  std::map<SidechainId, ScEntry> sidechains_;
};

}  // namespace zendoo::core
