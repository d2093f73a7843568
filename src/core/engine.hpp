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

  /// Re-sync every sidechain node with the (possibly reorged) MC active
  /// chain — the §5.1 "mainchain forks resolution" behaviour: SC blocks
  /// that referenced rolled-back MC blocks are unwound, and the sidechain
  /// re-syncs along the new branch. Each node is rolled back to its
  /// newest checkpoint at or below the fork point and replays only the
  /// blocks after it (LatusNode::rollback_to_mc_ancestor); nodes whose
  /// fork point undercuts every retained checkpoint are rebuilt from
  /// scratch. A rollback truncates the node's append-only logs and
  /// restores the small mutable part the checkpoint copied, so it costs
  /// the same however long the node's history. SC-local mempool content
  /// submitted after the restored checkpoint is dropped.
  void resync_sidechains_after_reorg();

 private:
  struct ScEntry {
    std::unique_ptr<latus::LatusNode> node;
    // Construction arguments, kept for reorg resync.
    std::uint64_t start_block, epoch_len, submit_len;
    unsigned mst_depth;
    std::uint64_t slots_per_epoch;
    std::vector<crypto::KeyPair> forgers;
    std::uint64_t synced_height = 0;  ///< last MC height fed to the node
    bool auto_certificates = true;
  };

  void sync_entry(ScEntry& entry, const mainchain::Block& block);

  mainchain::Blockchain chain_;
  crypto::KeyPair miner_key_;
  mainchain::Wallet miner_wallet_;
  mainchain::Miner miner_;
  mainchain::Mempool mempool_;
  std::map<SidechainId, ScEntry> sidechains_;
};

}  // namespace zendoo::core
