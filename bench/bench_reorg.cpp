// Reorg cost: what a mainchain fork switch costs as a function of fork
// depth d and total chain length L (paper §5.1 "Mainchain forks
// resolution").
//
// The undo-based fork choice disconnects d blocks and connects d+1 — cost
// O(d), independent of L. A from-genesis replay (the pre-undo design)
// would instead scale with L; BM_ReorgVsChainLength makes the difference
// visible directly.
//
// A Latus node follows the same reorg by rolling back to its newest
// checkpoint at or below the fork point. A checkpoint records the lengths
// of the node's append-only logs and copies only its mutable part, so
// BM_SidechainCheckpointRollback is flat in the MC history the node has
// seen; a checkpoint that copied the whole node grew with it.
#include <map>
#include <memory>
#include <utility>

#include "bench_json.hpp"
#include "latus/node.hpp"
#include "mainchain/miner.hpp"

namespace {

using namespace zendoo;
using namespace zendoo::mainchain;

crypto::KeyPair key_of(const char* name) {
  return crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, name));
}

/// Hand-built empty block (coinbase only) on top of `prev` at `height`,
/// paying `addr` — the rival branch a reorg switches to.
Block make_rival_block(const Digest& prev, std::uint64_t height,
                       const Address& addr, const ChainParams& params) {
  Block b;
  b.header.prev_hash = prev;
  b.header.height = height;
  Transaction cb;
  cb.is_coinbase = true;
  cb.coinbase_height = height;
  cb.outputs.push_back(TxOutput{addr, params.block_subsidy});
  b.transactions.push_back(std::move(cb));
  b.header.tx_merkle_root = b.compute_tx_merkle_root();
  b.header.sc_txs_commitment = b.build_commitment_tree().root();
  Miner::solve_pow(b, params.pow_target);
  return b;
}

/// Chain of length `length` with a rival branch forking `depth` blocks
/// below the tip. All rival blocks except the overtaking one are already
/// submitted (stored side branch); submitting `trigger` switches branches.
struct ReorgSetup {
  Blockchain chain{ChainParams{}};
  Block trigger;

  ReorgSetup(std::uint64_t length, std::uint64_t depth) {
    auto miner_key = key_of("bench-reorg-miner");
    auto rival_key = key_of("bench-reorg-rival");
    Miner miner(chain, miner_key.address());
    miner.mine_empty(length);

    std::uint64_t fork_height = length - depth;
    Digest prev = chain.hash_at_height(fork_height);
    for (std::uint64_t h = fork_height + 1; h <= length; ++h) {
      Block b = make_rival_block(prev, h, rival_key.address(),
                                 chain.params());
      prev = b.hash();
      if (!chain.submit_block(b).accepted()) {
        throw std::logic_error("bench: rival block rejected");
      }
    }
    trigger = make_rival_block(prev, length + 1, rival_key.address(),
                               chain.params());
  }
};

/// Reorg cost at fixed depth as the chain grows: flat with undo-based fork
/// choice, linear in L with from-genesis replay.
void BM_ReorgVsChainLength(benchmark::State& state) {
  std::uint64_t length = static_cast<std::uint64_t>(state.range(0));
  ReorgSetup setup(length, /*depth=*/4);
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain chain = setup.chain;
    state.ResumeTiming();
    auto result = chain.submit_block(setup.trigger);
    if (!result.accepted() || !result.reorged) {
      throw std::logic_error("bench: reorg did not happen: " + result.error);
    }
    benchmark::DoNotOptimize(chain.height());
  }
}
BENCHMARK(BM_ReorgVsChainLength)->RangeMultiplier(2)->Range(32, 512);

/// Reorg cost vs fork depth at fixed chain length: O(d) disconnects +
/// connects.
void BM_ReorgVsDepth(benchmark::State& state) {
  std::uint64_t depth = static_cast<std::uint64_t>(state.range(0));
  ReorgSetup setup(/*length=*/256, depth);
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain chain = setup.chain;
    state.ResumeTiming();
    auto result = chain.submit_block(setup.trigger);
    if (!result.accepted() || !result.reorged) {
      throw std::logic_error("bench: reorg did not happen: " + result.error);
    }
    benchmark::DoNotOptimize(chain.height());
  }
}
BENCHMARK(BM_ReorgVsDepth)->RangeMultiplier(2)->Range(1, 128);

/// A Latus node that observed `length` MC blocks, with every withdrawal
/// certificate built and mined. Its state stays the same size: 32 coins
/// are funded first, then each block brings one forward transfer in, and a
/// backward transfer burns every coin above 32.
struct SidechainSetup {
  Blockchain chain{ChainParams{}};
  crypto::KeyPair user = key_of("bench-reorg-user");
  latus::LatusNode node{crypto::hash_str(crypto::Domain::kGeneric,
                                         "bench-reorg-sc"),
                        /*start_block=*/2, /*epoch_len=*/8,
                        /*submit_len=*/4, /*mst_depth=*/12,
                        /*slots_per_epoch=*/16};

  explicit SidechainSetup(std::uint64_t length) {
    auto miner_key = key_of("bench-reorg-miner");
    Miner miner(chain, miner_key.address());
    Wallet wallet(miner_key);
    node.add_forger(user);
    Mempool pool;
    pool.sidechain_creations.push_back(node.mc_params());
    std::size_t coins = 32;
    while (chain.height() < length) {
      Block block;
      if (!miner.mine_and_submit(pool, &block).accepted()) {
        throw std::logic_error("bench: sidechain block rejected");
      }
      pool.clear();
      pool.certificates = sync(block);
      pool.transactions.push_back(*wallet.forward_transfer_many(
          chain.state(), node.mc_params().ledger_id,
          std::vector<Wallet::FtSpec>(
              std::exchange(coins, 1),
              {{user.address(), user.address()}, 1'000})));
    }
  }

  /// Feeds `block` to the node, queues the node's burn for the next block
  /// and returns the certificates it completed.
  std::vector<WithdrawalCertificate> sync(const Block& block) {
    if (!node.observe_mc_block(block).empty() ||
        !node.forge_until_synced().empty()) {
      throw std::logic_error("bench: sidechain sync failed");
    }
    std::vector<WithdrawalCertificate> certs;
    while (auto cert = node.build_certificate()) {
      certs.push_back(std::move(*cert));
    }
    // An epoch's last SC block takes nothing from the mempool.
    const std::uint64_t next = block.header.height + 1;
    const auto& p = node.mc_params();
    auto owned = node.state().utxos_of(user.address());
    if (owned.size() > 32 && next != p.epoch_end(p.epoch_of(next))) {
      owned.resize(owned.size() - 32);
      Amount total = 0;
      for (const auto& coin : owned) total += coin.amount;
      node.submit_backward_transfer(latus::build_backward_transfer(
          owned, user, {{user.address(), total}}));
    }
    return certs;
  }
};

/// Rollback for a depth-4 MC reorg after `length` MC blocks of history.
/// After each rollback the node replays the same blocks, outside the
/// timer, back to where it was: a fresh copy of the node per iteration
/// would leave its memory cache-cold, and the rollback would time cache
/// misses that grow with the size of the copy.
void BM_SidechainCheckpointRollback(benchmark::State& state) {
  const std::uint64_t length = static_cast<std::uint64_t>(state.range(0));
  static std::map<std::uint64_t, std::unique_ptr<SidechainSetup>> setups;
  auto& setup = setups[length];
  if (!setup) setup = std::make_unique<SidechainSetup>(length);
  const std::uint64_t bytes =
      setup->node.registry().value("sc.checkpoint_bytes").value_or(0);
  for (auto _ : state) {
    auto restored = setup->node.rollback_to_mc_ancestor(length - 4);
    if (!restored) throw std::logic_error("bench: no covering checkpoint");
    benchmark::DoNotOptimize(restored);
    state.PauseTiming();
    for (std::uint64_t h = *restored + 1; h <= length; ++h) {
      (void)setup->sync(
          *setup->chain.find_block(setup->chain.hash_at_height(h)));
    }
    state.ResumeTiming();
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SidechainCheckpointRollback)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Iterations(500);

}  // namespace

ZENDOO_BENCH_MAIN("reorg");
