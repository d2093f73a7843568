// End-to-end CCTP tests: mainchain + Latus sidechain through zendoo::Engine
// (paper Figs. 6-8, 13, 14; §5.5 flows).
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "latus/validation.hpp"
#include "sim/workload.hpp"

namespace zendoo::core {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;
using latus::LatusNode;
using mainchain::Amount;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : miner_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "miner"))),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "sc-alice"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "sc-bob"))),
        engine_(mainchain::ChainParams{}, miner_key_) {}

  /// Standard small sidechain: starts at MC height 2, epochs of 4 blocks,
  /// 2-block submission window, forged by alice.
  LatusNode& standard_sidechain(const std::string& name) {
    sc_id_ = hash_str(Domain::kGeneric, name);
    LatusNode& node = engine_.add_latus_sidechain(
        sc_id_, /*start_block=*/2, /*epoch_len=*/4, /*submit_len=*/2,
        {alice_}, /*mst_depth=*/10, /*slots_per_epoch=*/8);
    return node;
  }

  /// Runs engine steps until MC height `h`.
  void run_to_height(std::uint64_t h) {
    while (engine_.mc().height() < h) engine_.step();
  }

  /// The paper's receiving-node role: a fresh ScValidator fed the node's
  /// whole chain accepts every block and ends on the node's state.
  static void expect_chain_validates(const LatusNode& node,
                                     const KeyPair& bootstrap_forger,
                                     std::uint64_t slots_per_epoch = 8) {
    latus::ScValidator validator(node.mc_params(), node.state().depth(),
                                 slots_per_epoch, bootstrap_forger.address());
    for (const latus::ScBlock& b : node.chain()) {
      ASSERT_EQ(validator.accept(b), "") << "SC height " << b.header.height;
    }
    EXPECT_EQ(validator.height(), node.height());
    EXPECT_EQ(validator.state().commitment(), node.state().commitment());
  }

  KeyPair miner_key_, alice_, bob_;
  Engine engine_;
  mainchain::SidechainId sc_id_;
};

TEST_F(EngineTest, SidechainRegisteredOnFirstBlock) {
  standard_sidechain("sc-reg");
  engine_.step();
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_NE(sc, nullptr);
  EXPECT_FALSE(sc->ceased);
}

TEST_F(EngineTest, ForwardTransferReachesSidechain) {
  LatusNode& node = standard_sidechain("sc-ft");
  engine_.step();  // registration; miner now has one subsidy
  ASSERT_TRUE(engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                             miner_key_.address(), 1'000'000));
  engine_.step();  // FT mined and synced
  EXPECT_EQ(node.state().balance_of(alice_.address()), 1'000'000u);
  EXPECT_EQ(engine_.mc().state().find_sidechain(sc_id_)->balance, 1'000'000u);
  // The SC chain referenced both MC blocks.
  EXPECT_GE(node.height(), 2u);
}

TEST_F(EngineTest, SidechainPaymentMovesCoins) {
  LatusNode& node = standard_sidechain("sc-pay");
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 1'000'000);
  engine_.step();
  auto coins = node.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  node.submit_payment(latus::build_payment(
      {coins[0]}, alice_,
      {{bob_.address(), 400'000}, {alice_.address(), 600'000}}));
  engine_.step();  // a forge happens during sync
  EXPECT_EQ(node.state().balance_of(bob_.address()), 400'000u);
  EXPECT_EQ(node.state().balance_of(alice_.address()), 600'000u);
}

TEST_F(EngineTest, RegularWithdrawalEndToEnd) {
  // Fig. 14 regular flow: FT in, BTTx on the SC, certificate to the MC,
  // payout at window close — with the real Latus recursive SNARK.
  LatusNode& node = standard_sidechain("sc-withdraw");
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 1'000'000);
  engine_.step();
  auto coins = node.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  // Alice burns her whole coin into two backward transfers (a BTTx has no
  // change outputs — every output is a BT, §5.3.3).
  node.submit_backward_transfer(latus::build_backward_transfer(
      {coins[0]}, alice_,
      {{alice_.address(), 700'000}, {bob_.address(), 300'000}}));
  run_to_height(5);  // epoch 0 = heights 2..5
  // Certificate gets mined at height 6 (window begin).
  run_to_height(6);
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_TRUE(sc->pending_cert.has_value());
  EXPECT_EQ(sc->pending_cert->epoch_id, 0u);
  // Window closes at height 8: payout.
  run_to_height(8);
  EXPECT_FALSE(engine_.mc().state().find_sidechain(sc_id_)->ceased);
  EXPECT_EQ(engine_.mc().state().balance_of(alice_.address()), 700'000u);
  EXPECT_EQ(engine_.mc().state().balance_of(bob_.address()), 300'000u);
  // Safeguard accounting: the whole transfer came back.
  EXPECT_EQ(engine_.mc().state().find_sidechain(sc_id_)->balance, 0u);
}

TEST_F(EngineTest, EmptyEpochsKeepHeartbeat) {
  // A sidechain with no activity still submits certificates (the paper's
  // "heartbeat") and never ceases.
  standard_sidechain("sc-heartbeat");
  run_to_height(15);  // several epochs
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_NE(sc, nullptr);
  EXPECT_FALSE(sc->ceased);
  EXPECT_TRUE(sc->last_finalized_epoch.has_value());
  EXPECT_GE(*sc->last_finalized_epoch, 1u);
}

TEST_F(EngineTest, FailedForwardTransferRefundsOnMainchain) {
  // §5.3.2: an FT with malformed receiver metadata spawns a refund BT that
  // returns the coins on the MC via the next certificate.
  standard_sidechain("sc-refund");
  engine_.step();
  // Hand-craft a malformed FT (single metadata entry).
  auto tx = engine_.miner_wallet().forward_transfer(
      engine_.mc().state(), sc_id_, {bob_.address()}, 123'456);
  ASSERT_TRUE(tx.has_value());
  engine_.mempool().transactions.push_back(std::move(*tx));
  run_to_height(8);  // epoch 0 done, cert finalized
  // Refund landed on bob's MC address.
  EXPECT_EQ(engine_.mc().state().balance_of(bob_.address()), 123'456u);
  EXPECT_EQ(engine_.mc().state().find_sidechain(sc_id_)->balance, 0u);
}

TEST_F(EngineTest, BtrRoundTrip) {
  // §5.5.3.2: BTR submitted on the MC, synced to the SC, fulfilled by the
  // next certificate.
  LatusNode& node = standard_sidechain("sc-btr");
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 500'000);
  run_to_height(6);  // epoch 0 cert submitted at height 6
  ASSERT_TRUE(engine_.mc()
                  .state()
                  .find_sidechain(sc_id_)
                  ->pending_cert.has_value());
  // Alice proves her UTXO against the committed state and requests a
  // withdrawal directly on the MC.
  auto coins = node.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  auto btr = node.create_btr(coins[0], alice_, alice_.address());
  engine_.mempool().btrs.push_back(btr);
  engine_.step();  // BTR mined (height 7), synced, consumed by the SC
  EXPECT_TRUE(
      engine_.mc().state().nullifier_used(sc_id_, btr.nullifier));
  // The SC consumed the UTXO when processing the BTRTx.
  EXPECT_EQ(node.state().balance_of(alice_.address()), 0u);
  // Epoch 1 ends at height 9; its cert pays the BTR at window close (12).
  run_to_height(12);
  EXPECT_EQ(engine_.mc().state().balance_of(alice_.address()), 500'000u);
}

TEST_F(EngineTest, CeasedSidechainAndCsw) {
  // §5.5.3.3: the sidechain stops certifying; the MC marks it ceased; a
  // stakeholder recovers coins with a CSW against the last committed state.
  LatusNode& node = standard_sidechain("sc-csw");
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 250'000);
  run_to_height(6);  // cert for epoch 0 submitted
  // The sidechain halts: no more certificates.
  engine_.set_auto_certificates(sc_id_, false);
  run_to_height(12);  // epoch 1's window (10..11) elapses empty
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_TRUE(sc->ceased);

  auto coins = node.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  auto csw = node.create_csw(coins[0], alice_, alice_.address());
  engine_.mempool().csws.push_back(csw);
  engine_.step();
  EXPECT_EQ(engine_.mc().state().balance_of(alice_.address()), 250'000u);
  EXPECT_EQ(engine_.mc().state().find_sidechain(sc_id_)->balance, 0u);

  // Replaying the same CSW is blocked by the nullifier.
  engine_.mempool().csws.push_back(csw);
  mainchain::Block b = engine_.step();
  EXPECT_TRUE(b.csws.empty());
}

TEST_F(EngineTest, CertificatesUseRealRecursiveProofs) {
  // The certificate must not verify under a different statement: tamper
  // with the quality and the MC rejects it.
  LatusNode& node = standard_sidechain("sc-tamper");
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 10'000);
  run_to_height(5);  // epoch 0 complete; cert queued in mempool
  // Tamper with the queued certificate.
  ASSERT_FALSE(engine_.mempool().certificates.empty());
  engine_.mempool().certificates[0].quality += 1;
  mainchain::Block b = engine_.step();
  EXPECT_TRUE(b.certificates.empty());  // dropped as invalid
  (void)node;
}

TEST_F(EngineTest, MultipleSidechainsRunAsynchronously) {
  // Fig. 3: epochs of different sidechains are not aligned.
  auto id_a = hash_str(Domain::kGeneric, "multi-A");
  auto id_b = hash_str(Domain::kGeneric, "multi-B");
  LatusNode& a = engine_.add_latus_sidechain(id_a, 2, 3, 1, {alice_}, 10, 8);
  LatusNode& b = engine_.add_latus_sidechain(id_b, 3, 5, 2, {bob_}, 10, 8);
  engine_.step();
  engine_.queue_forward_transfer(id_a, alice_.address(),
                                 miner_key_.address(), 111);
  engine_.step();  // separate blocks: each FT spends the freshest coinbase
  engine_.queue_forward_transfer(id_b, bob_.address(), miner_key_.address(),
                                 222);
  run_to_height(20);
  const auto* sca = engine_.mc().state().find_sidechain(id_a);
  const auto* scb = engine_.mc().state().find_sidechain(id_b);
  ASSERT_NE(sca, nullptr);
  ASSERT_NE(scb, nullptr);
  EXPECT_FALSE(sca->ceased);
  EXPECT_FALSE(scb->ceased);
  EXPECT_TRUE(sca->last_finalized_epoch.has_value());
  EXPECT_TRUE(scb->last_finalized_epoch.has_value());
  EXPECT_EQ(a.state().balance_of(alice_.address()), 111u);
  EXPECT_EQ(b.state().balance_of(bob_.address()), 222u);
}

TEST_F(EngineTest, WorkloadHelpersDriveTraffic) {
  LatusNode& node = standard_sidechain("sc-sim");
  engine_.step();
  auto users = sim::make_keys(4, 99);
  ASSERT_EQ(sim::fund_users(engine_, sc_id_, users, 10'000), 4u);
  engine_.step();
  crypto::Rng rng(7);
  std::size_t sent = sim::random_payment_round(node, users, rng);
  EXPECT_EQ(sent, 4u);
  engine_.step();
  // Supply on the SC is conserved.
  EXPECT_EQ(node.state().total_supply(), 40'000u);
}

TEST_F(EngineTest, ExternalValidatorAuditsWholeRun) {
  // An independent ScValidator (a node that did NOT forge anything)
  // re-validates every sidechain block of a busy multi-epoch run: leader
  // schedule, signatures, MC references and full state re-execution.
  LatusNode& node = standard_sidechain("sc-audit");
  engine_.step();
  auto users = sim::make_keys(4, 77);
  for (const auto& u : users) node.add_forger(u);
  sim::fund_users(engine_, sc_id_, users, 100'000);
  engine_.step();
  crypto::Rng rng(5);
  while (engine_.mc().height() < 14) {
    sim::random_payment_round(node, users, rng);
    engine_.step();
  }
  ASSERT_FALSE(engine_.mc().state().find_sidechain(sc_id_)->ceased);
  expect_chain_validates(node, alice_);
}

TEST_F(EngineTest, HistoricalCswAcrossEpochs) {
  // Appendix A: the coin was committed by the epoch-0 certificate; the
  // sidechain runs two more epochs (touching other slots), then ceases.
  // The historical CSW proves ownership against the OLD certificate plus
  // the later deltas — it never needs the latest MST.
  LatusNode& node = standard_sidechain("sc-hist");
  node.add_forger(bob_);  // bob will hold stake, so he may lead slots
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 111'000);
  engine_.step();
  // Other traffic in later epochs so the deltas are non-trivial: fund bob
  // and let him churn his own coin.
  engine_.queue_forward_transfer(sc_id_, bob_.address(),
                                 miner_key_.address(), 50'000);
  run_to_height(7);
  auto bob_coins = node.state().utxos_of(bob_.address());
  ASSERT_FALSE(bob_coins.empty());
  node.submit_payment(latus::build_payment({bob_coins[0]}, bob_,
                                           {{bob_.address(), 50'000}}));
  run_to_height(14);  // epochs 0,1,2 certified (windows at 6,10,14)
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_GE(*sc->last_finalized_epoch, 1u);

  // The sidechain halts and ceases.
  engine_.set_auto_certificates(sc_id_, false);
  run_to_height(20);
  ASSERT_TRUE(engine_.mc().state().find_sidechain(sc_id_)->ceased);

  // Alice's coin has been untouched since epoch 0: historical CSW.
  auto coins = node.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  auto csw = node.create_csw_historical(coins[0], alice_, alice_.address());
  engine_.mempool().csws.push_back(csw);
  mainchain::Block b = engine_.step();
  ASSERT_EQ(b.csws.size(), 1u);
  EXPECT_EQ(engine_.mc().state().balance_of(alice_.address()), 111'000u);

  // A coin that moved after its anchoring epoch is NOT provable this way
  // from the old state: bob's original coin was spent, and its slot's
  // delta bit is set, so proving throws.
  EXPECT_THROW(
      (void)node.create_csw_historical(bob_coins[0], bob_, bob_.address()),
      std::exception);
}

TEST_F(EngineTest, ReorgResyncFollowsActiveChain) {
  // §5.1 "Mainchain forks resolution": after an MC reorg the sidechain
  // must follow the new branch; FTs only on the abandoned branch vanish.
  LatusNode& node = standard_sidechain("sc-reorg");
  engine_.step();  // height 1: registration
  Digest fork_point = engine_.mc().tip_hash();
  std::uint64_t fork_height = engine_.mc().height();

  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 999);
  engine_.step();  // height 2 on branch A carries the FT
  EXPECT_EQ(node.state().balance_of(alice_.address()), 999u);

  // Build a longer empty branch B by hand.
  Digest prev = fork_point;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    mainchain::Block blk;
    blk.header.prev_hash = prev;
    blk.header.height = fork_height + i;
    mainchain::Transaction cb;
    cb.is_coinbase = true;
    cb.coinbase_height = blk.header.height;
    cb.outputs.push_back(mainchain::TxOutput{
        bob_.address(), engine_.mc().params().block_subsidy});
    blk.transactions.push_back(cb);
    blk.header.tx_merkle_root = blk.compute_tx_merkle_root();
    blk.header.sc_txs_commitment = blk.build_commitment_tree().root();
    mainchain::Miner::solve_pow(blk, engine_.mc().params().pow_target);
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
    prev = blk.hash();
  }
  ASSERT_EQ(engine_.mc().height(), fork_height + 2);

  engine_.resync_sidechains_after_reorg();
  latus::LatusNode& fresh = engine_.sidechain(sc_id_);
  // The FT was only on the abandoned branch: gone after the resync.
  EXPECT_EQ(fresh.state().balance_of(alice_.address()), 0u);
  expect_chain_validates(fresh, alice_);
}

/// Hand-built empty rival block for reorg tests.
mainchain::Block rival_block(const Engine& engine, const Digest& prev,
                             std::uint64_t height,
                             const mainchain::Address& addr) {
  mainchain::Block blk;
  blk.header.prev_hash = prev;
  blk.header.height = height;
  mainchain::Transaction cb;
  cb.is_coinbase = true;
  cb.coinbase_height = height;
  cb.outputs.push_back(
      mainchain::TxOutput{addr, engine.mc().params().block_subsidy});
  blk.transactions.push_back(std::move(cb));
  blk.header.tx_merkle_root = blk.compute_tx_merkle_root();
  blk.header.sc_txs_commitment = blk.build_commitment_tree().root();
  mainchain::Miner::solve_pow(blk, engine.mc().params().pow_target);
  return blk;
}

TEST_F(EngineTest, DeepReorgResyncRollsBackToCheckpoint) {
  // Fork above a node checkpoint (interval 8): the resync restores the
  // checkpoint and replays only from there instead of rebuilding the
  // node. Long epochs keep certificate/ceasing machinery out of the way.
  sc_id_ = hash_str(Domain::kGeneric, "sc-deep-reorg");
  LatusNode& node = engine_.add_latus_sidechain(
      sc_id_, /*start_block=*/2, /*epoch_len=*/40, /*submit_len=*/20,
      {alice_}, /*mst_depth=*/10, /*slots_per_epoch=*/8);
  LatusNode* node_before = &node;

  run_to_height(2);
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 700);
  run_to_height(10);  // FT at height 3; checkpoint taken at height 8
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 9'000);
  run_to_height(12);  // second FT at height 11 — orphaned by the reorg
  ASSERT_EQ(node.state().balance_of(alice_.address()), 9'700u);

  // Rival empty branch forking at height 10, overtaking at 13.
  Digest prev = engine_.mc().hash_at_height(10);
  for (std::uint64_t h = 11; h <= 13; ++h) {
    mainchain::Block blk = rival_block(engine_, prev, h, bob_.address());
    prev = blk.hash();
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
  }
  ASSERT_EQ(engine_.mc().height(), 13u);

  engine_.resync_sidechains_after_reorg();
  LatusNode& resynced = engine_.sidechain(sc_id_);
  // Checkpoint path: the node object was rolled back in place, not
  // replaced.
  EXPECT_EQ(&resynced, node_before);
  EXPECT_EQ(resynced.last_observed_mc_height(),
            std::optional<std::uint64_t>(13));
  // FT at height 3 (shared prefix) survives; FT at height 11 is gone.
  EXPECT_EQ(resynced.state().balance_of(alice_.address()), 700u);
  EXPECT_EQ(engine_.mc().state().find_sidechain(sc_id_)->balance, 700u);

  // The rolled-back node equals one built from scratch on the new branch.
  LatusNode fresh(sc_id_, /*start_block=*/2, /*epoch_len=*/40,
                  /*submit_len=*/20, /*mst_depth=*/10, /*slots_per_epoch=*/8);
  fresh.add_forger(alice_);
  for (std::uint64_t h = 1; h <= 13; ++h) {
    const mainchain::Block* b =
        engine_.mc().find_block(engine_.mc().hash_at_height(h));
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(fresh.observe_mc_block(*b), "");
    ASSERT_EQ(fresh.forge_until_synced(), "");
  }
  EXPECT_EQ(resynced.state().commitment(), fresh.state().commitment());
  EXPECT_EQ(resynced.height(), fresh.height());
  ASSERT_FALSE(fresh.chain().empty());
  EXPECT_EQ(resynced.chain().back().hash(), fresh.chain().back().hash());
  expect_chain_validates(resynced, alice_);

  // The engine keeps running on the new branch.
  engine_.step();
  EXPECT_EQ(engine_.mc().height(), 14u);
}

TEST_F(EngineTest, ResyncHonoursDisabledAutoCertificates) {
  // A halted sidechain (auto certificates off, the Def 4.2 ceasing
  // scenario) must stay halted through a reorg resync: the replay loop
  // must not sneak its certificates back into the MC mempool.
  standard_sidechain("sc-halted");
  engine_.set_auto_certificates(sc_id_, false);
  run_to_height(6);  // epoch 0 (heights 2..5) completed, cert withheld
  ASSERT_TRUE(engine_.mempool().certificates.empty());

  Digest prev = engine_.mc().hash_at_height(5);
  for (std::uint64_t h = 6; h <= 7; ++h) {
    mainchain::Block blk = rival_block(engine_, prev, h, bob_.address());
    prev = blk.hash();
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
  }
  engine_.resync_sidechains_after_reorg();
  EXPECT_TRUE(engine_.mempool().certificates.empty());
  expect_chain_validates(engine_.sidechain(sc_id_), alice_);
}

TEST_F(EngineTest, ReorgBelowOldestCheckpointRestoresBaseCheckpoint) {
  // Fork below every periodic checkpoint: resync restores the node's base
  // checkpoint, replays from the node's first MC block and still lands on
  // the correct state.
  sc_id_ = hash_str(Domain::kGeneric, "sc-rebuild");
  engine_.add_latus_sidechain(sc_id_, /*start_block=*/2, /*epoch_len=*/40,
                              /*submit_len=*/20, {alice_}, /*mst_depth=*/10,
                              /*slots_per_epoch=*/8);
  run_to_height(2);
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 700);
  run_to_height(6);  // FT at height 3; no checkpoint yet (first is at 8)

  // Rival branch forking at height 2 — below any checkpoint.
  Digest prev = engine_.mc().hash_at_height(2);
  for (std::uint64_t h = 3; h <= 7; ++h) {
    mainchain::Block blk = rival_block(engine_, prev, h, bob_.address());
    prev = blk.hash();
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
  }
  ASSERT_EQ(engine_.mc().height(), 7u);

  engine_.resync_sidechains_after_reorg();
  LatusNode& resynced = engine_.sidechain(sc_id_);
  EXPECT_EQ(resynced.last_observed_mc_height(),
            std::optional<std::uint64_t>(7));
  // The FT was above the fork: gone on the new branch.
  EXPECT_EQ(resynced.state().balance_of(alice_.address()), 0u);
  EXPECT_EQ(engine_.mc().state().find_sidechain(sc_id_)->balance, 0u);
  expect_chain_validates(resynced, alice_);
  engine_.step();
  EXPECT_EQ(engine_.mc().height(), 8u);
}

TEST_F(EngineTest, ForgerAddedAfterCreationSurvivesReorgBelowEveryCheckpoint) {
  // A key registered after creation belongs to the node, which a reorg
  // below every periodic checkpoint keeps. Two-slot consensus epochs soon
  // make bob, who holds all the stake, every slot's leader.
  sc_id_ = hash_str(Domain::kGeneric, "sc-late-forger");
  LatusNode& node = engine_.add_latus_sidechain(
      sc_id_, /*start_block=*/2, /*epoch_len=*/40, /*submit_len=*/20,
      {alice_}, /*mst_depth=*/10, /*slots_per_epoch=*/2);
  node.add_forger(bob_);
  engine_.step();
  ASSERT_TRUE(engine_.queue_forward_transfer(sc_id_, bob_.address(),
                                             miner_key_.address(), 5'000));
  run_to_height(6);  // FT at height 2; no periodic checkpoint yet

  Digest prev = engine_.mc().hash_at_height(3);
  for (std::uint64_t h = 4; h <= 7; ++h) {
    mainchain::Block blk = rival_block(engine_, prev, h, bob_.address());
    prev = blk.hash();
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
  }
  ASSERT_EQ(engine_.mc().height(), 7u);

  ASSERT_NO_THROW(engine_.resync_sidechains_after_reorg());
  EXPECT_EQ(&engine_.sidechain(sc_id_), &node);
  EXPECT_EQ(node.last_observed_mc_height(), std::optional<std::uint64_t>(7));
  EXPECT_EQ(node.state().balance_of(bob_.address()), 5'000u);
  expect_chain_validates(node, alice_, /*slots_per_epoch=*/2);
}

TEST_F(EngineTest, SidechainAddedLateObservesOnlyLaterBlocks) {
  // Engine b follows engine_'s first 5 blocks as a peer, then adds a
  // sidechain: the node stays b's, and it observes block 6 on.
  engine_.run(6);
  auto block_at = [&](std::uint64_t h) {
    return *engine_.mc().find_block(engine_.mc().hash_at_height(h));
  };
  Engine b(mainchain::ChainParams{}, bob_);
  for (std::uint64_t h = 1; h <= 5; ++h) {
    ASSERT_TRUE(b.submit_external_block(block_at(h)).accepted());
  }
  sc_id_ = hash_str(Domain::kGeneric, "sc-added-late");
  LatusNode& node = b.add_latus_sidechain(
      sc_id_, /*start_block=*/10, /*epoch_len=*/4, /*submit_len=*/2, {alice_},
      /*mst_depth=*/10, /*slots_per_epoch=*/8);
  ASSERT_TRUE(b.submit_external_block(block_at(6)).accepted());

  const LatusNode& synced = b.sidechain(sc_id_);
  EXPECT_EQ(&synced, &node);
  // Block 5, the first observed block's parent, and block 6.
  EXPECT_EQ(synced.registry().value("sc.mc_index"), 2u);
  EXPECT_EQ(synced.last_observed_mc_height(),
            std::optional<std::uint64_t>(6));
}

TEST_F(EngineTest, ResyncQueuesNoCertificateOfAFinalizedEpoch) {
  // Epoch 1 (heights 6..9) is certified at 10 and finalized at 12. A
  // reorg at 13 rolls the node back to checkpoint 8, so the replay passes
  // epoch 1's boundary and the block carrying its certificate again.
  LatusNode& node = standard_sidechain("sc-finalized");
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 10'000);
  run_to_height(14);  // FT at height 2; epoch 2's certificate mined at 14

  Digest prev = engine_.mc().hash_at_height(13);
  for (std::uint64_t h = 14; h <= 15; ++h) {
    mainchain::Block blk = rival_block(engine_, prev, h, bob_.address());
    prev = blk.hash();
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
  }
  ASSERT_EQ(engine_.mc().height(), 15u);

  engine_.resync_sidechains_after_reorg();
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_EQ(sc->last_finalized_epoch, std::optional<std::uint64_t>(1));
  for (const auto& cert : engine_.mempool().certificates) {
    EXPECT_GT(cert.epoch_id, 1u);
  }
  expect_chain_validates(node, alice_);
}

TEST_F(EngineTest, ResyncQueuesNoCertificateTheActiveChainCarries) {
  // 8-block epochs, 4-block windows: epoch 0 (heights 2..9) is certified
  // at 10, below a reorg at 11. Replaying from checkpoint 8, the node
  // passes epoch 0's boundary and then that certificate, which none of
  // its own could replace (§4.1.2).
  sc_id_ = hash_str(Domain::kGeneric, "sc-certified");
  LatusNode& node = engine_.add_latus_sidechain(
      sc_id_, /*start_block=*/2, /*epoch_len=*/8, /*submit_len=*/4, {alice_},
      /*mst_depth=*/10, /*slots_per_epoch=*/8);
  engine_.step();
  engine_.queue_forward_transfer(sc_id_, alice_.address(),
                                 miner_key_.address(), 10'000);
  run_to_height(12);  // FT at height 2
  const auto* sc = engine_.mc().state().find_sidechain(sc_id_);
  ASSERT_TRUE(sc->pending_cert.has_value());
  ASSERT_EQ(sc->pending_cert->epoch_id, 0u);

  Digest prev = engine_.mc().hash_at_height(11);
  for (std::uint64_t h = 12; h <= 13; ++h) {
    mainchain::Block blk = rival_block(engine_, prev, h, bob_.address());
    prev = blk.hash();
    auto result = engine_.mc().submit_block(blk);
    ASSERT_TRUE(result.accepted()) << result.error;
  }
  ASSERT_EQ(engine_.mc().height(), 13u);

  engine_.resync_sidechains_after_reorg();
  EXPECT_TRUE(engine_.mempool().certificates.empty());
  expect_chain_validates(node, alice_);

  // The node archived that certificate's boundary state while replaying,
  // so a BTR against it still proves and is mined.
  auto coins = node.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  engine_.mempool().btrs.push_back(
      node.create_btr(coins[0], alice_, alice_.address()));
  mainchain::Block next = engine_.step();
  EXPECT_EQ(next.btrs.size(), 1u);
}

TEST_F(EngineTest, PeerBlockCarryingACertificateClearsItFromTheMempool) {
  // Engine b runs the same sidechain as engine_ and only follows engine_'s
  // blocks. Epoch 0 (heights 2..5) completes at 5, so both queue its
  // certificate; engine_ mines its own at 6. Once b holds block 6, its
  // copy can never be mined (§4.1.2), so it leaves b's mempool.
  standard_sidechain("sc-peer-cert");
  Engine b(mainchain::ChainParams{}, bob_);
  b.add_latus_sidechain(sc_id_, /*start_block=*/2, /*epoch_len=*/4,
                        /*submit_len=*/2, {alice_}, /*mst_depth=*/10,
                        /*slots_per_epoch=*/8);
  for (std::uint64_t h = 1; h <= 5; ++h) {
    ASSERT_TRUE(b.submit_external_block(engine_.step()).accepted());
  }
  ASSERT_EQ(b.mempool().certificates.size(), 1u);

  mainchain::Block carrying = engine_.step();
  ASSERT_EQ(carrying.certificates.size(), 1u);
  EXPECT_EQ(carrying.certificates[0].hash(),
            b.mempool().certificates[0].hash());
  ASSERT_TRUE(b.submit_external_block(carrying).accepted());
  EXPECT_TRUE(b.mempool().certificates.empty());
  EXPECT_EQ(b.mc().tip_hash(), engine_.mc().tip_hash());
}

std::uint64_t gauge(Engine& engine, const mainchain::SidechainId& id,
                    const char* name) {
  return engine.sidechain(id).registry().value(name).value_or(0);
}

/// Long-run bound on sidechain reorg checkpoints: over thousands of MC
/// blocks, hundreds of withdrawal epochs and periodic reorgs, what a
/// node's checkpoints hold stays flat instead of growing with history,
/// and completed epochs never pile up as pending certificates.
TEST(CheckpointSoak, CheckpointBytesStayFlatOverThousandsOfBlocks) {
  constexpr std::uint64_t kBlocks = 2'000;
  constexpr std::uint64_t kReorgEvery = 250;
  constexpr std::uint64_t kReorgDepth = 3;

  const KeyPair miner =
      KeyPair::from_seed(hash_str(Domain::kGeneric, "soak-m"));
  const KeyPair rival =
      KeyPair::from_seed(hash_str(Domain::kGeneric, "soak-r"));
  Engine engine(mainchain::ChainParams{}, miner);
  const std::vector<KeyPair> users = sim::make_keys(4, 2026);
  // The live sidechain certifies every 6-block epoch (333 of them); its
  // window spans the next epoch, so a reorg never closes it. The other
  // withholds its certificates and ceases after its first window.
  const auto live = hash_str(Domain::kGeneric, "soak-live");
  const auto ceasing = hash_str(Domain::kGeneric, "soak-ceasing");
  engine.add_latus_sidechain(live, /*start_block=*/2, /*epoch_len=*/6,
                             /*submit_len=*/6, users, /*mst_depth=*/10,
                             /*slots_per_epoch=*/8);
  engine.add_latus_sidechain(ceasing, /*start_block=*/2, /*epoch_len=*/4,
                             /*submit_len=*/2, users, /*mst_depth=*/10,
                             /*slots_per_epoch=*/8);
  engine.set_auto_certificates(ceasing, false);
  engine.step();
  ASSERT_EQ(sim::fund_users(engine, ceasing, users, 50'000), users.size());
  engine.step();
  ASSERT_EQ(sim::fund_users(engine, live, users, 50'000), users.size());
  engine.step();

  std::vector<std::uint64_t> live_bytes, ceasing_bytes;
  auto sample = [&] {
    live_bytes.push_back(gauge(engine, live, "sc.checkpoint_bytes"));
    ceasing_bytes.push_back(gauge(engine, ceasing, "sc.checkpoint_bytes"));
    EXPECT_LE(gauge(engine, live, "sc.pending_certs"), 2u);
    EXPECT_LE(gauge(engine, ceasing, "sc.pending_certs"), 2u);
  };

  std::uint64_t reorgs = 0;
  while (engine.mc().height() < kBlocks) {
    // Stationary traffic: per block one FT in, one 1-in/1-out payment and
    // one BT out, rotating over the users.
    const std::uint64_t h = engine.mc().height();
    const KeyPair& to = users[h % 4];
    const KeyPair& payer = users[(h + 1) % 4];
    const KeyPair& burner = users[(h + 3) % 4];
    engine.queue_forward_transfer(live, to.address(), to.address(), 1'000);
    latus::LatusNode& node = engine.sidechain(live);
    if (auto coins = node.state().utxos_of(payer.address()); !coins.empty()) {
      node.submit_payment(latus::build_payment(
          {coins.front()}, payer,
          {{users[(h + 2) % 4].address(), coins.front().amount}}));
    }
    if (auto coins = node.state().utxos_of(burner.address()); !coins.empty()) {
      node.submit_backward_transfer(latus::build_backward_transfer(
          {coins.front()}, burner,
          {{burner.address(), coins.front().amount}}));
    }
    engine.step();
    sample();

    if (engine.mc().height() % kReorgEvery == 0) {
      // A rival branch forking kReorgDepth blocks below the tip overtakes
      // it by one block.
      const std::uint64_t tip = engine.mc().height();
      Digest prev = engine.mc().hash_at_height(tip - kReorgDepth);
      for (std::uint64_t r = tip - kReorgDepth + 1; r <= tip + 1; ++r) {
        mainchain::Block blk = rival_block(engine, prev, r, rival.address());
        prev = blk.hash();
        ASSERT_TRUE(engine.submit_external_block(blk).accepted());
      }
      ASSERT_EQ(engine.mc().tip_hash(), prev);
      ++reorgs;
      sample();
    }
  }
  EXPECT_EQ(reorgs, kBlocks / kReorgEvery);
  const auto* sc = engine.mc().state().find_sidechain(live);
  ASSERT_NE(sc, nullptr);
  EXPECT_FALSE(sc->ceased);
  EXPECT_GE(*sc->last_finalized_epoch, 300u);
  EXPECT_TRUE(engine.mc().state().find_sidechain(ceasing)->ceased);
  EXPECT_GT(engine.sidechain(live).state().mst().occupied_count(), 0u);

  // The checkpoints' footprint over the last quarter stays within 1.25x of
  // the second quarter's.
  for (const auto* bytes : {&live_bytes, &ceasing_bytes}) {
    const std::size_t q = bytes->size() / 4;
    const std::uint64_t second =
        *std::max_element(bytes->begin() + static_cast<std::ptrdiff_t>(q),
                          bytes->begin() + static_cast<std::ptrdiff_t>(2 * q));
    const std::uint64_t last =
        *std::max_element(bytes->end() - static_cast<std::ptrdiff_t>(q),
                          bytes->end());
    EXPECT_GT(second, 0u);
    EXPECT_LE(static_cast<double>(last), 1.25 * static_cast<double>(second))
        << "second quarter " << second << ", last quarter " << last;
  }
}

}  // namespace
}  // namespace zendoo::core
