// Mainchain consensus + CCTP mainchain-side tests (paper §4).
#include "mainchain/chain.hpp"

#include <gtest/gtest.h>

#include "mainchain/miner.hpp"

namespace zendoo::mainchain {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;

/// Test fixture with a chain, a funded miner wallet, and a simple
/// "authority" SNARK setup for sidechain postings: the circuit accepts any
/// statement when the witness is the authority passphrase (a stand-in for
/// "certificate signed by an authorized entity", §1 intro / [5]).
class MainchainTest : public ::testing::Test {
 protected:
  MainchainTest()
      : chain_(ChainParams{}),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "bob"))),
        wallet_(alice_),
        miner_(chain_, alice_.address()) {
    auto circuit = [](const snark::Statement&, const snark::Witness& w) {
      const auto* pass = std::any_cast<std::string>(&w);
      return pass != nullptr && *pass == "authority";
    };
    auto [pk, vk] = snark::PredicateSnark::setup(circuit, "mc-test-authority");
    pk_ = pk;
    vk_ = vk;
  }

  /// Registered sidechain params with all three keys set to the test vk.
  SidechainParams make_sc_params(std::uint64_t start, std::uint64_t epoch_len,
                                 std::uint64_t submit_len,
                                 const std::string& name) {
    SidechainParams p;
    p.ledger_id = hash_str(Domain::kGeneric, name);
    p.start_block = start;
    p.epoch_len = epoch_len;
    p.submit_len = submit_len;
    p.wcert_vk = vk_;
    p.btr_vk = vk_;
    p.csw_vk = vk_;
    return p;
  }

  /// Hand-build a mined empty block on an arbitrary parent (for rival
  /// branches and out-of-order submission, independent of the miner's
  /// tip-following assembly).
  Block make_block_on(const Digest& prev, std::uint64_t height,
                      const Address& payee, std::uint64_t salt = 0) {
    Block b;
    b.header.prev_hash = prev;
    b.header.height = height;
    Transaction cb;
    cb.is_coinbase = true;
    cb.coinbase_height = height;
    cb.outputs.push_back(TxOutput{payee, chain_.params().block_subsidy});
    if (salt != 0) {  // vary the coinbase so sibling blocks differ
      cb.outputs.push_back(
          TxOutput{crypto::Hasher(Domain::kGeneric).write_u64(salt).finalize(),
                   0});
    }
    b.transactions.push_back(cb);
    b.header.tx_merkle_root = b.compute_tx_merkle_root();
    b.header.sc_txs_commitment = b.build_commitment_tree().root();
    Miner::solve_pow(b, chain_.params().pow_target);
    return b;
  }

  /// Mine a block containing exactly the given pool (throws on rejection).
  Block mine(const Mempool& pool) {
    Block out;
    auto result = miner_.mine_and_submit(pool, &out);
    if (!result.accepted()) throw std::logic_error(result.error);
    return out;
  }

  /// Registers the sidechain and mines past its start height.
  void register_and_start(const SidechainParams& p) {
    Mempool pool;
    pool.sidechain_creations.push_back(p);
    mine(pool);
    while (chain_.height() < p.start_block) miner_.mine_empty(1);
  }

  /// Build an authority-signed certificate for `epoch`.
  WithdrawalCertificate make_cert(const SidechainParams& p,
                                  std::uint64_t epoch, std::uint64_t quality,
                                  std::vector<BackwardTransfer> bts) {
    WithdrawalCertificate cert;
    cert.ledger_id = p.ledger_id;
    cert.epoch_id = epoch;
    cert.quality = quality;
    cert.bt_list = std::move(bts);
    auto [prev_last, last] = chain_.state().epoch_boundary_hashes(p, epoch);
    auto st = wcert_statement_for(cert, prev_last, last);
    cert.proof =
        *snark::PredicateSnark::prove(pk_, st, std::string("authority"));
    return cert;
  }

  Blockchain chain_;
  KeyPair alice_, bob_;
  Wallet wallet_;
  Miner miner_;
  snark::ProvingKey pk_;
  snark::VerifyingKey vk_;
};

// ---- Basic chain & payments ----

TEST_F(MainchainTest, GenesisIsConnected) {
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_EQ(chain_.genesis().header.height, 0u);
  EXPECT_EQ(chain_.hash_at_height(0), chain_.genesis().hash());
}

TEST_F(MainchainTest, MiningCreatesSpendableCoinbase) {
  miner_.mine_empty(1);
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_EQ(wallet_.balance(chain_.state()),
            chain_.params().block_subsidy);
}

TEST_F(MainchainTest, PaymentMovesCoins) {
  miner_.mine_empty(1);
  Mempool pool;
  pool.transactions.push_back(
      *wallet_.pay(chain_.state(), bob_.address(), 10'000'000));
  mine(pool);
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 10'000'000u);
  // alice: two subsidies minus payment.
  EXPECT_EQ(wallet_.balance(chain_.state()),
            2 * chain_.params().block_subsidy - 10'000'000);
}

TEST_F(MainchainTest, FeesGoToMiner) {
  miner_.mine_empty(1);
  Mempool pool;
  pool.transactions.push_back(
      *wallet_.pay(chain_.state(), bob_.address(), 1'000'000, /*fee=*/5'000));
  Block b = mine(pool);
  // The coinbase claims subsidy + fee.
  EXPECT_EQ(b.transactions[0].total_output(),
            chain_.params().block_subsidy + 5'000);
  // Alice pays the fee to herself (she mines), so her net is just -payment.
  EXPECT_EQ(wallet_.balance(chain_.state()),
            2 * chain_.params().block_subsidy - 1'000'000);
}

TEST_F(MainchainTest, FeesOfChainedSpendsGoToMiner) {
  miner_.mine_empty(1);
  // A pays bob; B spends A's output 0 (bob's coin) back to alice in the
  // same block. Both fees belong to the coinbase, or coins vanish.
  Transaction a =
      *wallet_.pay(chain_.state(), bob_.address(), 1'000'000, /*fee=*/5'000);
  Transaction b;
  b.inputs.push_back(TxInput{OutPoint{a.id(), 0}, {}, {}});
  b.outputs.push_back(TxOutput{alice_.address(), 1'000'000 - 7'000});
  b = sign_all_inputs(std::move(b), bob_);
  Mempool pool;
  pool.transactions = {a, b};
  Block block = mine(pool);
  ASSERT_EQ(block.transactions.size(), 3u);
  EXPECT_EQ(block.transactions[0].total_output(),
            chain_.params().block_subsidy + 12'000);
  EXPECT_EQ(chain_.state().balance_of(alice_.address()) +
                chain_.state().balance_of(bob_.address()),
            2 * chain_.params().block_subsidy);
}

TEST_F(MainchainTest, InsufficientFundsYieldsNoTransaction) {
  EXPECT_FALSE(wallet_.pay(chain_.state(), bob_.address(), 1).has_value());
}

TEST_F(MainchainTest, ForeignSignatureRejected) {
  miner_.mine_empty(1);
  // Bob attempts to spend alice's coinbase.
  auto coins = chain_.state().utxos_of(alice_.address());
  ASSERT_FALSE(coins.empty());
  Transaction tx;
  tx.inputs.push_back(TxInput{coins[0].first, {}, {}});
  tx.outputs.push_back(TxOutput{bob_.address(), coins[0].second.amount});
  tx = sign_all_inputs(std::move(tx), bob_);

  Block block = miner_.build_block({});
  block.transactions.push_back(tx);
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  block.header.sc_txs_commitment = block.build_commitment_tree().root();
  Miner::solve_pow(block, chain_.params().pow_target);
  auto result = chain_.submit_block(block);
  EXPECT_FALSE(result.accepted());
  EXPECT_NE(result.error.find("public key"), std::string::npos);
}

TEST_F(MainchainTest, DoubleSpendWithinBlockRejected) {
  miner_.mine_empty(1);
  Transaction tx1 = *wallet_.pay(chain_.state(), bob_.address(), 1000);
  Transaction tx2 = *wallet_.pay(chain_.state(), bob_.address(), 2000);
  // Both spend the same coinbase output.
  Block block = miner_.build_block({});
  block.transactions.push_back(tx1);
  block.transactions.push_back(tx2);
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  block.header.sc_txs_commitment = block.build_commitment_tree().root();
  Miner::solve_pow(block, chain_.params().pow_target);
  auto result = chain_.submit_block(block);
  EXPECT_FALSE(result.accepted());
}

TEST_F(MainchainTest, DuplicateInputWithinTransactionRejected) {
  miner_.mine_empty(1);
  // One coin listed twice as input, outputs claiming double its value:
  // the duplicate must be rejected, not counted twice (coin inflation).
  auto coins = chain_.state().utxos_of(alice_.address());
  ASSERT_FALSE(coins.empty());
  Transaction tx;
  tx.inputs.push_back(TxInput{coins[0].first, {}, {}});
  tx.inputs.push_back(TxInput{coins[0].first, {}, {}});
  tx.outputs.push_back(
      TxOutput{bob_.address(), 2 * coins[0].second.amount});
  tx = sign_all_inputs(std::move(tx), alice_);
  Block block = miner_.build_block({});
  block.transactions.push_back(tx);
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  block.header.sc_txs_commitment = block.build_commitment_tree().root();
  Miner::solve_pow(block, chain_.params().pow_target);
  auto result = chain_.submit_block(block);
  EXPECT_FALSE(result.accepted());
  EXPECT_NE(result.error.find("same output twice"), std::string::npos);
}

TEST_F(MainchainTest, MempoolDropsConflictingSecondSpend) {
  miner_.mine_empty(1);
  Mempool pool;
  pool.transactions.push_back(*wallet_.pay(chain_.state(), bob_.address(), 1000));
  pool.transactions.push_back(*wallet_.pay(chain_.state(), bob_.address(), 2000));
  Block b = mine(pool);  // builder keeps only the first
  EXPECT_EQ(b.transactions.size(), 2u);
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 1000u);
}

TEST_F(MainchainTest, OverspendRejected) {
  miner_.mine_empty(1);
  auto coins = chain_.state().utxos_of(alice_.address());
  Transaction tx;
  tx.inputs.push_back(TxInput{coins[0].first, {}, {}});
  tx.outputs.push_back(
      TxOutput{bob_.address(), coins[0].second.amount + 1});
  tx = sign_all_inputs(std::move(tx), alice_);
  Block block = miner_.build_block({});
  block.transactions.push_back(tx);
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  block.header.sc_txs_commitment = block.build_commitment_tree().root();
  Miner::solve_pow(block, chain_.params().pow_target);
  EXPECT_FALSE(chain_.submit_block(block).accepted());
}

TEST_F(MainchainTest, PowRequired) {
  Block block = miner_.build_block({});
  // Deliberately break the PoW by picking a nonce with a high hash.
  while (block.hash().as_u256() < chain_.params().pow_target) {
    ++block.header.nonce;
  }
  auto result = chain_.submit_block(block);
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.error, "insufficient proof of work");
}

TEST_F(MainchainTest, TamperedBodyRejected) {
  Block block = miner_.build_block({});
  block.transactions[0].outputs[0].amount += 1;  // body no longer matches root
  Miner::solve_pow(block, chain_.params().pow_target);
  auto result = chain_.submit_block(block);
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.error, "tx merkle root mismatch");
}

TEST_F(MainchainTest, ExcessiveCoinbaseRejected) {
  Block block = miner_.build_block({});
  block.transactions[0].outputs[0].amount =
      chain_.params().block_subsidy + 1;
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  Miner::solve_pow(block, chain_.params().pow_target);
  auto result = chain_.submit_block(block);
  EXPECT_FALSE(result.accepted());
  EXPECT_NE(result.error.find("coinbase"), std::string::npos);
}

// ---- Sidechain registration (§4.2) ----

TEST_F(MainchainTest, SidechainRegistration) {
  auto p = make_sc_params(5, 10, 4, "sc1");
  Mempool pool;
  pool.sidechain_creations.push_back(p);
  mine(pool);
  const SidechainStatus* sc = chain_.state().find_sidechain(p.ledger_id);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->balance, 0u);
  EXPECT_FALSE(sc->ceased);
}

TEST_F(MainchainTest, DuplicateSidechainIdRejected) {
  auto p = make_sc_params(5, 10, 4, "sc1");
  Mempool pool;
  pool.sidechain_creations.push_back(p);
  mine(pool);
  // Second registration with the same id gets dropped at assembly.
  Mempool pool2;
  pool2.sidechain_creations.push_back(p);
  Block b = mine(pool2);
  EXPECT_TRUE(b.sidechain_creations.empty());
}

TEST_F(MainchainTest, BadSidechainParamsDropped) {
  auto p = make_sc_params(5, 10, 11, "bad-window");  // submit_len > epoch_len
  Mempool pool;
  pool.sidechain_creations.push_back(p);
  Block b = mine(pool);
  EXPECT_TRUE(b.sidechain_creations.empty());
  auto p2 = make_sc_params(0, 10, 4, "past-start");  // start in the past
  Mempool pool2;
  pool2.sidechain_creations.push_back(p2);
  Block b2 = mine(pool2);
  EXPECT_TRUE(b2.sidechain_creations.empty());
}

// ---- Forward transfers (§4.1.1) ----

TEST_F(MainchainTest, ForwardTransferCreditsSidechainBalance) {
  auto p = make_sc_params(3, 10, 4, "sc-ft");
  register_and_start(p);
  miner_.mine_empty(1);  // fund alice further
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "recv")},
      7'000'000));
  mine(pool);
  EXPECT_EQ(chain_.state().find_sidechain(p.ledger_id)->balance, 7'000'000u);
}

TEST_F(MainchainTest, ForwardTransferToUnknownSidechainDropped) {
  miner_.mine_empty(1);
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), hash_str(Domain::kGeneric, "no-such-sc"),
      std::vector<Digest>{hash_str(Domain::kGeneric, "recv")}, 1000));
  Block b = mine(pool);
  EXPECT_EQ(b.transactions.size(), 1u);  // only coinbase
}

TEST_F(MainchainTest, ForwardTransferDestroysCoinsOnMainchain) {
  auto p = make_sc_params(3, 10, 4, "sc-burn");
  register_and_start(p);
  Amount before = wallet_.balance(chain_.state());
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")}, 5'000));
  mine(pool);
  // alice gained one subsidy and lost the transferred 5000.
  EXPECT_EQ(wallet_.balance(chain_.state()),
            before + chain_.params().block_subsidy - 5'000);
}

// ---- Withdrawal certificates (§4.1.2) ----

TEST_F(MainchainTest, CertificateLifecycleWithPayout) {
  auto p = make_sc_params(2, 5, 3, "sc-cert");
  register_and_start(p);
  // Fund the sidechain.
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")},
      10'000'000));
  mine(pool);
  // Mine to the end of epoch 0 (heights 2..6).
  while (chain_.height() < p.epoch_end(0)) miner_.mine_empty(1);
  // Submit cert for epoch 0 with a BT paying bob.
  auto cert =
      make_cert(p, 0, 100, {BackwardTransfer{bob_.address(), 2'000'000}});
  Mempool cpool;
  cpool.certificates.push_back(cert);
  Block b = mine(cpool);
  ASSERT_EQ(b.certificates.size(), 1u);
  // Payout happens only at window close.
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 0u);
  while (chain_.height() < p.cert_window_end(0)) miner_.mine_empty(1);
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 2'000'000u);
  const SidechainStatus* sc = chain_.state().find_sidechain(p.ledger_id);
  EXPECT_EQ(sc->balance, 8'000'000u);
  EXPECT_FALSE(sc->ceased);
  EXPECT_EQ(sc->last_finalized_epoch, std::optional<std::uint64_t>(0));
}

TEST_F(MainchainTest, HigherQualityCertificateReplacesIncumbent) {
  auto p = make_sc_params(2, 5, 3, "sc-quality");
  register_and_start(p);
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")},
      10'000'000));
  mine(pool);
  while (chain_.height() < p.epoch_end(0)) miner_.mine_empty(1);

  auto low = make_cert(p, 0, 10, {BackwardTransfer{bob_.address(), 1}});
  Mempool mp1;
  mp1.certificates.push_back(low);
  mine(mp1);
  auto high = make_cert(p, 0, 20, {BackwardTransfer{bob_.address(), 2}});
  Mempool mp2;
  mp2.certificates.push_back(high);
  mine(mp2);
  while (chain_.height() < p.cert_window_end(0)) miner_.mine_empty(1);
  // Only the high-quality certificate pays out.
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 2u);
}

TEST_F(MainchainTest, LowerOrEqualQualityCertificateDropped) {
  auto p = make_sc_params(2, 5, 3, "sc-quality2");
  register_and_start(p);
  while (chain_.height() < p.epoch_end(0)) miner_.mine_empty(1);
  auto first = make_cert(p, 0, 10, {});
  Mempool mp1;
  mp1.certificates.push_back(first);
  mine(mp1);
  // Equal quality: first-seen wins, the new one is dropped at assembly.
  auto equal = make_cert(p, 0, 10, {});
  Mempool mp2;
  mp2.certificates.push_back(equal);
  Block b = mine(mp2);
  EXPECT_TRUE(b.certificates.empty());
}

TEST_F(MainchainTest, CertificateOutsideWindowRejected) {
  auto p = make_sc_params(2, 5, 3, "sc-window");
  register_and_start(p);
  // Still inside epoch 0 — a cert for epoch 0 is premature.
  auto premature = make_cert(p, 0, 1, {});
  Mempool mp;
  mp.certificates.push_back(premature);
  Block b = mine(mp);
  EXPECT_TRUE(b.certificates.empty());
}

TEST_F(MainchainTest, CertificateWithBadProofRejected) {
  auto p = make_sc_params(2, 5, 3, "sc-badproof");
  register_and_start(p);
  while (chain_.height() < p.epoch_end(0)) miner_.mine_empty(1);
  auto cert = make_cert(p, 0, 1, {});
  cert.quality = 2;  // statement no longer matches the proof
  Mempool mp;
  mp.certificates.push_back(cert);
  Block b = mine(mp);
  EXPECT_TRUE(b.certificates.empty());
}

TEST_F(MainchainTest, SafeguardBlocksOverdraw) {
  auto p = make_sc_params(2, 5, 3, "sc-safeguard");
  register_and_start(p);
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")}, 100));
  mine(pool);
  while (chain_.height() < p.epoch_end(0)) miner_.mine_empty(1);
  // Even a validly-proven certificate cannot withdraw more than the
  // sidechain balance (§4.1.2.2: "an adversary cannot mint coins out of
  // thin air").
  auto cert = make_cert(p, 0, 1, {BackwardTransfer{bob_.address(), 101}});
  Mempool mp;
  mp.certificates.push_back(cert);
  Block b = mine(mp);
  EXPECT_TRUE(b.certificates.empty());
}

TEST_F(MainchainTest, MissingCertificateCeasesSidechain) {
  auto p = make_sc_params(2, 5, 3, "sc-cease");
  register_and_start(p);
  // Never submit a certificate; mine past window end of epoch 0.
  while (chain_.height() < p.cert_window_end(0)) miner_.mine_empty(1);
  const SidechainStatus* sc = chain_.state().find_sidechain(p.ledger_id);
  ASSERT_NE(sc, nullptr);
  EXPECT_TRUE(sc->ceased);
  // Ceased is permanent: subsequent certs are rejected.
  auto cert = make_cert(p, 1, 1, {});
  Mempool mp;
  mp.certificates.push_back(cert);
  Block b = mine(mp);
  EXPECT_TRUE(b.certificates.empty());
}

TEST_F(MainchainTest, ConsecutiveEpochCertificates) {
  auto p = make_sc_params(2, 4, 2, "sc-epochs");
  register_and_start(p);
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")},
      1'000'000));
  mine(pool);
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    while (chain_.height() < p.cert_window_begin(epoch)) {
      miner_.mine_empty(1);
    }
    auto cert = make_cert(p, epoch, epoch + 1,
                          {BackwardTransfer{bob_.address(), 100}});
    Mempool mp;
    mp.certificates.push_back(cert);
    Block b = mine(mp);
    ASSERT_EQ(b.certificates.size(), 1u) << "epoch " << epoch;
  }
  while (chain_.height() < p.cert_window_end(2)) miner_.mine_empty(1);
  const SidechainStatus* sc = chain_.state().find_sidechain(p.ledger_id);
  EXPECT_FALSE(sc->ceased);
  EXPECT_EQ(sc->last_finalized_epoch, std::optional<std::uint64_t>(2));
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 300u);
}

// ---- BTR & CSW (§4.1.2.1) ----

TEST_F(MainchainTest, BtrAcceptedAndNullifierTracked) {
  auto p = make_sc_params(2, 5, 3, "sc-btr");
  register_and_start(p);
  BtrRequest btr;
  btr.ledger_id = p.ledger_id;
  btr.receiver = bob_.address();
  btr.amount = 500;
  btr.nullifier = hash_str(Domain::kNullifier, "coin-1");
  const SidechainStatus* sc = chain_.state().find_sidechain(p.ledger_id);
  auto st = btr_statement(sc->last_cert_block, btr.nullifier, btr.receiver,
                          btr.amount, btr.proofdata_root());
  btr.proof = *snark::PredicateSnark::prove(pk_, st, std::string("authority"));
  Mempool mp;
  mp.btrs.push_back(btr);
  Block b = mine(mp);
  ASSERT_EQ(b.btrs.size(), 1u);
  EXPECT_TRUE(chain_.state().nullifier_used(p.ledger_id, btr.nullifier));
  // No direct payment.
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 0u);
  // Replay with the same nullifier is dropped.
  Mempool mp2;
  mp2.btrs.push_back(btr);
  Block b2 = mine(mp2);
  EXPECT_TRUE(b2.btrs.empty());
}

TEST_F(MainchainTest, CswOnlyForCeasedSidechain) {
  auto p = make_sc_params(2, 5, 3, "sc-csw");
  register_and_start(p);
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")}, 4'000));
  mine(pool);

  auto make_csw = [&](Amount amount, const std::string& nullifier_seed) {
    CeasedSidechainWithdrawal csw;
    csw.ledger_id = p.ledger_id;
    csw.receiver = bob_.address();
    csw.amount = amount;
    csw.nullifier = hash_str(Domain::kNullifier, nullifier_seed);
    const SidechainStatus* sc = chain_.state().find_sidechain(p.ledger_id);
    auto st = csw_statement(sc->last_cert_block, csw.nullifier, csw.receiver,
                            csw.amount, csw.proofdata_root());
    csw.proof =
        *snark::PredicateSnark::prove(pk_, st, std::string("authority"));
    return csw;
  };

  // While active: CSW must be dropped.
  Mempool mp;
  mp.csws.push_back(make_csw(1'000, "c1"));
  Block b = mine(mp);
  EXPECT_TRUE(b.csws.empty());

  // Let the sidechain cease.
  while (chain_.height() < p.cert_window_end(0)) miner_.mine_empty(1);
  ASSERT_TRUE(chain_.state().find_sidechain(p.ledger_id)->ceased);

  // Now the CSW pays out directly.
  Mempool mp2;
  mp2.csws.push_back(make_csw(1'000, "c2"));
  Block b2 = mine(mp2);
  ASSERT_EQ(b2.csws.size(), 1u);
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 1'000u);
  EXPECT_EQ(chain_.state().find_sidechain(p.ledger_id)->balance, 3'000u);

  // Over-balance CSW is rejected by the safeguard.
  Mempool mp3;
  mp3.csws.push_back(make_csw(3'001, "c3"));
  Block b3 = mine(mp3);
  EXPECT_TRUE(b3.csws.empty());
}

TEST_F(MainchainTest, NullVerificationKeyDisablesOperation) {
  auto p = make_sc_params(2, 5, 3, "sc-nullvk");
  p.btr_vk = snark::VerifyingKey::null();
  register_and_start(p);
  BtrRequest btr;
  btr.ledger_id = p.ledger_id;
  btr.receiver = bob_.address();
  btr.amount = 1;
  btr.nullifier = hash_str(Domain::kNullifier, "n");
  btr.proof.binding = hash_str(Domain::kGeneric, "whatever");
  Mempool mp;
  mp.btrs.push_back(btr);
  Block b = mine(mp);
  EXPECT_TRUE(b.btrs.empty());
}

// ---- Forks & reorgs ----

TEST_F(MainchainTest, LongerBranchWinsAndStateFollows) {
  miner_.mine_empty(1);
  Digest fork_point = chain_.tip_hash();
  std::uint64_t fork_height = chain_.height();

  // Branch A: one block paying bob.
  Mempool pool;
  pool.transactions.push_back(
      *wallet_.pay(chain_.state(), bob_.address(), 123));
  mine(pool);
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 123u);

  // Branch B: two empty blocks from the fork point (built by hand).
  Block b1;
  b1.header.prev_hash = fork_point;
  b1.header.height = fork_height + 1;
  Transaction cb1;
  cb1.is_coinbase = true;
  cb1.coinbase_height = b1.header.height;
  cb1.outputs.push_back(TxOutput{bob_.address(), chain_.params().block_subsidy});
  b1.transactions.push_back(cb1);
  b1.header.tx_merkle_root = b1.compute_tx_merkle_root();
  b1.header.sc_txs_commitment = b1.build_commitment_tree().root();
  Miner::solve_pow(b1, chain_.params().pow_target);
  auto r1 = chain_.submit_block(b1);
  EXPECT_TRUE(r1.accepted());
  EXPECT_FALSE(r1.reorged);  // same height as branch A tip? No: equal height -> no switch
  // bob still has branch-A coins.
  EXPECT_EQ(chain_.state().balance_of(bob_.address()), 123u);

  Block b2;
  b2.header.prev_hash = b1.hash();
  b2.header.height = b1.header.height + 1;
  Transaction cb2;
  cb2.is_coinbase = true;
  cb2.coinbase_height = b2.header.height;
  cb2.outputs.push_back(TxOutput{bob_.address(), chain_.params().block_subsidy});
  b2.transactions.push_back(cb2);
  b2.header.tx_merkle_root = b2.compute_tx_merkle_root();
  b2.header.sc_txs_commitment = b2.build_commitment_tree().root();
  Miner::solve_pow(b2, chain_.params().pow_target);
  auto r2 = chain_.submit_block(b2);
  EXPECT_TRUE(r2.accepted());
  EXPECT_TRUE(r2.reorged);

  // Branch A's payment is gone; bob owns two branch-B coinbases instead.
  EXPECT_EQ(chain_.state().balance_of(bob_.address()),
            2 * chain_.params().block_subsidy);
  EXPECT_EQ(chain_.tip_hash(), b2.hash());
}

// ---- submit_block result codes & orphan pool (the gossip contract) ----

TEST_F(MainchainTest, DuplicateSubmitIsIdempotent) {
  Block b = miner_.build_block({});
  auto first = chain_.submit_block(b);
  EXPECT_EQ(first.code, SubmitCode::kAccepted);
  EXPECT_TRUE(first.accepted());
  Digest fingerprint = chain_.state().state_fingerprint();

  auto again = chain_.submit_block(b);
  EXPECT_EQ(again.code, SubmitCode::kDuplicate);
  EXPECT_FALSE(again.accepted());
  EXPECT_TRUE(again.error.empty()) << again.error;  // a no-op, not an error
  EXPECT_EQ(again.connected, 0u);
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_EQ(chain_.state().state_fingerprint(), fingerprint);
}

TEST_F(MainchainTest, InvalidBlockReportsInvalidCode) {
  Block b = miner_.build_block({});
  while (b.hash().as_u256() < chain_.params().pow_target) ++b.header.nonce;
  auto result = chain_.submit_block(b);
  EXPECT_EQ(result.code, SubmitCode::kInvalid);
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.error, "insufficient proof of work");
}

TEST_F(MainchainTest, SecondGenesisRejected) {
  Block b = miner_.build_block({});
  b.header.prev_hash = Digest{};
  b.header.height = 0;
  Miner::solve_pow(b, chain_.params().pow_target);
  auto result = chain_.submit_block(b);
  EXPECT_EQ(result.code, SubmitCode::kInvalid);
  EXPECT_NE(result.error.find("genesis"), std::string::npos);
}

TEST_F(MainchainTest, UnknownParentIsOrphaned) {
  Block b = miner_.build_block({});
  b.header.prev_hash = hash_str(Domain::kGeneric, "nowhere");
  Miner::solve_pow(b, chain_.params().pow_target);
  auto result = chain_.submit_block(b);
  EXPECT_EQ(result.code, SubmitCode::kOrphaned);
  EXPECT_FALSE(result.accepted());
  EXPECT_TRUE(chain_.has_orphan(b.hash()));
  EXPECT_EQ(chain_.height(), 0u);
  // Buffered orphans are deduplicated too.
  EXPECT_EQ(chain_.submit_block(b).code, SubmitCode::kDuplicate);
}

TEST_F(MainchainTest, OrphanConnectsWhenParentArrives) {
  miner_.mine_empty(1);
  Block parent = make_block_on(chain_.tip_hash(), 2, bob_.address());
  Block child = make_block_on(parent.hash(), 3, bob_.address());

  // Child first (out-of-order delivery): buffered, chain unmoved.
  auto r1 = chain_.submit_block(child);
  EXPECT_EQ(r1.code, SubmitCode::kOrphaned);
  EXPECT_EQ(chain_.height(), 1u);
  ASSERT_TRUE(chain_.has_orphan(child.hash()));

  // Parent arrives: both connect in one submit.
  auto r2 = chain_.submit_block(parent);
  EXPECT_EQ(r2.code, SubmitCode::kAccepted);
  EXPECT_EQ(r2.connected, 2u);
  EXPECT_EQ(r2.orphans_connected, 1u);
  EXPECT_EQ(chain_.height(), 3u);
  EXPECT_EQ(chain_.tip_hash(), child.hash());
  EXPECT_EQ(chain_.orphan_count(), 0u);
}

TEST_F(MainchainTest, ReversedChainConnectsThroughOrphanPool) {
  // Deliver an entire 4-block branch tip-first: everything buffers, then
  // the final (lowest) block zips the whole chain together.
  std::vector<Block> branch;
  Digest prev = chain_.genesis().hash();
  for (std::uint64_t h = 1; h <= 4; ++h) {
    branch.push_back(make_block_on(prev, h, bob_.address()));
    prev = branch.back().hash();
  }
  for (std::size_t i = branch.size(); i-- > 1;) {
    EXPECT_EQ(chain_.submit_block(branch[i]).code, SubmitCode::kOrphaned);
  }
  EXPECT_EQ(chain_.orphan_count(), 3u);
  auto result = chain_.submit_block(branch[0]);
  EXPECT_EQ(result.code, SubmitCode::kAccepted);
  EXPECT_EQ(result.connected, 4u);
  EXPECT_EQ(result.orphans_connected, 3u);
  EXPECT_EQ(chain_.tip_hash(), branch.back().hash());
  EXPECT_EQ(chain_.orphan_count(), 0u);
}

TEST_F(MainchainTest, OrphanPoolSizeBounded) {
  ChainParams params;
  params.max_orphan_blocks = 4;
  Blockchain chain(params);
  Miner miner(chain, alice_.address());
  // Spam disconnected blocks at increasing heights; the pool must keep
  // only the 4 nearest the tip (heights 1..4).
  std::vector<Block> spam;
  for (std::uint64_t h = 1; h <= 8; ++h) {
    Block b;
    b.header.prev_hash = hash_str(Domain::kGeneric, "void" + std::to_string(h));
    b.header.height = h;
    b.header.tx_merkle_root = b.compute_tx_merkle_root();
    b.header.sc_txs_commitment = b.build_commitment_tree().root();
    Miner::solve_pow(b, params.pow_target);
    spam.push_back(b);
    chain.submit_block(b);
    EXPECT_LE(chain.orphan_count(), params.max_orphan_blocks);
  }
  EXPECT_EQ(chain.orphan_count(), params.max_orphan_blocks);
  for (std::uint64_t h = 1; h <= 4; ++h) {
    EXPECT_TRUE(chain.has_orphan(spam[h - 1].hash())) << "height " << h;
  }
  for (std::uint64_t h = 5; h <= 8; ++h) {
    EXPECT_FALSE(chain.has_orphan(spam[h - 1].hash())) << "height " << h;
  }
}

TEST_F(MainchainTest, OrphanHeightWindowEviction) {
  ChainParams params;
  params.orphan_height_window = 2;
  Blockchain chain(params);
  Miner miner(chain, alice_.address());

  // Far above the window: still reported kOrphaned (the parent IS
  // unknown, and callers must backfill) but not retained — redelivering
  // it later, once the tip has caught up, re-triggers the same path.
  Block far;
  far.header.prev_hash = hash_str(Domain::kGeneric, "void-far");
  far.header.height = 10;
  far.header.tx_merkle_root = far.compute_tx_merkle_root();
  far.header.sc_txs_commitment = far.build_commitment_tree().root();
  Miner::solve_pow(far, params.pow_target);
  auto refused = chain.submit_block(far);
  EXPECT_EQ(refused.code, SubmitCode::kOrphaned);
  EXPECT_FALSE(chain.has_orphan(far.hash()));
  EXPECT_EQ(chain.orphan_count(), 0u);
  // Not a duplicate on redelivery — the retry path stays open.
  EXPECT_EQ(chain.submit_block(far).code, SubmitCode::kOrphaned);

  // Inside the window: buffered — until the tip outruns it.
  Block near;
  near.header.prev_hash = hash_str(Domain::kGeneric, "void-near");
  near.header.height = 2;
  near.header.tx_merkle_root = near.compute_tx_merkle_root();
  near.header.sc_txs_commitment = near.build_commitment_tree().root();
  Miner::solve_pow(near, params.pow_target);
  EXPECT_EQ(chain.submit_block(near).code, SubmitCode::kOrphaned);
  EXPECT_EQ(chain.orphan_count(), 1u);
  miner.mine_empty(6);  // tip height 6; window [5, 9] no longer covers 2
  EXPECT_EQ(chain.orphan_count(), 0u);
}

// ---- SCTxsCommitment in headers (§4.1.3) ----

TEST_F(MainchainTest, HeaderCommitsToSidechainActions) {
  auto p = make_sc_params(3, 10, 4, "sc-commit");
  register_and_start(p);
  Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), p.ledger_id, std::vector<Digest>{hash_str(Domain::kGeneric, "r")}, 999));
  Block b = mine(pool);
  // The header commitment must verify membership of this sidechain.
  auto tree = b.build_commitment_tree();
  EXPECT_EQ(tree.root(), b.header.sc_txs_commitment);
  auto proof = tree.prove_membership(p.ledger_id);
  EXPECT_TRUE(merkle::ScTxCommitmentTree::verify_membership(
      b.header.sc_txs_commitment, p.ledger_id, proof));
  // And absence for an unrelated sidechain.
  auto other = hash_str(Domain::kGeneric, "unrelated");
  auto absent = tree.prove_absence(other);
  EXPECT_TRUE(merkle::ScTxCommitmentTree::verify_absence(
      b.header.sc_txs_commitment, other, absent));
}

TEST_F(MainchainTest, WrongCommitmentRejected) {
  Block b = miner_.build_block({});
  b.header.sc_txs_commitment = hash_str(Domain::kGeneric, "bogus");
  Miner::solve_pow(b, chain_.params().pow_target);
  auto result = chain_.submit_block(b);
  EXPECT_FALSE(result.accepted());
  EXPECT_NE(result.error.find("commitment"), std::string::npos);
}

// ---- Header tree (headers-first sync substrate) ----

TEST_F(MainchainTest, SubmitHeaderClassifiesOutcomes) {
  miner_.mine_empty(3);
  const std::uint64_t h = chain_.height();

  // A valid child of the tip extends the header chain ahead of its body.
  Block next = make_block_on(chain_.tip_hash(), h + 1, alice_.address());
  auto res = chain_.submit_header(next.header);
  EXPECT_EQ(res.code, HeaderCode::kAccepted);
  EXPECT_EQ(chain_.header_height(), h + 1);
  EXPECT_EQ(chain_.best_header_hash(), next.header.hash());
  EXPECT_EQ(chain_.height(), h);  // the body is still missing

  // Again: duplicate. A stored block's header is a duplicate too.
  EXPECT_EQ(chain_.submit_header(next.header).code, HeaderCode::kDuplicate);
  const Block* tip = chain_.find_block(chain_.tip_hash());
  EXPECT_EQ(chain_.submit_header(tip->header).code, HeaderCode::kDuplicate);

  // Unknown parent: disconnected, not stored.
  Block stranger = make_block_on(hash_str(Domain::kGeneric, "elsewhere"),
                                 h + 5, alice_.address());
  EXPECT_EQ(chain_.submit_header(stranger.header).code,
            HeaderCode::kDisconnected);
  EXPECT_EQ(chain_.find_header(stranger.header.hash()), nullptr);

  // Height must be parent height + 1 even when the parent is known.
  Block skip = make_block_on(chain_.tip_hash(), h + 3, alice_.address());
  EXPECT_EQ(chain_.submit_header(skip.header).code, HeaderCode::kInvalid);

  // Unsolved PoW is refused before anything else is considered.
  Block weak = make_block_on(next.hash(), h + 2, alice_.address());
  do {
    ++weak.header.nonce;
  } while (weak.header.hash().as_u256() < chain_.params().pow_target);
  EXPECT_EQ(chain_.submit_header(weak.header).code, HeaderCode::kInvalid);
}

TEST_F(MainchainTest, LocatorIsDenseNearTipThenExponential) {
  miner_.mine_empty(40);
  BlockLocator loc = chain_.locator();
  ASSERT_GE(loc.hashes.size(), 11u);
  // Dense part: tip and the 9 headers under it, newest first.
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(loc.hashes[i], chain_.hash_at_height(40 - i)) << "i=" << i;
  }
  // Then exponentially thinning samples, ending at genesis.
  EXPECT_EQ(loc.hashes.back(), chain_.hash_at_height(0));
  EXPECT_LT(loc.hashes.size(), 20u);  // far fewer than 41 entries
}

TEST_F(MainchainTest, HeadersAfterServesFromForkPoint) {
  miner_.mine_empty(30);

  // A locator naming height 20 (plus genesis) gets headers from 21 on,
  // capped at `max`.
  BlockLocator loc;
  loc.hashes = {chain_.hash_at_height(20), chain_.hash_at_height(0)};
  auto batch = chain_.headers_after(loc, 5);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(batch[i].hash(), chain_.hash_at_height(21 + i));
  }

  // Unknown entries (another node's fork) are skipped over.
  BlockLocator alien;
  alien.hashes = {hash_str(Domain::kGeneric, "not-ours"),
                  chain_.hash_at_height(10)};
  auto after_ten = chain_.headers_after(alien, 100);
  ASSERT_EQ(after_ten.size(), 20u);
  EXPECT_EQ(after_ten.front().hash(), chain_.hash_at_height(11));

  // A node that already has our tip gets an empty batch.
  EXPECT_TRUE(chain_.headers_after(chain_.locator(), 100).empty());

  // An empty locator means "from genesis".
  EXPECT_EQ(chain_.headers_after(BlockLocator{}, 100).size(), 30u);
}

TEST_F(MainchainTest, HeadersAfterSkipsStoredSideBranchEntries) {
  miner_.mine_empty(10);

  // A stored block off the active chain: a sibling of height 6.
  Block side = make_block_on(chain_.hash_at_height(5), 6, bob_.address(),
                             /*salt=*/1);
  ASSERT_TRUE(chain_.submit_block(side).accepted());
  ASSERT_NE(chain_.find_block(side.hash()), nullptr);
  ASSERT_EQ(chain_.hash_at_height(10), chain_.tip_hash());

  // The side-branch entry is known but not active, so serving starts
  // after the next entry, which is.
  BlockLocator loc;
  loc.hashes = {side.hash(), chain_.hash_at_height(4)};
  auto batch = chain_.headers_after(loc, 100);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch.front().hash(), chain_.hash_at_height(5));
  EXPECT_EQ(batch.back().hash(), chain_.tip_hash());
}

TEST_F(MainchainTest, FreshStateConnectsGenesisFirst) {
  ChainState state{ChainParams{}};
  EXPECT_EQ(state.height(), 0u);
  EXPECT_TRUE(state.tip_hash().is_zero());

  // Nothing but genesis may come first, whether connected or dry-run.
  Block first = make_block_on(chain_.genesis().hash(), 1, bob_.address());
  EXPECT_EQ(state.dry_run(first), "first block must be genesis");
  EXPECT_EQ(state.connect_block(first), "first block must be genesis");
  EXPECT_EQ(state.height(), 0u);
  EXPECT_TRUE(state.tip_hash().is_zero());

  BlockUndo undo;
  ASSERT_EQ(state.connect_block(chain_.genesis(), &undo), "");
  EXPECT_EQ(state.height(), 0u);
  EXPECT_EQ(state.tip_hash(), chain_.genesis().hash());
  EXPECT_EQ(state.hash_at_height(0), chain_.genesis().hash());
  // Genesis itself is never rolled back.
  EXPECT_EQ(state.disconnect_block(undo), "disconnect: nothing above genesis");
  EXPECT_EQ(state.tip_hash(), chain_.genesis().hash());
  EXPECT_EQ(state.state_fingerprint(), chain_.state().state_fingerprint());
}

TEST_F(MainchainTest, MissingBodiesTrackHeaderChainAheadOfBlocks) {
  miner_.mine_empty(10);

  // A fresh peer chain learns all 10 headers, has none of the bodies.
  Blockchain peer{ChainParams{}};
  std::vector<Block> bodies;
  for (std::uint64_t h = 1; h <= 10; ++h) {
    bodies.push_back(*chain_.find_block(chain_.hash_at_height(h)));
    ASSERT_TRUE(peer.submit_header(bodies.back().header).accepted());
  }
  EXPECT_EQ(peer.header_height(), 10u);
  EXPECT_EQ(peer.height(), 0u);

  auto frontier = peer.next_missing_bodies(4);
  ASSERT_EQ(frontier.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(frontier[i], chain_.hash_at_height(1 + i));
  }

  // An out-of-order body parks in the orphan pool but counts as present.
  EXPECT_EQ(peer.submit_block(bodies[2]).code, SubmitCode::kOrphaned);
  EXPECT_TRUE(peer.has_body(bodies[2].hash()));
  frontier = peer.next_missing_bodies(4);
  ASSERT_EQ(frontier.size(), 4u);
  EXPECT_EQ(frontier[0], bodies[0].hash());
  EXPECT_EQ(frontier[1], bodies[1].hash());
  EXPECT_EQ(frontier[2], bodies[3].hash());  // height 3 skipped

  // Connecting height 1 pulls the orphan in; the frontier moves on.
  EXPECT_EQ(peer.submit_block(bodies[0]).code, SubmitCode::kAccepted);
  EXPECT_EQ(peer.submit_block(bodies[1]).code, SubmitCode::kAccepted);
  EXPECT_EQ(peer.height(), 3u);  // orphaned height-3 body auto-connected
  frontier = peer.next_missing_bodies(4);
  ASSERT_GE(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], bodies[3].hash());
}

TEST_F(MainchainTest, HeaderChainReRootsOntoLongerBranch) {
  miner_.mine_empty(3);
  const Digest genesis = chain_.hash_at_height(0);

  // A rival branch from genesis, two blocks longer than ours.
  std::vector<Block> rival;
  Digest prev = genesis;
  for (std::uint64_t h = 1; h <= 5; ++h) {
    rival.push_back(make_block_on(prev, h, bob_.address(), /*salt=*/h));
    prev = rival.back().hash();
  }
  for (const Block& b : rival) {
    ASSERT_TRUE(chain_.submit_header(b.header).accepted());
  }

  // The best-header chain now follows the rival branch...
  EXPECT_EQ(chain_.header_height(), 5u);
  EXPECT_EQ(chain_.best_header_hash(), rival.back().hash());
  for (std::uint64_t h = 1; h <= 5; ++h) {
    EXPECT_EQ(chain_.header_hash_at(h), rival[h - 1].hash());
  }
  // ...while the active chain still holds our original branch.
  EXPECT_EQ(chain_.height(), 3u);
  EXPECT_NE(chain_.tip_hash(), rival[2].hash());

  // Feeding the bodies reorgs the active chain onto the rival branch.
  for (const Block& b : rival) (void)chain_.submit_block(b);
  EXPECT_EQ(chain_.height(), 5u);
  EXPECT_EQ(chain_.tip_hash(), rival.back().hash());
  EXPECT_EQ(chain_.best_header_hash(), chain_.tip_hash());
}

// ---- Epoch geometry sweep (Fig. 3) ----

struct EpochGeomParam {
  std::uint64_t start, epoch_len, submit_len;
};

class EpochGeometry : public ::testing::TestWithParam<EpochGeomParam> {};

TEST_P(EpochGeometry, WindowsTileTheChain) {
  auto [start, epoch_len, submit_len] = GetParam();
  SidechainParams p;
  p.start_block = start;
  p.epoch_len = epoch_len;
  p.submit_len = submit_len;
  for (std::uint64_t e = 0; e < 5; ++e) {
    EXPECT_EQ(p.epoch_end(e) + 1, p.epoch_start(e + 1));
    EXPECT_EQ(p.cert_window_begin(e), p.epoch_start(e + 1));
    EXPECT_EQ(p.cert_window_end(e) - p.cert_window_begin(e), submit_len);
    for (std::uint64_t h = p.epoch_start(e); h <= p.epoch_end(e); ++h) {
      EXPECT_EQ(p.epoch_of(h), e);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EpochGeometry,
    ::testing::Values(EpochGeomParam{1, 4, 1}, EpochGeomParam{2, 5, 3},
                      EpochGeomParam{10, 10, 10}, EpochGeomParam{3, 7, 2}));

}  // namespace
}  // namespace zendoo::mainchain
