// Reorg rollback of a LatusNode (§5.1 "Mainchain forks resolution"),
// checked differentially. A checkpoint records the node's log lengths and
// copies only its mutable part, so a rollback must land on exactly the
// node a full copy taken at the checkpoint would be: same state, chain,
// MC index, pending certificates, archive and consensus schedule.
#include <gtest/gtest.h>

#include "latus/node.hpp"
#include "mainchain/codec.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::latus {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;
using mainchain::Block;
using mainchain::Blockchain;
using mainchain::Mempool;
using mainchain::WithdrawalCertificate;

template <typename T>
std::vector<std::uint8_t> bytes_of(const T& value) {
  mainchain::codec::Writer w;
  mainchain::codec::encode(w, value);
  return w.take();
}

/// The encoded result of `make`, or the message it threw.
template <typename Make>
std::string outcome(Make make) {
  try {
    auto bytes = bytes_of(make());
    return std::string(bytes.begin(), bytes.end());
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

/// Epochs of 4 MC blocks from height 5 end at 8, 12, 16, ...: every
/// checkpoint height is an epoch boundary, so the checkpoint is taken with
/// the epoch's snapshot pending. Certificate windows are 2 blocks. One SC
/// block per MC block and 6-slot consensus epochs put checkpoints 8 and
/// 16 mid-consensus-epoch, after stake moved: a rollback must restore the
/// cached leader schedule, not refill it from the restored state.
class RollbackTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kStart = 5;
  static constexpr std::uint64_t kEpochLen = 4;
  static constexpr std::uint64_t kSubmitLen = 2;

  RollbackTest()
      : miner_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "rb-m"))),
        rival_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "rb-r"))),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "rb-a"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "rb-b"))),
        wallet_(miner_key_),
        chain_(mainchain::ChainParams{}),
        node_(fresh_node()) {
    Mempool pool;
    pool.sidechain_creations.push_back(node_.mc_params());
    feed(node_, mine(chain_, pool, miner_key_));
  }

  [[nodiscard]] LatusNode fresh_node() const {
    LatusNode node(hash_str(Domain::kGeneric, "rollback-sc"), kStart,
                   kEpochLen, kSubmitLen, /*mst_depth=*/10,
                   /*slots_per_epoch=*/6);
    node.add_forger(alice_);
    node.add_forger(bob_);
    return node;
  }

  [[nodiscard]] const SidechainId& sc_id() const {
    return node_.mc_params().ledger_id;
  }

  static Block mine(Blockchain& chain, const Mempool& pool,
                    const KeyPair& miner) {
    mainchain::Miner m(chain, miner.address());
    Block out;
    auto r = m.mine_and_submit(pool, &out);
    if (!r.accepted()) throw std::logic_error(r.error);
    return out;
  }

  static void feed(LatusNode& node, const Block& block) {
    ASSERT_EQ(node.observe_mc_block(block), "");
    ASSERT_EQ(node.forge_until_synced(), "");
  }

  static std::vector<WithdrawalCertificate> certify(LatusNode& node) {
    std::vector<WithdrawalCertificate> out;
    while (auto cert = node.build_certificate()) out.push_back(*cert);
    return out;
  }

  /// Forward transfer of `coins` coins of `amount` to `to` on `chain`.
  [[nodiscard]] mainchain::Transaction ft(const Blockchain& chain,
                                          const KeyPair& to,
                                          mainchain::Amount amount,
                                          std::size_t coins = 1) const {
    return *wallet_.forward_transfer_many(
        chain.state(), sc_id(),
        std::vector<mainchain::Wallet::FtSpec>(
            coins, {{to.address(), to.address()}, amount}));
  }

  /// Mines `pool` plus `certs` on `chain`; every certificate must get in.
  static Block mine_with(Blockchain& chain, Mempool pool,
                         const KeyPair& miner,
                         const std::vector<WithdrawalCertificate>& certs) {
    pool.certificates.insert(pool.certificates.end(), certs.begin(),
                             certs.end());
    Block b = mine(chain, pool, miner);
    EXPECT_EQ(b.certificates.size(), certs.size());
    return b;
  }

  /// One Engine::step-shaped block on `chain`: mine `pool` plus the
  /// certificates `node` built last time, feed it, build the new ones.
  static void step(Blockchain& chain, const Mempool& pool,
                   const KeyPair& miner, LatusNode& node,
                   std::vector<WithdrawalCertificate>& certs) {
    feed(node, mine_with(chain, pool, miner, certs));
    certs = certify(node);
  }

  /// The node equals `ref` on everything a caller can observe.
  static void expect_same(const LatusNode& node, const LatusNode& ref,
                          std::uint64_t max_height) {
    EXPECT_EQ(node.state().commitment(), ref.state().commitment());
    ASSERT_EQ(node.height(), ref.height());
    for (std::size_t i = 0; i < node.chain().size(); ++i) {
      ASSERT_EQ(node.chain()[i].hash(), ref.chain()[i].hash()) << i;
    }
    EXPECT_EQ(node.pending_certificates(), ref.pending_certificates());
    EXPECT_EQ(node.last_observed_mc_height(), ref.last_observed_mc_height());
    for (std::uint64_t h = 0; h <= max_height; ++h) {
      EXPECT_EQ(node.observed_mc_hash(h), ref.observed_mc_hash(h)) << h;
    }
    EXPECT_EQ(node.next_slot_leader(), ref.next_slot_leader());
  }

  /// BTR and Appendix-A CSW outcomes for every coin either node holds.
  void expect_same_withdrawals(const LatusNode& node, const LatusNode& ref) {
    for (const KeyPair* owner : {&alice_, &bob_}) {
      std::vector<Utxo> coins = node.state().utxos_of(owner->address());
      for (const Utxo& c : ref.state().utxos_of(owner->address())) {
        coins.push_back(c);
      }
      for (const Utxo& coin : coins) {
        EXPECT_EQ(outcome([&] {
                    return node.create_btr(coin, *owner, owner->address());
                  }),
                  outcome([&] {
                    return ref.create_btr(coin, *owner, owner->address());
                  }));
        EXPECT_EQ(outcome([&] {
                    return node.create_csw_historical(coin, *owner,
                                                      owner->address());
                  }),
                  outcome([&] {
                    return ref.create_csw_historical(coin, *owner,
                                                     owner->address());
                  }));
      }
    }
  }

  KeyPair miner_key_, rival_key_, alice_, bob_;
  mainchain::Wallet wallet_;
  Blockchain chain_;
  LatusNode node_;
  std::vector<WithdrawalCertificate> certs_;
};

TEST_F(RollbackTest, RollbackAcrossCertificateMatchesCheckpointCopy) {
  // Funds, then SC payments and BTs while certificates are built and
  // mined, up to checkpoint 16 (epoch 2's boundary).
  step(chain_, {.transactions = {ft(chain_, alice_, 40'000, 4)}}, miner_key_,
       node_, certs_);
  step(chain_, {.transactions = {ft(chain_, bob_, 30'000, 2)}}, miner_key_,
       node_, certs_);
  while (chain_.height() < 16) {
    std::uint64_t next = chain_.height() + 1;
    auto coins = node_.state().utxos_of(next % 2 ? alice_.address()
                                                 : bob_.address());
    const KeyPair& owner = next % 2 ? alice_ : bob_;
    if (!coins.empty() && next % 3 == 0) {
      node_.submit_backward_transfer(build_backward_transfer(
          {coins.front()}, owner, {{owner.address(), coins.front().amount}}));
    } else if (!coins.empty() && coins.front().amount > 1'000) {
      node_.submit_payment(build_payment(
          {coins.front()}, owner,
          {{alice_.address(), 1'000},
           {bob_.address(), coins.front().amount - 1'000}}));
    }
    if (chain_.height() < 15) {
      step(chain_, {}, miner_key_, node_, certs_);
    } else {
      // Block 16 ends epoch 2: the node checkpoints before its
      // certificate is built.
      feed(node_, mine_with(chain_, {}, miner_key_, certs_));
    }
  }
  ASSERT_EQ(node_.pending_certificates(), 1u);
  ASSERT_EQ(node_.registry().value("sc.checkpoints"), 3u);

  // A full copy of the node at the checkpoint: what a rollback to it must
  // reproduce.
  LatusNode ref = node_;
  Blockchain fork = chain_;

  // Branch A: epoch 2's certificate mined at 17, epoch 3's boundary at 20,
  // its certificate mined at 21, with more SC traffic.
  certs_ = certify(node_);
  while (chain_.height() < 21) {
    auto coins = node_.state().utxos_of(alice_.address());
    if (!coins.empty()) {
      node_.submit_payment(build_payment({coins.front()}, alice_,
                                         {{bob_.address(),
                                           coins.front().amount}}));
    }
    step(chain_, {.transactions = {ft(chain_, alice_, 7'000)}}, miner_key_,
         node_, certs_);
  }
  ASSERT_EQ(node_.rollback_to_mc_ancestor(18),
            std::optional<std::uint64_t>(16));
  expect_same(node_, ref, 24);
  expect_same_withdrawals(node_, ref);

  // Branch B from 16, fed to both: certificates, BTRs, SC payments.
  std::vector<WithdrawalCertificate> certs = certify(node_);
  std::vector<WithdrawalCertificate> ref_certs = certify(ref);
  ASSERT_EQ(certs.size(), 1u);
  ASSERT_EQ(ref_certs.size(), 1u);
  EXPECT_EQ(bytes_of(certs[0]), bytes_of(ref_certs[0]));
  std::optional<mainchain::BtrRequest> btr;
  while (fork.height() < 30) {
    Mempool pool;
    pool.transactions.push_back(ft(fork, bob_, 5'000));
    if (btr) pool.btrs.push_back(*std::exchange(btr, std::nullopt));
    Block b = mine_with(fork, pool, rival_key_, certs);
    feed(node_, b);
    feed(ref, b);
    certs = certify(node_);
    std::vector<WithdrawalCertificate> again = certify(ref);
    ASSERT_EQ(certs.size(), again.size());
    for (std::size_t i = 0; i < certs.size(); ++i) {
      EXPECT_EQ(bytes_of(certs[i]), bytes_of(again[i]));
    }
    auto coins = node_.state().utxos_of(bob_.address());
    if (fork.height() == 18) {
      // Proven against epoch 2's certificate, mined at 17 on this branch.
      for (const Utxo& coin : coins) {
        try {
          btr = node_.create_btr(coin, bob_, bob_.address());
        } catch (const std::invalid_argument&) {
          continue;  // not in epoch 2's state
        }
        EXPECT_EQ(bytes_of(*btr),
                  bytes_of(ref.create_btr(coin, bob_, bob_.address())));
        break;
      }
      ASSERT_TRUE(btr.has_value());
    } else if (!coins.empty() && coins.front().amount > 2'000) {
      PaymentTx pay = build_payment(
          {coins.front()}, bob_,
          {{alice_.address(), 2'000},
           {bob_.address(), coins.front().amount - 2'000}});
      node_.submit_payment(pay);
      ref.submit_payment(pay);
    }
  }
  expect_same(node_, ref, 34);
  expect_same_withdrawals(node_, ref);
}

TEST_F(RollbackTest, FtAndBtrOnlyRollbackMatchesFreshNode) {
  // With no SC-local traffic, a node rolled back and fed the new branch
  // equals a node built from scratch on that branch.
  step(chain_, {.transactions = {ft(chain_, alice_, 40'000, 3)}}, miner_key_,
       node_, certs_);
  while (chain_.height() < 14) {
    Mempool pool;
    pool.transactions.push_back(ft(chain_, bob_, 3'000));
    if (chain_.height() == 10) {
      // Epoch 0's certificate was mined at 9: a BTR against it.
      auto coins = node_.state().utxos_of(alice_.address());
      ASSERT_FALSE(coins.empty());
      pool.btrs.push_back(
          node_.create_btr(coins.front(), alice_, alice_.address()));
    }
    step(chain_, pool, miner_key_, node_, certs_);
  }
  Blockchain fork = chain_;
  while (chain_.height() < 22) {
    step(chain_, {.transactions = {ft(chain_, alice_, 9'000)}}, miner_key_,
         node_, certs_);
  }
  ASSERT_EQ(node_.rollback_to_mc_ancestor(14),
            std::optional<std::uint64_t>(8));

  // Branch B from 14: the node replays 9..14, then follows B.
  for (std::uint64_t h = 9; h <= 14; ++h) {
    const Block* b = fork.find_block(fork.hash_at_height(h));
    ASSERT_NE(b, nullptr);
    feed(node_, *b);
    (void)certify(node_);  // mined already, at their window's first block
  }
  certs_.clear();
  while (fork.height() < 28) {
    Mempool pool;
    pool.transactions.push_back(ft(fork, alice_, 6'000));
    if (fork.height() == 22) {
      auto coins = node_.state().utxos_of(bob_.address());
      ASSERT_FALSE(coins.empty());
      pool.btrs.push_back(
          node_.create_btr(coins.front(), bob_, bob_.address()));
    }
    step(fork, pool, rival_key_, node_, certs_);
  }

  LatusNode fresh = fresh_node();
  for (std::uint64_t h = 1; h <= fork.height(); ++h) {
    const Block* b = fork.find_block(fork.hash_at_height(h));
    ASSERT_NE(b, nullptr);
    feed(fresh, *b);
    (void)certify(fresh);
  }
  expect_same(node_, fresh, 32);
  expect_same_withdrawals(node_, fresh);
  EXPECT_EQ(node_.registry().value("sc.cert_archive"),
            fresh.registry().value("sc.cert_archive"));
}

TEST_F(RollbackTest,
       WithheldCertificateLeavesAtWindowEndAndRollbackRestoresIt) {
  step(chain_, {.transactions = {ft(chain_, alice_, 10'000, 2)}}, miner_key_,
       node_, certs_);
  // No certificate is built: each epoch's snapshot stays pending until
  // its window closes.
  LatusNode at_16 = node_;
  std::vector<std::size_t> pending;
  while (chain_.height() < 19) {
    feed(node_, mine(chain_, {}, miner_key_));
    pending.push_back(node_.pending_certificates());
    if (chain_.height() == 16) at_16 = node_;
  }
  // Heights 3..19. Epoch 0 ends at 8 (window [9, 11)), epoch 1 at 12
  // ([13, 15)), epoch 2 at 16 ([17, 19)).
  EXPECT_EQ(pending, (std::vector<std::size_t>{0, 0, 0, 0, 0, 1, 1, 1, 0, 1,
                                               1, 1, 0, 1, 1, 1, 0}));
  EXPECT_EQ(node_.registry().value("sc.pending_certs"), 0u);

  // Roll back to before epoch 2's window end: its snapshot is back.
  ASSERT_EQ(node_.rollback_to_mc_ancestor(18),
            std::optional<std::uint64_t>(16));
  ASSERT_EQ(node_.pending_certificates(), 1u);
  EXPECT_EQ(node_.registry().value("sc.pending_certs"), 1u);
  expect_same(node_, at_16, 20);
  auto cert = node_.build_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->epoch_id, 2u);
  auto ref_cert = at_16.build_certificate();
  ASSERT_TRUE(ref_cert.has_value());
  EXPECT_EQ(bytes_of(*cert), bytes_of(*ref_cert));
}

}  // namespace
}  // namespace zendoo::latus
