// Circuit-level tests for the three Latus SNARKs (§5.4, §5.5.3): the
// prover must refuse every malformed witness, and proofs must not verify
// under perturbed statements.
#include "latus/proofs.hpp"

#include <gtest/gtest.h>

#include "latus/node.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::latus {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;

TEST(LatusProofSystemTest, DeterministicKeysPerLedger) {
  auto id = hash_str(Domain::kGeneric, "proof-sc");
  LatusProofSystem a(id, 10);
  LatusProofSystem b(id, 10);
  EXPECT_EQ(a.wcert_vk(), b.wcert_vk());
  EXPECT_EQ(a.btr_vk(), b.btr_vk());
  EXPECT_EQ(a.csw_vk(), b.csw_vk());
  // Different ledgers get different circuits.
  LatusProofSystem c(hash_str(Domain::kGeneric, "other-sc"), 10);
  EXPECT_NE(a.wcert_vk(), c.wcert_vk());
}

TEST(LatusProofSystemTest, TransitionProofRoundTrip) {
  auto id = hash_str(Domain::kGeneric, "tp-sc");
  LatusProofSystem sys(id, 8);
  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));

  LatusState state(8);
  Utxo coin{alice.address(), 100, hash_str(Domain::kGeneric, "n")};
  ASSERT_TRUE(state.insert_utxo(coin));

  LatusState pre = state;
  Digest before = state.commitment();
  PaymentTx tx =
      build_payment({coin}, alice, {{alice.address(), 100}});
  TxVariant variant{tx};
  crypto::SignatureMemo memo;
  ASSERT_EQ(apply_transaction(state, variant, memo), "");
  Digest after = state.commitment();

  auto proof = sys.prove_transition(before, after,
                                    TransitionWitness{pre, variant});
  EXPECT_TRUE(sys.transitions().verify(before, after, proof));
  EXPECT_FALSE(sys.transitions().verify(after, before, proof));
}

TEST(LatusProofSystemTest, MemoIsPerProofSystemAndSharedByCopies) {
  // Two proof systems of one ledger share every key, but each transition
  // circuit checks through its own system's memo; a copy (a checkpoint)
  // shares the memo of its source.
  auto id = hash_str(Domain::kGeneric, "memo-sc");
  LatusProofSystem a(id, 8);
  LatusProofSystem b(id, 8);
  LatusProofSystem a_copy = a;
  EXPECT_EQ(&a_copy.signature_memo(), &a.signature_memo());
  EXPECT_NE(&b.signature_memo(), &a.signature_memo());

  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));
  LatusState pre(8);
  Utxo coin{alice.address(), 100, hash_str(Domain::kGeneric, "n")};
  ASSERT_TRUE(pre.insert_utxo(coin));
  TxVariant variant{build_payment({coin}, alice, {{alice.address(), 100}})};
  LatusState post = pre;
  ASSERT_EQ(apply_transaction(post, variant, a.signature_memo()), "");
  TransitionWitness w{pre, variant};

  (void)b.prove_transition(pre.commitment(), post.commitment(), w);
  EXPECT_EQ(b.signature_memo().stats().executed, 1u);
  EXPECT_EQ(b.signature_memo().stats().hits, 0u);
  (void)a_copy.prove_transition(pre.commitment(), post.commitment(), w);
  EXPECT_EQ(a.signature_memo().stats().executed, 1u);
  EXPECT_EQ(a.signature_memo().stats().hits, 1u);
}

TEST(LatusProofSystemTest, TransitionProverRejectsWrongStates) {
  auto id = hash_str(Domain::kGeneric, "tp2-sc");
  LatusProofSystem sys(id, 8);
  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));
  LatusState state(8);
  Utxo coin{alice.address(), 100, hash_str(Domain::kGeneric, "n")};
  ASSERT_TRUE(state.insert_utxo(coin));
  PaymentTx tx = build_payment({coin}, alice, {{alice.address(), 100}});
  Digest bogus = hash_str(Domain::kGeneric, "bogus-state");
  EXPECT_THROW((void)sys.prove_transition(
                   bogus, state.commitment(),
                   TransitionWitness{state, TxVariant{tx}}),
               std::invalid_argument);
}

TEST(LatusProofSystemTest, WcertEmptyEpochRules) {
  auto id = hash_str(Domain::kGeneric, "empty-sc");
  LatusProofSystem sys(id, 8);
  LatusState state(8);

  WcertProofInput in;
  in.state_before = state.commitment();
  in.state_after = state.commitment();
  in.mst_root_before = state.mst().root();
  in.mst_root_after = state.mst().root();
  in.sb_last_hash = hash_str(Domain::kScBlock, "sb");
  in.delta_hash = merkle::MstDelta(8).hash();
  in.quality = 3;
  in.bt_root = merkle::MerkleTree::empty_root();
  in.prev_epoch_last_mc = hash_str(Domain::kBlockHeader, "p");
  in.epoch_last_mc = hash_str(Domain::kBlockHeader, "l");

  auto proof = sys.prove_wcert(in);  // empty epoch, no transition proof
  auto st = mainchain::wcert_statement(
      in.quality, in.bt_root, in.prev_epoch_last_mc, in.epoch_last_mc,
      merkle::merkle_root(LatusProofSystem::wcert_proofdata(in)));
  EXPECT_TRUE(snark::PredicateSnark::verify(sys.wcert_vk(), st, proof));

  // An empty epoch cannot claim backward transfers.
  WcertProofInput bad = in;
  bad.bt_root = hash_str(Domain::kGeneric, "claimed-bts");
  EXPECT_THROW((void)sys.prove_wcert(bad), std::invalid_argument);

  // Nor a state change without a transition proof.
  WcertProofInput bad2 = in;
  bad2.state_after = hash_str(Domain::kGeneric, "moved");
  EXPECT_THROW((void)sys.prove_wcert(bad2), std::invalid_argument);
}

/// Full-pipeline fixture for ownership-proof tests: runs a real MC +
/// node through one certified epoch so genuine witnesses exist.
class OwnershipProofTest : public ::testing::Test {
 protected:
  OwnershipProofTest()
      : miner_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "m"))),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "a"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "b"))),
        chain_(mainchain::ChainParams{}),
        miner_(chain_, miner_key_.address()),
        wallet_(miner_key_),
        node_(hash_str(Domain::kGeneric, "own-sc"), 2, 4, 2, 10, 8) {
    node_.add_forger(alice_);
    mainchain::Mempool pool;
    pool.sidechain_creations.push_back(node_.mc_params());
    step(pool);
    mainchain::Mempool ft;
    ft.transactions.push_back(*wallet_.forward_transfer(
        chain_.state(), node_.mc_params().ledger_id,
        {alice_.address(), alice_.address()}, 777));
    step(ft);
    // Finish epoch 0 (heights 2..5) and mine the certificate at height 6.
    while (chain_.height() < 5) step({});
    mainchain::Mempool cp;
    cp.certificates.push_back(*node_.build_certificate());
    step(cp);
  }

  void step(const mainchain::Mempool& pool) {
    mainchain::Block out;
    auto r = miner_.mine_and_submit(pool, &out);
    if (!r.accepted()) throw std::logic_error(r.error);
    std::string err = node_.observe_mc_block(out);
    if (!err.empty()) throw std::logic_error(err);
    err = node_.forge_until_synced();
    if (!err.empty()) throw std::logic_error(err);
  }

  KeyPair miner_key_, alice_, bob_;
  mainchain::Blockchain chain_;
  mainchain::Miner miner_;
  mainchain::Wallet wallet_;
  LatusNode node_;
};

TEST_F(OwnershipProofTest, BtrProofVerifiesAndBinds) {
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  auto btr = node_.create_btr(coins[0], alice_, alice_.address());
  const auto* sc =
      chain_.state().find_sidechain(node_.mc_params().ledger_id);
  auto st = mainchain::btr_statement(sc->last_cert_block, btr.nullifier,
                                     btr.receiver, btr.amount,
                                     btr.proofdata_root());
  EXPECT_TRUE(snark::PredicateSnark::verify(node_.mc_params().btr_vk, st,
                                            btr.proof));
  // Changing the receiver invalidates the proof (theft protection).
  auto stolen = mainchain::btr_statement(sc->last_cert_block, btr.nullifier,
                                         bob_.address(), btr.amount,
                                         btr.proofdata_root());
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().btr_vk,
                                             stolen, btr.proof));
  // So does changing the amount.
  auto inflated = mainchain::btr_statement(
      sc->last_cert_block, btr.nullifier, btr.receiver, btr.amount + 1,
      btr.proofdata_root());
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().btr_vk,
                                             inflated, btr.proof));
}

TEST_F(OwnershipProofTest, NonOwnerCannotProve) {
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 1u);
  // Bob tries to claim alice's coin: the circuit rejects his signature.
  EXPECT_THROW((void)node_.create_btr(coins[0], bob_, bob_.address()),
               std::invalid_argument);
}

TEST_F(OwnershipProofTest, FabricatedUtxoCannotProve) {
  Utxo fake{alice_.address(), 1'000'000,
            hash_str(Domain::kGeneric, "counterfeit")};
  EXPECT_THROW((void)node_.create_btr(fake, alice_, alice_.address()),
               std::invalid_argument);
}

TEST_F(OwnershipProofTest, CswProofDomainSeparatedFromBtr) {
  auto coins = node_.state().utxos_of(alice_.address());
  auto btr = node_.create_btr(coins[0], alice_, alice_.address());
  // A BTR proof must not verify as a CSW (distinct statement domain).
  const auto* sc =
      chain_.state().find_sidechain(node_.mc_params().ledger_id);
  auto csw_st = mainchain::csw_statement(sc->last_cert_block, btr.nullifier,
                                         btr.receiver, btr.amount,
                                         merkle::merkle_root({}));
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().csw_vk,
                                             csw_st, btr.proof));
}

}  // namespace
}  // namespace zendoo::latus
