// LatusNode + ScValidator tests: the produce/verify pair for sidechain
// blocks (§5.1, §5.5.1), driven by a real mainchain.
#include "latus/node.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "latus/validation.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::latus {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;

/// `sig` with its response scalar moved by one: in range, but invalid.
crypto::Signature tampered_s(crypto::Signature sig) {
  sig.s = crypto::u256::addmod(sig.s, crypto::u256{1}, crypto::secp256k1::kN);
  return sig;
}

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : miner_key_(KeyPair::from_seed(hash_str(Domain::kGeneric, "m"))),
        alice_(KeyPair::from_seed(hash_str(Domain::kGeneric, "a"))),
        bob_(KeyPair::from_seed(hash_str(Domain::kGeneric, "b"))),
        chain_(mainchain::ChainParams{}),
        miner_(chain_, miner_key_.address()),
        wallet_(miner_key_),
        node_(hash_str(Domain::kGeneric, "node-test-sc"), /*start=*/2,
              /*epoch_len=*/4, /*submit_len=*/2, /*depth=*/10,
              /*slots=*/8) {
    node_.add_forger(alice_);
    // Register the sidechain on the MC.
    mainchain::Mempool pool;
    pool.sidechain_creations.push_back(node_.mc_params());
    mine_and_observe(pool);
  }

  mainchain::Block mine_and_observe(const mainchain::Mempool& pool) {
    mainchain::Block out;
    auto r = miner_.mine_and_submit(pool, &out);
    if (!r.accepted()) throw std::logic_error(r.error);
    std::string err = node_.observe_mc_block(out);
    if (!err.empty()) throw std::logic_error(err);
    return out;
  }

  /// Credits alice with `coins` coins of `amount` each, in one MC block.
  void fund_alice(mainchain::Amount amount, std::size_t coins = 1) {
    mainchain::Mempool pool;
    pool.transactions.push_back(*wallet_.forward_transfer_many(
        chain_.state(), node_.mc_params().ledger_id,
        std::vector<mainchain::Wallet::FtSpec>(
            coins, {{alice_.address(), alice_.address()}, amount})));
    mine_and_observe(pool);
    ASSERT_EQ(node_.forge_until_synced(), "");
  }

  KeyPair miner_key_, alice_, bob_;
  mainchain::Blockchain chain_;
  mainchain::Miner miner_;
  mainchain::Wallet wallet_;
  LatusNode node_;
};

TEST_F(NodeTest, ObserveRequiresOrder) {
  mainchain::Block b1;
  auto r = miner_.mine_and_submit({}, &b1);
  ASSERT_TRUE(r.accepted());
  mainchain::Block b2;
  r = miner_.mine_and_submit({}, &b2);
  ASSERT_TRUE(r.accepted());
  // Feeding block 3 (b2) before block 2 (b1) must fail.
  EXPECT_NE(node_.observe_mc_block(b2), "");
  EXPECT_EQ(node_.observe_mc_block(b1), "");
  EXPECT_EQ(node_.observe_mc_block(b2), "");
}

TEST_F(NodeTest, RefusedMcBlockDoesNotWedgeObservation) {
  // A block whose body was tampered after mining is refused, and the
  // genuine block at that height is still observed and credited.
  mainchain::Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), node_.mc_params().ledger_id,
      {alice_.address(), alice_.address()}, 1'000));
  mainchain::Block genuine;
  ASSERT_TRUE(miner_.mine_and_submit(pool, &genuine).accepted());
  mainchain::Block tampered = genuine;
  bool tampered_ft = false;
  for (mainchain::Transaction& tx : tampered.transactions) {
    for (auto& ft : tx.forward_transfers) {
      ft.amount += 1;
      tampered_ft = true;
    }
  }
  ASSERT_TRUE(tampered_ft);
  auto last = node_.last_observed_mc_height();
  EXPECT_NE(node_.observe_mc_block(tampered), "");
  EXPECT_EQ(node_.last_observed_mc_height(), last);
  EXPECT_EQ(node_.observed_mc_hash(genuine.header.height), std::nullopt);

  EXPECT_EQ(node_.observe_mc_block(genuine), "");
  ASSERT_EQ(node_.forge_until_synced(), "");
  EXPECT_EQ(node_.state().balance_of(alice_.address()), 1'000u);
}

TEST_F(NodeTest, ForgeConsumesReferences) {
  EXPECT_TRUE(node_.has_pending_refs());
  ASSERT_EQ(node_.forge_until_synced(), "");
  EXPECT_FALSE(node_.has_pending_refs());
  EXPECT_GE(node_.height(), 1u);
}

TEST_F(NodeTest, ForgeWithoutForgersFails) {
  LatusNode bare(hash_str(Domain::kGeneric, "bare"), 2, 4, 2, 10, 8);
  EXPECT_EQ(bare.forge_block(), "no forgers registered");
}

TEST_F(NodeTest, FundsArriveAndCertificateBuilds) {
  fund_alice(10'000);
  EXPECT_EQ(node_.state().balance_of(alice_.address()), 10'000u);
  // Complete withdrawal epoch 0 (MC heights 2..5).
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  EXPECT_EQ(node_.pending_certificates(), 1u);
  snark::RecursionStats stats;
  auto cert = node_.build_certificate(&stats);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->epoch_id, 0u);
  EXPECT_EQ(cert->ledger_id, node_.mc_params().ledger_id);
  EXPECT_EQ(cert->proofdata.size(), LatusProofSystem::kWcertProofdataLen);
  EXPECT_GE(stats.base_proofs, 1u);  // at least the FTTx transition
  // The certificate verifies against the MC-enforced statement.
  auto [prev, last] =
      chain_.state().epoch_boundary_hashes(node_.mc_params(), 0);
  auto st = mainchain::wcert_statement_for(*cert, prev, last);
  EXPECT_TRUE(snark::PredicateSnark::verify(node_.mc_params().wcert_vk, st,
                                            cert->proof));
  // ...and not against a tampered one.
  auto bad = st;
  bad[0] = snark::statement_u64(cert->quality + 1);
  EXPECT_FALSE(snark::PredicateSnark::verify(node_.mc_params().wcert_vk, bad,
                                             cert->proof));
}

TEST_F(NodeTest, QualityIsChainHeight) {
  fund_alice(10'000);
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  std::uint64_t boundary_height = node_.height();
  auto cert = node_.build_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->quality, boundary_height);
}

TEST_F(NodeTest, ValidatorAcceptsHonestChain) {
  fund_alice(50'000);
  // Some payment traffic.
  auto coins = node_.state().utxos_of(alice_.address());
  node_.submit_payment(
      build_payment({coins[0]}, alice_,
                    {{bob_.address(), 20'000}, {alice_.address(), 30'000}}));
  while (chain_.height() < 7) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  ScValidator validator(node_.mc_params(), 10, 8, alice_.address());
  for (const ScBlock& b : node_.chain()) {
    ASSERT_EQ(validator.accept(b), "") << "at SC height " << b.header.height;
  }
  EXPECT_EQ(validator.height(), node_.height());
  EXPECT_EQ(validator.state().balance_of(bob_.address()), 20'000u);
  EXPECT_EQ(validator.state().commitment(), node_.state().commitment());
}

TEST_F(NodeTest, ValidatorRejectsTamperedBlocks) {
  // Six SC blocks, all in alice's first consensus epoch:
  //  [0] references MC 1-2; MC 2 funds alice with three coins;
  //  [1] references MC 3 and carries a payment and a backward transfer;
  //  [2] references MC 4; [3] MC 5, which closes withdrawal epoch 0;
  //  [4] references MC 6, which carries epoch 0's certificate;
  //  [5] references MC 7, which carries a BTR for alice's third coin.
  fund_alice(10'000, 3);
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 3u);
  node_.submit_payment(
      build_payment({coins[0]}, alice_, {{bob_.address(), 10'000}}));
  node_.submit_backward_transfer(build_backward_transfer(
      {coins[1]}, alice_, {{alice_.address(), 10'000}}));
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  mainchain::Mempool with_cert;
  with_cert.certificates.push_back(*node_.build_certificate());
  mine_and_observe(with_cert);
  ASSERT_EQ(node_.forge_until_synced(), "");
  mainchain::Mempool with_btr;
  with_btr.btrs.push_back(node_.create_btr(coins[2], alice_, alice_.address()));
  mine_and_observe(with_btr);
  ASSERT_EQ(node_.forge_until_synced(), "");

  const std::vector<ScBlock>& chain = node_.chain();
  ASSERT_EQ(chain.size(), 6u);
  ASSERT_EQ(chain[0].mc_refs.size(), 2u);
  ASSERT_TRUE(chain[0].mc_refs[1].forward_transfers.has_value());
  ASSERT_EQ(chain[1].payments.size(), 1u);
  ASSERT_EQ(chain[1].bt_txs.size(), 1u);
  ASSERT_TRUE(chain[5].mc_refs[0].bt_requests.has_value());
  ASSERT_EQ(chain[5].mc_refs[0].bt_requests->backward_transfers.size(), 1u);
  auto make_validator = [&] {
    return ScValidator(node_.mc_params(), 10, 8, alice_.address());
  };
  {
    auto v = make_validator();
    for (const ScBlock& b : chain) ASSERT_EQ(v.accept(b), "");
  }

  // Each tamper re-signs the block as alice, the leader of every slot
  // here, so that no rule before the one it names fires.
  auto resign = [&](ScBlock& b) {
    b.header.forger_sig = alice_.sign(b.header.signing_digest());
  };
  auto rebody = [&](ScBlock& b) {
    b.header.body_root = b.compute_body_root();
    resign(b);
  };
  struct Case {
    std::size_t at;  ///< index of the tampered block
    std::string expected;
    std::function<void(ScBlock&)> tamper;
  };
  const std::vector<Case> cases = {
      {0, "SC block height mismatch",
       [&](ScBlock& b) {
         b.header.height = 5;
         resign(b);
       }},
      {1, "SC block does not extend tip",
       [&](ScBlock& b) {
         b.header.prev_hash.bytes[0] ^= 1;
         resign(b);
       }},
      {0, "SC block consensus epoch mismatch",
       [&](ScBlock& b) {
         b.header.epoch = 1;
         resign(b);
       }},
      {0, "SC block slot mismatch",
       [&](ScBlock& b) {
         b.header.slot = 1;
         resign(b);
       }},
      {0, "block forged by non-leader",
       [&](ScBlock& b) {
         b.header.forger = bob_.address();
         resign(b);
       }},
      {0, "forger public key does not match forger address",
       [&](ScBlock& b) {
         b.header.forger_pubkey = bob_.public_key();
         resign(b);
       }},
      {0, "invalid forger signature",
       [&](ScBlock& b) {
         b.header.forger_sig = tampered_s(b.header.forger_sig);
       }},
      {0, "SC body root mismatch",
       [&](ScBlock& b) {
         b.payments.push_back(PaymentTx{});
         resign(b);
       }},
      {0,
       "MC reference invalid: synced transactions do not match committed "
       "TxsHash",
       [&](ScBlock& b) {
         b.mc_refs[1].forward_transfers->fts[0].ft.amount += 1;
         rebody(b);
       }},
      {0, "MC references out of order",
       [&](ScBlock& b) {
         std::swap(b.mc_refs[0], b.mc_refs[1]);
         rebody(b);
       }},
      {0, "FTTx derived fields do not match re-execution",
       [&](ScBlock& b) {
         b.mc_refs[1].forward_transfers->outputs[0].amount += 1;
         rebody(b);
       }},
      {5, "BTRTx derived fields do not match re-execution",
       [&](ScBlock& b) {
         b.mc_refs[0].bt_requests->backward_transfers[0].amount += 1;
         rebody(b);
       }},
      {1, "payment invalid: invalid input signature",
       [&](ScBlock& b) {
         SignedInput& in = b.payments[0].inputs[0];
         in.sig = tampered_s(in.sig);
         rebody(b);
       }},
      {1, "backward transfer invalid: invalid input signature",
       [&](ScBlock& b) {
         SignedInput& in = b.bt_txs[0].inputs[0];
         in.sig = tampered_s(in.sig);
         rebody(b);
       }},
      {0, "state commitment mismatch after re-execution",
       [&](ScBlock& b) {
         b.header.state_commitment.bytes[0] ^= 1;
         resign(b);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.expected);
    auto v = make_validator();
    for (std::size_t i = 0; i < c.at; ++i) ASSERT_EQ(v.accept(chain[i]), "");
    ScBlock bad = chain[c.at];
    c.tamper(bad);
    EXPECT_EQ(v.accept(bad), c.expected);
    EXPECT_EQ(v.height(), c.at);
  }
}

TEST_F(NodeTest, ValidatorEndsABlockAtTheWithdrawalEpochBoundary) {
  // Withdrawal epoch 0 is MC heights 2..5. The SC block referencing MC 5
  // closes it, so the forger puts neither MC 6's reference nor a payment
  // into that block (§5.1.1). Leader-signed blocks that do are refused,
  // though each carries the state commitment its contents reach.
  fund_alice(50'000);
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  mainchain::Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), node_.mc_params().ledger_id,
      {bob_.address(), bob_.address()}, 7'000));
  mine_and_observe(pool);
  ASSERT_EQ(node_.forge_until_synced(), "");

  const std::vector<ScBlock>& chain = node_.chain();
  const std::size_t closing = chain.size() - 2;
  ASSERT_EQ(chain[closing].mc_refs.back().header.height, 5u);
  const McBlockReference& next_ref = chain[closing + 1].mc_refs.front();
  ASSERT_EQ(next_ref.header.height, 6u);
  ASSERT_TRUE(next_ref.forward_transfers.has_value());
  auto validator_before_closing = [&] {
    ScValidator v(node_.mc_params(), 10, 8, alice_.address());
    for (std::size_t i = 0; i < closing; ++i) {
      EXPECT_EQ(v.accept(chain[i]), "");
    }
    return v;
  };
  auto seal = [&](ScBlock& b, const LatusState& reached) {
    b.header.state_commitment = reached.commitment();
    b.header.body_root = b.compute_body_root();
    b.header.forger_sig = alice_.sign(b.header.signing_digest());
  };

  {  // MC 6's reference appended: its forward transfer would land in epoch 0.
    ScValidator v = validator_before_closing();
    ScBlock bad = chain[closing];
    bad.mc_refs.push_back(next_ref);
    LatusState reached = v.state();
    ForwardTransfersTx fttx = *next_ref.forward_transfers;
    ASSERT_EQ(apply_forward_transfers(reached, fttx), "");
    seal(bad, reached);
    EXPECT_EQ(v.accept(bad),
              "MC reference after the withdrawal-epoch boundary");
  }
  {  // A valid payment in the closing block.
    ScValidator v = validator_before_closing();
    ScBlock bad = chain[closing];
    LatusState reached = v.state();
    auto coins = reached.utxos_of(alice_.address());
    ASSERT_EQ(coins.size(), 1u);
    bad.payments.push_back(
        build_payment({coins[0]}, alice_, {{bob_.address(), 50'000}}));
    crypto::SignatureMemo memo;
    ASSERT_EQ(apply_payment(reached, bad.payments[0], memo), "");
    seal(bad, reached);
    EXPECT_EQ(v.accept(bad),
              "SC transactions in a withdrawal-epoch boundary block");
  }
}

TEST_F(NodeTest, EmptyEpochCertificate) {
  // Epoch with zero transitions: no FTs, no payments — heartbeat cert.
  while (chain_.height() < 5) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  auto cert = node_.build_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_TRUE(cert->bt_list.empty());
  auto [prev, last] =
      chain_.state().epoch_boundary_hashes(node_.mc_params(), 0);
  auto st = mainchain::wcert_statement_for(*cert, prev, last);
  EXPECT_TRUE(snark::PredicateSnark::verify(node_.mc_params().wcert_vk, st,
                                            cert->proof));
}

TEST_F(NodeTest, CreateBtrRequiresObservedCertificate) {
  fund_alice(1'000);
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_FALSE(coins.empty());
  EXPECT_THROW((void)node_.create_btr(coins[0], alice_, alice_.address()),
               std::logic_error);
}

TEST_F(NodeTest, HeartbeatBlockWithNothingToInclude) {
  // Forging with no refs and no mempool produces a valid empty block
  // whose state commitment equals the previous one.
  ASSERT_EQ(node_.forge_until_synced(), "");
  Digest before = node_.state().commitment();
  std::uint64_t h = node_.height();
  ASSERT_EQ(node_.forge_block(), "");
  EXPECT_EQ(node_.height(), h + 1);
  const ScBlock& b = node_.chain().back();
  EXPECT_TRUE(b.mc_refs.empty());
  EXPECT_TRUE(b.payments.empty());
  EXPECT_EQ(b.header.state_commitment, before);
}

TEST_F(NodeTest, InvalidMempoolPaymentDropped) {
  fund_alice(1'000);
  // A payment signed by the wrong key never enters a block.
  auto coins = node_.state().utxos_of(alice_.address());
  node_.submit_payment(
      build_payment({coins[0]}, bob_, {{bob_.address(), 1'000}}));
  ASSERT_EQ(node_.forge_block(), "");
  EXPECT_TRUE(node_.chain().back().payments.empty());
  EXPECT_EQ(node_.state().balance_of(alice_.address()), 1'000u);
}

TEST_F(NodeTest, TamperedSignaturePaymentDropped) {
  fund_alice(1'000, 2);
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 2u);
  PaymentTx tx =
      build_payment({coins[0], coins[1]}, alice_, {{bob_.address(), 2'000}});
  // The first input verifies and enters the memo; the second input's
  // tampered copy of the signature must still fail.
  tx.inputs[1].sig = tampered_s(tx.inputs[1].sig);
  Digest before = node_.state().commitment();
  node_.submit_payment(tx);
  ASSERT_EQ(node_.forge_block(), "");
  EXPECT_TRUE(node_.chain().back().payments.empty());
  EXPECT_EQ(node_.state().commitment(), before);
}

TEST_F(NodeTest, MemoizedPaymentIsStillCheckedByTheCircuit) {
  fund_alice(1'000, 2);
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 2u);
  PaymentTx tx = build_payment({coins[0], coins[1]}, alice_,
                               {{bob_.address(), 1'500},
                                {alice_.address(), 500}});
  LatusState pre = node_.state();
  node_.submit_payment(tx);
  ASSERT_EQ(node_.forge_block(), "");
  ASSERT_EQ(node_.chain().back().payments.size(), 1u);
  const Digest before = pre.commitment();
  const Digest after = node_.state().commitment();
  const LatusProofSystem& proofs = node_.proofs();
  (void)proofs.prove_transition(before, after, TransitionWitness{pre, tx});

  // Same states, tampered s: only the signature can fail.
  PaymentTx bad_sig = tx;
  for (SignedInput& in : bad_sig.inputs) in.sig = tampered_s(in.sig);
  EXPECT_THROW((void)proofs.prove_transition(before, after,
                                             TransitionWitness{pre, bad_sig}),
               std::invalid_argument);

  // A changed amount keeps the signature but not the signing digest.
  // `reached` is the state the changed payment would produce, so again
  // only the signature can fail...
  PaymentTx bad_amount = tx;
  bad_amount.outputs[0].amount -= 1;
  LatusState reached = pre;
  for (const SignedInput& in : bad_amount.inputs) {
    ASSERT_TRUE(reached.remove_utxo(in.utxo));
  }
  for (const Utxo& o : bad_amount.outputs) ASSERT_TRUE(reached.insert_utxo(o));
  EXPECT_THROW(
      (void)proofs.prove_transition(before, reached.commitment(),
                                    TransitionWitness{pre, bad_amount}),
      std::invalid_argument);
  // ...as the same payment, signed by alice, proves.
  PaymentTx resigned = build_payment({coins[0], coins[1]}, alice_,
                                     {{bob_.address(), 1'499},
                                      {alice_.address(), 500}});
  ASSERT_EQ(resigned.outputs, bad_amount.outputs);
  (void)proofs.prove_transition(before, reached.commitment(),
                                TransitionWitness{pre, resigned});
}

TEST_F(NodeTest, EpochVerifiesEachPaymentSignatureOnce) {
  // k two-input payments, forged and then proven into the certificate:
  // each signature is verified once, in the batch forge_block primes the
  // memo with. Both inputs at forging and both inputs' re-run in the
  // transition circuit hit the memo (4k verifications without it).
  constexpr std::uint64_t k = 3;
  fund_alice(1'000, 2 * k);
  while (node_.pending_certificates() > 0) {
    ASSERT_TRUE(node_.build_certificate().has_value());
  }
  auto coins = node_.state().utxos_of(alice_.address());
  ASSERT_EQ(coins.size(), 2 * k);
  const crypto::SignatureMemoStats start =
      node_.proofs().signature_memo().stats();
  for (std::uint64_t i = 0; i < k; ++i) {
    node_.submit_payment(build_payment({coins[2 * i], coins[2 * i + 1]},
                                       alice_, {{bob_.address(), 2'000}}));
  }
  ASSERT_EQ(node_.forge_block(), "");
  ASSERT_EQ(node_.chain().back().payments.size(), k);
  while (node_.pending_certificates() == 0) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  ASSERT_EQ(node_.pending_certificates(), 1u);
  ASSERT_TRUE(node_.build_certificate().has_value());
  const crypto::SignatureMemoStats end =
      node_.proofs().signature_memo().stats();
  EXPECT_EQ(end.executed - start.executed, k);
  EXPECT_EQ(end.hits - start.hits, 4 * k);
}

TEST_F(NodeTest, MultiForgerLeadershipRotates) {
  // With two funded stakeholders the slot schedule eventually picks both.
  node_.add_forger(bob_);
  fund_alice(500'000);
  mainchain::Mempool pool;
  pool.transactions.push_back(*wallet_.forward_transfer(
      chain_.state(), node_.mc_params().ledger_id,
      {bob_.address(), bob_.address()}, 500'000));
  mine_and_observe(pool);
  ASSERT_EQ(node_.forge_until_synced(), "");
  // Forge plenty of empty-ish blocks to cross consensus epochs (8 slots).
  std::unordered_map<Digest, int, crypto::DigestHash> forged_by;
  for (int i = 0; i < 40; ++i) {
    mine_and_observe({});
    ASSERT_EQ(node_.forge_until_synced(), "");
  }
  for (const ScBlock& b : node_.chain()) {
    forged_by[b.header.forger] += 1;
  }
  // After funding, both stakeholders should have led some slots.
  EXPECT_GT(forged_by[alice_.address()], 0);
  EXPECT_GT(forged_by[bob_.address()], 0);
}

}  // namespace
}  // namespace zendoo::latus
