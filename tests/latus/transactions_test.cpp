#include "latus/transactions.hpp"

#include <gtest/gtest.h>

#include "crypto/rng.hpp"

namespace zendoo::latus {
namespace {

using crypto::hash_str;
using crypto::KeyPair;

struct Fixture : ::testing::Test {
  Fixture()
      : alice(KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"))),
        bob(KeyPair::from_seed(hash_str(Domain::kGeneric, "bob"))),
        state(10) {}

  /// Put a coin owned by `key` into the state.
  Utxo credit(const KeyPair& key, Amount amount, const std::string& seed) {
    Utxo u{key.address(), amount, hash_str(Domain::kGeneric, seed)};
    EXPECT_TRUE(state.insert_utxo(u));
    return u;
  }

  KeyPair alice, bob;
  LatusState state;
  crypto::SignatureMemo memo;
};

using PaymentTest = Fixture;

TEST_F(PaymentTest, ValidPaymentMovesCoins) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx = build_payment({coin}, alice,
                               {{bob.address(), 60}, {alice.address(), 40}});
  ASSERT_EQ(apply_payment(state, tx, memo), "");
  EXPECT_FALSE(state.contains(coin));
  EXPECT_EQ(state.balance_of(bob.address()), 60u);
  EXPECT_EQ(state.balance_of(alice.address()), 40u);
  EXPECT_EQ(state.total_supply(), 100u);
}

TEST_F(PaymentTest, OverspendRejected) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx = build_payment({coin}, alice, {{bob.address(), 101}});
  EXPECT_NE(apply_payment(state, tx, memo), "");
  EXPECT_TRUE(state.contains(coin));
}

TEST_F(PaymentTest, WrongKeyRejected) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx = build_payment({coin}, bob, {{bob.address(), 100}});
  EXPECT_NE(apply_payment(state, tx, memo), "");
}

TEST_F(PaymentTest, TamperedSignatureRejected) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx = build_payment({coin}, alice, {{bob.address(), 100}});
  tx.inputs[0].sig.s =
      crypto::u256::addmod(tx.inputs[0].sig.s, crypto::u256{1},
                           crypto::secp256k1::kN);
  EXPECT_NE(apply_payment(state, tx, memo), "");
}

TEST_F(PaymentTest, TamperedOutputRejected) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx = build_payment({coin}, alice, {{bob.address(), 50}});
  tx.outputs[0].amount = 100;  // breaks the signature
  EXPECT_NE(apply_payment(state, tx, memo), "");
}

TEST_F(PaymentTest, UnknownInputRejected) {
  Utxo ghost{alice.address(), 100, hash_str(Domain::kGeneric, "ghost")};
  PaymentTx tx = build_payment({ghost}, alice, {{bob.address(), 100}});
  EXPECT_EQ(apply_payment(state, tx, memo), "input not in the MST");
}

TEST_F(PaymentTest, DoubleSpendAcrossTxsRejected) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx1 = build_payment({coin}, alice, {{bob.address(), 100}});
  PaymentTx tx2 = build_payment({coin}, alice, {{alice.address(), 100}});
  ASSERT_EQ(apply_payment(state, tx1, memo), "");
  EXPECT_EQ(apply_payment(state, tx2, memo), "input not in the MST");
}

TEST_F(PaymentTest, DuplicateInputWithinTxRejected) {
  Utxo coin = credit(alice, 100, "c1");
  PaymentTx tx = build_payment({coin, coin}, alice, {{bob.address(), 150}});
  EXPECT_EQ(apply_payment(state, tx, memo), "duplicate input");
}

TEST_F(PaymentTest, MultiInputPayment) {
  Utxo c1 = credit(alice, 60, "c1");
  Utxo c2 = credit(alice, 40, "c2");
  PaymentTx tx = build_payment({c1, c2}, alice, {{bob.address(), 100}});
  ASSERT_EQ(apply_payment(state, tx, memo), "");
  EXPECT_EQ(state.balance_of(bob.address()), 100u);
  EXPECT_EQ(state.balance_of(alice.address()), 0u);
  // Both inputs carry one copied signature: verified once, then a hit.
  EXPECT_EQ(memo.stats().executed, 1u);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST_F(PaymentTest, TamperedSecondInputMissesTheMemo) {
  Utxo c1 = credit(alice, 60, "c1");
  Utxo c2 = credit(alice, 40, "c2");
  PaymentTx tx = build_payment({c1, c2}, alice, {{bob.address(), 100}});
  tx.inputs[1].sig.s =
      crypto::u256::addmod(tx.inputs[1].sig.s, crypto::u256{1},
                           crypto::secp256k1::kN);
  // The first input verifies and enters the memo; the second input's
  // triple differs in s, so it is verified in full and fails.
  EXPECT_EQ(apply_payment(state, tx, memo), "invalid input signature");
  EXPECT_EQ(memo.stats().executed, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_TRUE(state.contains(c1));
  EXPECT_TRUE(state.contains(c2));
}

using FtTest = Fixture;

SyncedForwardTransfer synced_ft(std::vector<Digest> metadata, Amount amount,
                                const std::string& txseed,
                                std::uint32_t index = 0) {
  SyncedForwardTransfer s;
  s.ft.ledger_id = hash_str(Domain::kGeneric, "sc");
  s.ft.receiver_metadata = std::move(metadata);
  s.ft.amount = amount;
  s.mc_txid = hash_str(Domain::kTxId, txseed);
  s.index = index;
  return s;
}

TEST_F(FtTest, ValidTransferCreditsReceiver) {
  ForwardTransfersTx tx;
  tx.mc_block_id = hash_str(Domain::kBlockHeader, "mc1");
  tx.fts.push_back(
      synced_ft({alice.address(), bob.address()}, 500, "t1"));
  ASSERT_EQ(apply_forward_transfers(state, tx), "");
  ASSERT_EQ(tx.outputs.size(), 1u);
  EXPECT_TRUE(tx.rejected_transfers.empty());
  EXPECT_EQ(state.balance_of(alice.address()), 500u);
}

TEST_F(FtTest, MalformedMetadataRefunds) {
  ForwardTransfersTx tx;
  tx.mc_block_id = hash_str(Domain::kBlockHeader, "mc1");
  // Only one metadata entry: malformed for Latus, refund to it.
  tx.fts.push_back(synced_ft({bob.address()}, 300, "t1"));
  ASSERT_EQ(apply_forward_transfers(state, tx), "");
  EXPECT_TRUE(tx.outputs.empty());
  ASSERT_EQ(tx.rejected_transfers.size(), 1u);
  EXPECT_EQ(tx.rejected_transfers[0].receiver, bob.address());
  EXPECT_EQ(tx.rejected_transfers[0].amount, 300u);
  // The refund is queued as a backward transfer for the next certificate.
  ASSERT_EQ(state.backward_transfers().size(), 1u);
  EXPECT_EQ(state.total_supply(), 0u);
}

TEST_F(FtTest, EmptyMetadataStrandsCoins) {
  ForwardTransfersTx tx;
  tx.fts.push_back(synced_ft({}, 100, "t1"));
  ASSERT_EQ(apply_forward_transfers(state, tx), "");
  EXPECT_TRUE(tx.outputs.empty());
  EXPECT_TRUE(tx.rejected_transfers.empty());
}

TEST_F(FtTest, SlotCollisionRefundsViaPayback) {
  ForwardTransfersTx tx1;
  tx1.fts.push_back(
      synced_ft({alice.address(), bob.address()}, 100, "t1", 0));
  ASSERT_EQ(apply_forward_transfers(state, tx1), "");
  ASSERT_EQ(tx1.outputs.size(), 1u);

  // Same leaf data -> same nonce -> same slot: second transfer collides.
  ForwardTransfersTx tx2;
  tx2.fts.push_back(
      synced_ft({alice.address(), bob.address()}, 100, "t1", 0));
  ASSERT_EQ(apply_forward_transfers(state, tx2), "");
  EXPECT_TRUE(tx2.outputs.empty());
  ASSERT_EQ(tx2.rejected_transfers.size(), 1u);
  EXPECT_EQ(tx2.rejected_transfers[0].receiver, bob.address());
}

using BtTest = Fixture;

TEST_F(BtTest, BackwardTransferQueuesBt) {
  Utxo coin = credit(alice, 100, "c1");
  BackwardTransferTx tx = build_backward_transfer(
      {coin}, alice, {{hash_str(Domain::kAddress, "mc-alice"), 100}});
  ASSERT_EQ(apply_backward_transfer(state, tx, memo), "");
  EXPECT_FALSE(state.contains(coin));
  ASSERT_EQ(state.backward_transfers().size(), 1u);
  EXPECT_EQ(state.backward_transfers()[0].amount, 100u);
  EXPECT_EQ(state.total_supply(), 0u);
}

TEST_F(BtTest, BtOverspendRejected) {
  Utxo coin = credit(alice, 100, "c1");
  BackwardTransferTx tx = build_backward_transfer(
      {coin}, alice, {{hash_str(Domain::kAddress, "mc-alice"), 101}});
  EXPECT_NE(apply_backward_transfer(state, tx, memo), "");
  EXPECT_TRUE(state.contains(coin));
}

TEST_F(BtTest, EmptyBtListRejected) {
  Utxo coin = credit(alice, 100, "c1");
  BackwardTransferTx tx = build_backward_transfer({coin}, alice, {});
  EXPECT_NE(apply_backward_transfer(state, tx, memo), "");
}

using BtrTxTest = Fixture;

mainchain::BtrRequest btr_for(const Utxo& utxo, const Address& receiver) {
  mainchain::BtrRequest r;
  r.ledger_id = hash_str(Domain::kGeneric, "sc");
  r.receiver = receiver;
  r.amount = utxo.amount;
  r.nullifier = utxo.nullifier();
  r.proofdata = encode_utxo_proofdata(utxo);
  return r;
}

TEST_F(BtrTxTest, ValidRequestSpawnsBt) {
  Utxo coin = credit(alice, 100, "c1");
  BtrTx tx;
  tx.requests.push_back(btr_for(coin, hash_str(Domain::kAddress, "mc")));
  ASSERT_EQ(apply_btr(state, tx), "");
  ASSERT_EQ(tx.backward_transfers.size(), 1u);
  EXPECT_FALSE(state.contains(coin));
  EXPECT_EQ(state.backward_transfers().size(), 1u);
}

TEST_F(BtrTxTest, SpentUtxoRejectedSilently) {
  Utxo coin = credit(alice, 100, "c1");
  // Spend it first inside the SC (the §5.3.4 double-spend race).
  PaymentTx spend = build_payment({coin}, alice, {{bob.address(), 100}});
  ASSERT_EQ(apply_payment(state, spend, memo), "");
  BtrTx tx;
  tx.requests.push_back(btr_for(coin, hash_str(Domain::kAddress, "mc")));
  ASSERT_EQ(apply_btr(state, tx), "");  // tx applies...
  EXPECT_TRUE(tx.backward_transfers.empty());  // ...but spawns nothing
}

TEST_F(BtrTxTest, AmountMismatchRejected) {
  Utxo coin = credit(alice, 100, "c1");
  auto req = btr_for(coin, hash_str(Domain::kAddress, "mc"));
  req.amount = 50;
  BtrTx tx;
  tx.requests.push_back(req);
  ASSERT_EQ(apply_btr(state, tx), "");
  EXPECT_TRUE(tx.backward_transfers.empty());
  EXPECT_TRUE(state.contains(coin));
}

TEST_F(BtrTxTest, MalformedProofdataRejected) {
  Utxo coin = credit(alice, 100, "c1");
  auto req = btr_for(coin, hash_str(Domain::kAddress, "mc"));
  req.proofdata.pop_back();
  BtrTx tx;
  tx.requests.push_back(req);
  ASSERT_EQ(apply_btr(state, tx), "");
  EXPECT_TRUE(tx.backward_transfers.empty());
}

TEST(ProofdataCodec, RoundTrip) {
  Utxo u{hash_str(Domain::kAddress, "x"), 123456789,
         hash_str(Domain::kGeneric, "nonce")};
  auto enc = encode_utxo_proofdata(u);
  ASSERT_EQ(enc.size(), 3u);
  auto dec = decode_utxo_proofdata(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, u);
}

TEST(ProofdataCodec, RejectsOversizedAmount) {
  std::vector<Digest> enc = {Digest{}, Digest{}, Digest{}};
  enc[1].bytes[0] = 0xFF;  // amount > 2^64
  EXPECT_FALSE(decode_utxo_proofdata(enc).has_value());
}

TEST(TxIds, DistinctAcrossTypes) {
  KeyPair k = KeyPair::from_seed(hash_str(Domain::kGeneric, "k"));
  Utxo coin{k.address(), 10, hash_str(Domain::kGeneric, "n")};
  PaymentTx pay = build_payment({coin}, k, {{k.address(), 10}});
  BackwardTransferTx bt =
      build_backward_transfer({coin}, k, {{k.address(), 10}});
  EXPECT_NE(pay.id(), bt.id());
  EXPECT_NE(tx_id(TxVariant{pay}), tx_id(TxVariant{bt}));
}

}  // namespace
}  // namespace zendoo::latus
