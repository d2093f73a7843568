// Differential tests for the parallel validation pipeline: connecting the
// same proof-heavy blocks under every pipeline configuration — the batch
// on the caller with the cache off, then 0/1/2/8 workers with the cache
// on — must produce byte-identical outcomes (accept/reject, error string,
// state fingerprint), a rejection must leave the same cache state at
// every worker count, and the shared verified-check cache must make a
// dry_run→connect of one block pay for each check exactly once. A batch
// runs each distinct check once, and reports the first failure of a
// sequential run whether it sits in a signature group or a SNARK proof.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mainchain/chain.hpp"

namespace zendoo::mainchain {
namespace {

using parallel::ValidationConfig;
using parallel::ValidationStats;

constexpr std::uint64_t kSigs = 5;
constexpr std::uint64_t kCsws = 2;
constexpr std::uint64_t kSegmentBlocks = 4;
constexpr Amount kFtAmount = 1'000'000;

/// The sequential reference: the batch runs on the caller, and no check
/// is answered from the cache.
constexpr ValidationConfig kSequential{0, 0};

/// Worker counts every sweep covers, with the cache on.
constexpr unsigned kWorkerCounts[] = {0, 1, 2, 8};

/// Every pipeline configuration under test; the first is the sequential
/// reference the others must match byte for byte.
std::vector<ValidationConfig> all_configs() {
  std::vector<ValidationConfig> configs{kSequential};
  for (unsigned workers : kWorkerCounts) configs.push_back({workers, 1 << 12});
  return configs;
}

std::string config_name(const ValidationConfig& c) {
  return "workers:" + std::to_string(c.worker_threads) +
         (c.cache_capacity == 0 ? "/no-cache" : "");
}

/// Deterministic chain whose tail blocks each carry kSigs signature
/// checks, one withdrawal certificate and kCsws ceased-sidechain
/// withdrawals — the same shape the bench uses, sized for a test.
struct ProofHeavyChain {
  ChainParams params;
  std::vector<Block> blocks;      ///< genesis first
  std::size_t segment_begin = 0;  ///< index of the first proof-heavy block

  ProofHeavyChain() {
    auto key = crypto::KeyPair::from_seed(
        crypto::hash_str(crypto::Domain::kGeneric, "pv-test-key"));
    auto always_true = [](const snark::Statement&, const snark::Witness&) {
      return true;
    };
    auto [wcert_pk, wcert_vk] =
        snark::PredicateSnark::setup(always_true, "pv-test-wcert");
    auto [csw_pk, csw_vk] =
        snark::PredicateSnark::setup(always_true, "pv-test-csw");

    SidechainParams live_sc;
    live_sc.ledger_id = crypto::hash_str(crypto::Domain::kGeneric, "pv-live");
    live_sc.start_block = 4;
    live_sc.epoch_len = 2;
    live_sc.submit_len = 2;
    live_sc.wcert_vk = wcert_vk;

    SidechainParams csw_sc;
    csw_sc.ledger_id = crypto::hash_str(crypto::Domain::kGeneric, "pv-csw");
    csw_sc.start_block = 2;
    csw_sc.epoch_len = 2;
    csw_sc.submit_len = 2;
    csw_sc.csw_vk = csw_vk;

    ChainState builder(params);

    Block genesis;
    genesis.header.height = 0;
    seal(builder, genesis);

    // h1: register both sidechains.
    Block b1 = begin_block(builder, key.address());
    b1.sidechain_creations = {live_sc, csw_sc};
    seal(builder, b1);

    // h2: fan the h1 coinbase into kSigs outputs; fund the CSW sidechain
    // while it is still active (it ceases at h6, before the segment).
    Amount out_amount = (params.block_subsidy - kFtAmount) / kSigs;
    Transaction fanout;
    fanout.inputs.push_back(
        TxInput{OutPoint{b1.transactions[0].id(), 0}, {}, {}});
    for (std::uint64_t j = 0; j < kSigs; ++j) {
      fanout.outputs.push_back(TxOutput{key.address(), out_amount});
    }
    fanout.forward_transfers.push_back(ForwardTransferOutput{
        csw_sc.ledger_id, {key.address(), key.address()}, kFtAmount});
    fanout = sign_all_inputs(std::move(fanout), key);
    Digest fanout_id = fanout.id();
    Block b2 = begin_block(builder, key.address());
    b2.transactions.push_back(std::move(fanout));
    seal(builder, b2);

    for (std::uint64_t h = 3; h <= 5; ++h) {
      Block b = begin_block(builder, key.address());
      seal(builder, b);
    }
    segment_begin = blocks.size();

    std::vector<Digest> prev_txids(kSigs, fanout_id);
    bool fanout_generation = true;
    for (std::uint64_t s = 0; s < kSegmentBlocks; ++s) {
      Block b = begin_block(builder, key.address());
      std::uint64_t h = b.header.height;
      for (std::uint64_t j = 0; j < kSigs; ++j) {
        Transaction t;
        std::uint32_t out_index =
            fanout_generation ? static_cast<std::uint32_t>(j) : 0;
        t.inputs.push_back(
            TxInput{OutPoint{prev_txids[j], out_index}, {}, {}});
        t.outputs.push_back(TxOutput{key.address(), out_amount});
        t = sign_all_inputs(std::move(t), key);
        prev_txids[j] = t.id();
        b.transactions.push_back(std::move(t));
      }
      fanout_generation = false;

      WithdrawalCertificate cert;
      cert.ledger_id = live_sc.ledger_id;
      cert.epoch_id = (h - 6) / 2;
      cert.quality = h;
      auto [prev_last, last] =
          builder.epoch_boundary_hashes(live_sc, cert.epoch_id);
      snark::Statement st = wcert_statement_for(cert, prev_last, last);
      cert.proof =
          *snark::PredicateSnark::prove(wcert_pk, st, snark::Witness{});
      b.certificates.push_back(std::move(cert));

      for (std::uint64_t j = 0; j < kCsws; ++j) {
        CeasedSidechainWithdrawal csw;
        csw.ledger_id = csw_sc.ledger_id;
        csw.receiver = key.address();
        csw.amount = 1;
        csw.nullifier = crypto::Hasher(crypto::Domain::kGeneric)
                            .write_u64(h)
                            .write_u64(j)
                            .finalize();
        snark::Statement st_csw =
            csw_statement(Digest{}, csw.nullifier, csw.receiver, csw.amount,
                          csw.proofdata_root());
        csw.proof =
            *snark::PredicateSnark::prove(csw_pk, st_csw, snark::Witness{});
        b.csws.push_back(std::move(csw));
      }
      seal(builder, b);
    }
  }

  /// Fresh state with everything before the segment connected.
  [[nodiscard]] ChainState prefix_state(const ValidationConfig& config) const {
    ChainParams p = params;
    p.validation = config;
    ChainState state(p);
    for (std::size_t i = 0; i < segment_begin; ++i) {
      std::string err = state.connect_block(blocks[i]);
      if (!err.empty()) {
        throw std::logic_error("prefix replay failed: " + err);
      }
    }
    return state;
  }

  static const ProofHeavyChain& instance() {
    static ProofHeavyChain chain;
    return chain;
  }

 private:
  static Block begin_block(const ChainState& st, const Address& addr) {
    Block b;
    b.header.prev_hash = st.tip_hash();
    b.header.height = st.height() + 1;
    Transaction cb;
    cb.is_coinbase = true;
    cb.coinbase_height = b.header.height;
    cb.outputs.push_back(TxOutput{addr, ChainParams{}.block_subsidy});
    b.transactions.push_back(std::move(cb));
    return b;
  }

  void seal(ChainState& st, Block& b) {
    b.header.tx_merkle_root = b.compute_tx_merkle_root();
    b.header.sc_txs_commitment = b.build_commitment_tree().root();
    std::string err = st.connect_block(b);
    if (err.empty()) {
      blocks.push_back(b);
    } else {
      throw std::logic_error("setup block rejected: " + err);
    }
  }
};

/// Re-seals a block whose body was tampered with, so the tamper surfaces
/// as the targeted validation error instead of a root mismatch.
Block reseal(Block b) {
  b.header.tx_merkle_root = b.compute_tx_merkle_root();
  b.header.sc_txs_commitment = b.build_commitment_tree().root();
  return b;
}

/// Connects the full proof-heavy chain under `config`; returns the final
/// state fingerprint (asserting every block connects).
Digest connect_all(const ValidationConfig& config) {
  const auto& chain = ProofHeavyChain::instance();
  ChainState state = chain.prefix_state(config);
  for (std::size_t i = chain.segment_begin; i < chain.blocks.size(); ++i) {
    EXPECT_EQ(state.connect_block(chain.blocks[i]), "")
        << config_name(config) << " block " << i;
  }
  return state.state_fingerprint();
}

TEST(BatchValidationTest, AcceptOutcomeIdenticalAcrossConfigs) {
  Digest reference = connect_all(kSequential);
  ASSERT_FALSE(reference.is_zero());
  for (const ValidationConfig& config : all_configs()) {
    EXPECT_EQ(connect_all(config), reference) << config_name(config);
  }
}

/// Runs one tampered segment block under every config and demands the
/// identical rejection: same error string, state unchanged.
void expect_same_rejection(const Block& bad, const std::string& expected) {
  const auto& chain = ProofHeavyChain::instance();
  for (const ValidationConfig& config : all_configs()) {
    ChainState state = chain.prefix_state(config);
    Digest before = state.state_fingerprint();
    EXPECT_EQ(state.connect_block(bad), expected) << config_name(config);
    EXPECT_EQ(state.state_fingerprint(), before) << config_name(config);
  }
}

TEST(BatchValidationTest, BadSignatureSameErrorEverywhere) {
  Block bad = ProofHeavyChain::instance()
                  .blocks[ProofHeavyChain::instance().segment_begin];
  bad.transactions[2].inputs[0].sig.s.limb[0] ^= 1;
  expect_same_rejection(reseal(std::move(bad)), "invalid input signature");
}

TEST(BatchValidationTest, BadCertificateProofSameErrorEverywhere) {
  Block bad = ProofHeavyChain::instance()
                  .blocks[ProofHeavyChain::instance().segment_begin];
  bad.certificates[0].proof.binding.bytes[0] ^= 1;
  expect_same_rejection(reseal(std::move(bad)),
                        "certificate SNARK proof invalid");
}

TEST(BatchValidationTest, BadCswProofSameErrorEverywhere) {
  Block bad = ProofHeavyChain::instance()
                  .blocks[ProofHeavyChain::instance().segment_begin];
  bad.csws[0].proof.binding.bytes[0] ^= 1;
  expect_same_rejection(reseal(std::move(bad)), "CSW SNARK proof invalid");
}

TEST(BatchValidationTest, DeferredCheckPrecedesLaterStatefulError) {
  // Tx 1 carries a bad signature, tx 3 a stateful error (double spend of
  // tx 1's input). Sequentially the signature fails first; the deferred
  // pipeline only discovers the stateful error during application and
  // must still report the signature, because every deferred check
  // collected before the stateful failure logically precedes it.
  Block bad = ProofHeavyChain::instance()
                  .blocks[ProofHeavyChain::instance().segment_begin];
  bad.transactions[1].inputs[0].sig.s.limb[0] ^= 1;
  bad.transactions[3].inputs[0].prevout =
      bad.transactions[1].inputs[0].prevout;
  expect_same_rejection(reseal(std::move(bad)), "invalid input signature");
}

TEST(BatchValidationTest, StatefulErrorAloneSameEverywhere) {
  Block bad = ProofHeavyChain::instance()
                  .blocks[ProofHeavyChain::instance().segment_begin];
  bad.transactions[3].inputs[0].prevout =
      bad.transactions[1].inputs[0].prevout;
  expect_same_rejection(reseal(std::move(bad)),
                        "input spends unknown or spent output");
}

/// A block on the prefix state whose one transaction spends fanout outputs
/// 0 and 1, with one signature copied into both inputs (sign_all_inputs).
Block two_input_block() {
  const auto& chain = ProofHeavyChain::instance();
  const ChainState state = chain.prefix_state(kSequential);
  const auto key = crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, "pv-test-key"));
  const Digest fanout_id = chain.blocks[2].transactions[1].id();
  Transaction tx;
  Amount total = 0;
  for (std::uint32_t j = 0; j < 2; ++j) {
    const OutPoint op{fanout_id, j};
    total += state.find_utxo(op)->amount;
    tx.inputs.push_back(TxInput{op, {}, {}});
  }
  tx.outputs.push_back(TxOutput{key.address(), total});
  Block b;
  b.header.prev_hash = state.tip_hash();
  b.header.height = state.height() + 1;
  Transaction cb;
  cb.is_coinbase = true;
  cb.coinbase_height = b.header.height;
  cb.outputs.push_back(TxOutput{key.address(), ChainParams{}.block_subsidy});
  b.transactions.push_back(std::move(cb));
  b.transactions.push_back(sign_all_inputs(std::move(tx), key));
  return reseal(std::move(b));
}

TEST(BatchValidationTest, CopiedSignatureIsVerifiedOnce) {
  const auto& chain = ProofHeavyChain::instance();
  const Block block = two_input_block();
  const auto& inputs = block.transactions[1].inputs;
  ASSERT_EQ(inputs[0].sig, inputs[1].sig);
  for (unsigned workers : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ChainState state = chain.prefix_state({workers, 1 << 12});
    const ValidationStats before = state.validation_context()->stats();
    ASSERT_EQ(state.connect_block(block), "");
    const ValidationStats after = state.validation_context()->stats();
    EXPECT_EQ(after.checks_executed - before.checks_executed, 1u);
  }
}

TEST(BatchValidationTest, TamperedCopiedSignatureSameErrorEverywhere) {
  Block bad = two_input_block();
  for (TxInput& in : bad.transactions[1].inputs) in.sig.s.limb[0] ^= 1;
  expect_same_rejection(reseal(std::move(bad)), "invalid input signature");
}

/// Seeded signature checks and a SNARK proof for BatchProofVerifier tests.
struct CheckFixture {
  std::vector<crypto::SignatureCheck> sigs;
  snark::VerifyingKey vk;
  snark::Statement statement;
  snark::Proof proof;

  CheckFixture() {
    for (std::uint64_t i = 0; i < 24; ++i) {
      auto key = crypto::KeyPair::from_seed(
          crypto::Hasher(crypto::Domain::kGeneric).write_u64(i).finalize());
      Digest msg = crypto::Hasher(crypto::Domain::kGeneric)
                       .write_u64(i)
                       .write_u64(1)
                       .finalize();
      sigs.push_back({key.public_key(), msg, key.sign(msg)});
    }
    auto setup = snark::PredicateSnark::setup(
        [](const snark::Statement&, const snark::Witness&) { return true; },
        "bpv-test");
    vk = setup.second;
    statement = {crypto::hash_str(crypto::Domain::kGeneric, "bpv-statement")};
    proof = *snark::PredicateSnark::prove(setup.first, statement,
                                          snark::Witness{});
  }
};

TEST(BatchProofVerifierTest, CopiesRunOnceAndTheFirstCopyIsReported) {
  const CheckFixture f;
  crypto::Signature bad = f.sigs[0].sig;
  bad.s.limb[0] ^= 1;
  for (unsigned workers : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    parallel::ValidationContext ctx({workers, 1 << 12});
    parallel::BatchProofVerifier batch(ctx);
    batch.add_signature(f.sigs[0].pubkey, f.sigs[0].msg, bad, "index 0");
    batch.add_signature(f.sigs[1].pubkey, f.sigs[1].msg, f.sigs[1].sig,
                        "index 1");
    batch.add_signature(f.sigs[2].pubkey, f.sigs[2].msg, f.sigs[2].sig,
                        "index 2");
    batch.add_signature(f.sigs[0].pubkey, f.sigs[0].msg, bad, "index 3");
    EXPECT_EQ(batch.run(), "index 0");
    EXPECT_EQ(ctx.stats().checks_executed, 3u);
  }
}

TEST(BatchProofVerifierTest, LowestFailureWinsAcrossGroupsAndProofs) {
  // 24 signatures, verified in one group per verifying thread, with a
  // SNARK proof after the tenth. A failing group's signatures are checked
  // again one by one beside the proof, so whichever failure comes first in
  // add order is reported, at every worker count.
  const CheckFixture f;
  const snark::Statement other{
      crypto::hash_str(crypto::Domain::kGeneric, "bpv-other")};
  struct Case {
    std::size_t bad_sig;  // index into f.sigs, or 24 for none
    bool bad_proof;
    std::string expected;
  };
  const Case cases[] = {{24, false, ""},
                        {24, true, "proof"},
                        {4, true, "signature 4"},
                        {17, true, "proof"},
                        {17, false, "signature 17"},
                        {23, false, "signature 23"}};
  for (const Case& c : cases) {
    for (unsigned workers : kWorkerCounts) {
      SCOPED_TRACE("workers " + std::to_string(workers) + ", expect '" +
                   c.expected + "'");
      parallel::ValidationContext ctx({workers, 1 << 12});
      parallel::BatchProofVerifier batch(ctx);
      for (std::size_t i = 0; i < f.sigs.size(); ++i) {
        if (i == 10) {
          batch.add_snark(f.vk, c.bad_proof ? other : f.statement, f.proof,
                          "proof");
        }
        crypto::Signature sig = f.sigs[i].sig;
        if (i == c.bad_sig) sig.s.limb[0] ^= 1;
        batch.add_signature(f.sigs[i].pubkey, f.sigs[i].msg, sig,
                            "signature " + std::to_string(i));
      }
      EXPECT_EQ(batch.run(), c.expected);
      EXPECT_EQ(ctx.stats().checks_executed, 25u);
    }
  }
}

TEST(BatchValidationTest, DryRunSharesVerifierCacheWithConnect) {
  const auto& chain = ProofHeavyChain::instance();
  ChainState state = chain.prefix_state({0, 1 << 12});
  const Block& block = chain.blocks[chain.segment_begin];
  const std::uint64_t checks = kSigs + 1 + kCsws;

  auto ctx = state.validation_context();
  ASSERT_NE(ctx, nullptr);
  auto before = ctx->stats();

  ASSERT_EQ(state.dry_run(block), "");
  auto after_dry = ctx->stats();
  EXPECT_EQ(after_dry.checks_executed, before.checks_executed + checks);

  // The connect re-verifies nothing: every check hits the shared cache.
  ASSERT_EQ(state.connect_block(block), "");
  auto after_connect = ctx->stats();
  EXPECT_EQ(after_connect.checks_executed, after_dry.checks_executed);
  EXPECT_EQ(after_connect.cache_hits, after_dry.cache_hits + checks);
}

TEST(BatchValidationTest, CopiesShareValidationRuntime) {
  const auto& chain = ProofHeavyChain::instance();
  ChainState a = chain.prefix_state({0, 1 << 12});
  ChainState b = a;  // copies share the runtime...
  ASSERT_NE(a.validation_context(), nullptr);
  EXPECT_EQ(a.validation_context(), b.validation_context());
  // ...so the checks a verified are cache hits for b.
  const Block& block = chain.blocks[chain.segment_begin];
  ASSERT_EQ(a.connect_block(block), "");
  const ValidationStats before = b.validation_context()->stats();
  ASSERT_EQ(b.connect_block(block), "");
  const ValidationStats after = b.validation_context()->stats();
  EXPECT_EQ(after.checks_executed, before.checks_executed);
  EXPECT_EQ(after.cache_hits, before.cache_hits + kSigs + 1 + kCsws);
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
}

TEST(BatchValidationTest, RejectionLeavesSameStatsUnderEveryWorkerCount) {
  // A rejected batch caches none of its checks, whichever worker count
  // ran it: the honest block connected next pays for every check again.
  const auto& chain = ProofHeavyChain::instance();
  const Block& honest = chain.blocks[chain.segment_begin];
  Block bad = honest;
  bad.transactions[2].inputs[0].sig.s.limb[0] ^= 1;
  bad = reseal(std::move(bad));

  std::vector<ValidationStats> deltas;
  for (unsigned workers : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ChainState state = chain.prefix_state({workers, 1 << 12});
    const ValidationStats before = state.validation_context()->stats();
    EXPECT_EQ(state.connect_block(bad), "invalid input signature");
    ASSERT_EQ(state.connect_block(honest), "");
    const ValidationStats after = state.validation_context()->stats();
    deltas.push_back({after.checks_executed - before.checks_executed,
                      after.cache_hits - before.cache_hits,
                      after.batches - before.batches});
  }
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    SCOPED_TRACE("workers " + std::to_string(kWorkerCounts[i]));
    EXPECT_EQ(deltas[i].checks_executed, deltas[0].checks_executed);
    EXPECT_EQ(deltas[i].cache_hits, deltas[0].cache_hits);
    EXPECT_EQ(deltas[i].batches, deltas[0].batches);
  }
  EXPECT_EQ(deltas[0].cache_hits, 0u);
}

}  // namespace
}  // namespace zendoo::mainchain
