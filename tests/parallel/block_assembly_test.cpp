// Block assembly against the greedy assembler it replaced.
//
// Miner::build_block applies each mempool item once, into a nested
// overlay, and must keep exactly the items the greedy loop kept. That loop
// survives here as the oracle. Seeded mempools mix valid items with every
// way an item can fail inside a block. Each seed runs with 0 and 2
// workers, and with the verified-check cache off. A cost pin checks that
// one build pays for each check once.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/rng.hpp"
#include "mainchain/codec.hpp"
#include "mainchain/miner.hpp"

namespace zendoo::mainchain {
namespace {

using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;
using crypto::Rng;
using codec::encode_block;
using parallel::ValidationConfig;

// ---- The oracle ----

void refresh_header(Block& block) {
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  block.header.sc_txs_commitment = block.build_commitment_tree().root();
}

/// The greedy assembler: keep an item iff the whole block so far, with the
/// item appended, still dry-runs, so k items cost k dry runs over growing
/// blocks. The fee pass looks inputs up in the chain state only. One
/// change from the library loop: a second certificate for one sidechain
/// made refresh_header throw out of build_block (ScTxCommitmentTree
/// refuses it); here that counts as a rejection.
Block greedy_build_block(const Blockchain& chain, const Mempool& pool,
                         const Address& coinbase_address) {
  const ChainState& state = chain.state();

  Block block;
  block.header.prev_hash = state.tip_hash();
  block.header.height = state.height() + 1;

  Transaction coinbase;
  coinbase.is_coinbase = true;
  coinbase.coinbase_height = block.header.height;
  coinbase.outputs.push_back(
      TxOutput{coinbase_address, chain.params().block_subsidy});
  block.transactions.push_back(coinbase);

  auto try_add = [&](const std::function<void(Block&)>& add,
                     const std::function<void(Block&)>& remove) {
    add(block);
    bool valid = false;
    try {
      refresh_header(block);
      valid = state.dry_run(block).empty();
    } catch (const std::logic_error&) {
    }
    if (!valid) {
      remove(block);
      refresh_header(block);
    }
  };

  for (const SidechainParams& sc : pool.sidechain_creations) {
    try_add([&](Block& b) { b.sidechain_creations.push_back(sc); },
            [](Block& b) { b.sidechain_creations.pop_back(); });
  }
  for (const Transaction& tx : pool.transactions) {
    try_add([&](Block& b) { b.transactions.push_back(tx); },
            [](Block& b) { b.transactions.pop_back(); });
  }
  for (const WithdrawalCertificate& cert : pool.certificates) {
    try_add([&](Block& b) { b.certificates.push_back(cert); },
            [](Block& b) { b.certificates.pop_back(); });
  }
  for (const BtrRequest& btr : pool.btrs) {
    try_add([&](Block& b) { b.btrs.push_back(btr); },
            [](Block& b) { b.btrs.pop_back(); });
  }
  for (const CeasedSidechainWithdrawal& csw : pool.csws) {
    try_add([&](Block& b) { b.csws.push_back(csw); },
            [](Block& b) { b.csws.pop_back(); });
  }

  unsigned __int128 fees = 0;
  for (std::size_t i = 1; i < block.transactions.size(); ++i) {
    const Transaction& tx = block.transactions[i];
    unsigned __int128 in = 0, out = 0;
    for (const TxInput& input : tx.inputs) {
      const TxOutput* utxo = state.find_utxo(input.prevout);
      if (utxo != nullptr) in += utxo->amount;
    }
    out += tx.total_output();
    out += tx.total_forward_transfer();
    if (in > out) fees += in - out;
  }
  block.transactions[0].outputs[0].amount =
      chain.params().block_subsidy + static_cast<Amount>(fees);
  refresh_header(block);

  Miner::solve_pow(block, chain.params().pow_target);
  return block;
}

// ---- Scenario ----

constexpr std::size_t kUsers = 3;
/// Mempools fill heights 12 to kLastMempoolHeight.
constexpr std::uint64_t kLastMempoolHeight = 21;

/// One SNARK key for every sidechain. The circuit accepts any witness, but
/// a proof still binds its statement, so a wrong H(B_w) or epoch boundary
/// fails verification.
struct Snark {
  snark::ProvingKey pk;
  snark::VerifyingKey vk;
};

const Snark& snark_keys() {
  static const Snark keys = [] {
    auto [pk, vk] = snark::PredicateSnark::setup(
        [](const snark::Statement&, const snark::Witness&) { return true; },
        "block-assembly-test");
    return Snark{pk, vk};
  }();
  return keys;
}

KeyPair key_of(const std::string& name) {
  return KeyPair::from_seed(hash_str(Domain::kGeneric, name));
}

SidechainParams sidechain(const std::string& name, std::uint64_t start,
                          std::uint64_t epoch_len, std::uint64_t submit_len) {
  SidechainParams p;
  p.ledger_id = hash_str(Domain::kGeneric, name);
  p.start_block = start;
  p.epoch_len = epoch_len;
  p.submit_len = submit_len;
  p.wcert_vk = p.btr_vk = p.csw_vk = snark_keys().vk;
  return p;
}

/// Two sidechains that keep certifying, and one that never does: its first
/// window closes at height 11 + 3 + 1 = 15, inside the mempool heights.
const std::vector<SidechainParams> kLive = {sidechain("asm-live-0", 11, 4, 2),
                                            sidechain("asm-live-1", 11, 3, 3)};
const SidechainParams kCeasing = sidechain("asm-ceasing", 11, 3, 1);

std::vector<SidechainParams> setup_sidechains() {
  return {kLive[0], kLive[1], kCeasing};
}

snark::Proof prove(const snark::Statement& st) {
  return *snark::PredicateSnark::prove(snark_keys().pk, st, snark::Witness{});
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// How often each interesting case came up, summed over a whole test.
struct Coverage {
  std::size_t offered = 0;
  std::size_t included = 0;
  std::size_t second_certs = 0;       ///< certs for an SC certified in-block
  std::size_t same_block_btrs = 0;    ///< BTRs against an in-block cert
  std::size_t chained_fee_blocks = 0; ///< oracle under-claimed the fees
  std::size_t identical_blocks = 0;   ///< whole blocks byte-identical
};

/// Fees of the block's transactions, each input looked up in `state` or
/// among the outputs of an earlier transaction of the same block.
Amount fees_of(const ChainState& state, const Block& block) {
  std::map<OutPoint, Amount> created;
  Amount fees = 0;
  for (std::size_t i = 1; i < block.transactions.size(); ++i) {
    const Transaction& tx = block.transactions[i];
    Amount in = 0;
    for (const TxInput& input : tx.inputs) {
      auto it = created.find(input.prevout);
      in += it != created.end() ? it->second
                                : state.find_utxo(input.prevout)->amount;
    }
    fees += in - tx.total_output() - tx.total_forward_transfer();
    const Digest txid = tx.id();
    for (std::uint32_t j = 0; j < tx.outputs.size(); ++j) {
      created[OutPoint{txid, j}] = tx.outputs[j].amount;
    }
  }
  return fees;
}

/// The block without its coinbase and header: the items assembly chose.
std::vector<std::uint8_t> items_of(Block block) {
  block.header = BlockHeader{};
  block.transactions.erase(block.transactions.begin());
  return encode_block(block);
}

/// One height's seeded mempool and the block the oracle built from it.
struct Reference {
  Mempool pool;
  Block oracle;
};

/// A chain under one validation config, with seeded mempools built on its
/// tip. Mempools depend only on the seed and the chain, so every config
/// sees the same ones as long as the assembled blocks agree.
class Scenario {
 public:
  Scenario(const ValidationConfig& config, std::uint64_t seed)
      : chain_(params_for(config)),
        rng_(seed),
        miner_key_(key_of("asm-miner")) {
    for (std::size_t i = 0; i < kUsers; ++i) {
      users_.push_back(key_of("asm-user-" + std::to_string(i)));
    }
    // h1-h9: three coinbases per user. h10: register the sidechains.
    // h11: fund them from the h10 coinbase.
    for (std::size_t round = 0; round < 3; ++round) {
      for (const KeyPair& user : users_) {
        Miner(chain_, user.address()).mine_empty(1);
      }
    }
    Miner miner(chain_, miner_key_.address());
    Mempool setup;
    setup.sidechain_creations = setup_sidechains();
    Block registration;
    if (!miner.mine_and_submit(setup, &registration).accepted()) {
      throw std::logic_error("sidechain registration rejected");
    }
    setup.clear();
    std::vector<ForwardTransferOutput> funding;
    for (const SidechainParams& p : setup_sidechains()) {
      funding.push_back(ForwardTransferOutput{p.ledger_id, {}, 1'000'000});
    }
    const OutPoint coinbase{registration.transactions[0].id(), 0};
    setup.transactions.push_back(
        spend(miner_key_, {coinbase, *chain_.state().find_utxo(coinbase)}, {},
              std::move(funding), 0));
    if (!miner.mine_and_submit(setup).accepted()) {
      throw std::logic_error("sidechain funding rejected");
    }
  }

  /// Assembles the block for the next height, compares it with the
  /// oracle's and submits it. The first config to reach a height makes its
  /// mempool and the oracle's block there; later configs reuse both, since
  /// validation outcomes do not depend on the config. That keeps signing
  /// and the oracle's quadratic cost out of the slow configs.
  void step(Coverage& cov, std::map<std::uint64_t, Reference>& refs) {
    const std::uint64_t h = chain_.height() + 1;
    if (!refs.contains(h)) {
      Mempool pool = make_mempool(h);
      Block oracle = greedy_build_block(chain_, pool, miner_key_.address());
      refs.emplace(h, Reference{std::move(pool), std::move(oracle)});
    }
    const Mempool& pool = refs.at(h).pool;
    const Block& expected = refs.at(h).oracle;
    Block got = Miner(chain_, miner_key_.address()).build_block(pool);

    ASSERT_EQ(items_of(got), items_of(expected)) << "height " << h;
    const Amount subsidy = chain_.params().block_subsidy;
    ASSERT_EQ(got.transactions[0].total_output(),
              subsidy + fees_of(chain_.state(), got))
        << "height " << h;
    if (expected.transactions[0].outputs == got.transactions[0].outputs) {
      EXPECT_EQ(encode_block(got), encode_block(expected)) << "height " << h;
      ++cov.identical_blocks;
    } else {
      ++cov.chained_fee_blocks;
    }

    cov.offered += pool.sidechain_creations.size() + pool.transactions.size() +
                   pool.certificates.size() + pool.btrs.size() +
                   pool.csws.size();
    cov.included += got.sidechain_creations.size() +
                    got.transactions.size() - 1 + got.certificates.size() +
                    got.btrs.size() + got.csws.size();
    auto certified = [&](const SidechainId& id) {
      for (const WithdrawalCertificate& c : got.certificates) {
        if (c.ledger_id == id) return true;
      }
      return false;
    };
    std::map<SidechainId, std::size_t> certs_offered;
    for (const WithdrawalCertificate& c : pool.certificates) {
      if (certified(c.ledger_id) && ++certs_offered[c.ledger_id] == 2) {
        ++cov.second_certs;
      }
    }
    for (const BtrRequest& b : pool.btrs) {
      if (certified(b.ledger_id)) ++cov.same_block_btrs;
    }

    auto result = chain_.submit_block(got);
    ASSERT_TRUE(result.accepted()) << "height " << h << ": " << result.error;
    for (const BtrRequest& b : got.btrs) {
      used_nullifiers_[b.ledger_id].push_back(b.nullifier);
    }
    for (const CeasedSidechainWithdrawal& c : got.csws) {
      used_nullifiers_[c.ledger_id].push_back(c.nullifier);
    }
  }

  [[nodiscard]] const Blockchain& chain() const { return chain_; }

 private:
  using Coin = std::pair<OutPoint, TxOutput>;

  static ChainParams params_for(const ValidationConfig& config) {
    ChainParams params;
    params.validation = config;
    return params;
  }

  /// A signed single-input transaction; the rest of `coin` is change.
  static Transaction spend(const KeyPair& key, const Coin& coin,
                           std::vector<TxOutput> outputs,
                           std::vector<ForwardTransferOutput> fts,
                           Amount fee) {
    Transaction tx;
    tx.inputs.push_back(TxInput{coin.first, {}, {}});
    Amount used = fee;
    for (const TxOutput& o : outputs) used += o.amount;
    for (const ForwardTransferOutput& ft : fts) used += ft.amount;
    tx.outputs = std::move(outputs);
    tx.outputs.push_back(TxOutput{key.address(), coin.second.amount - used});
    tx.forward_transfers = std::move(fts);
    return sign_all_inputs(std::move(tx), key);
  }

  Amount random_fee() {
    return rng_.chance(1, 2) ? 0 : 1 + rng_.next_below(5'000);
  }

  /// A nullifier an earlier block already used for `id`, if any.
  std::optional<Digest> stale_nullifier(const SidechainId& id) {
    const std::vector<Digest>& used = used_nullifiers_[id];
    if (used.empty()) return std::nullopt;
    return used[rng_.next_below(used.size())];
  }

  ForwardTransferOutput ft_to(const SidechainId& id) {
    return ForwardTransferOutput{id, {rng_.next_digest()},
                                 10'000 + rng_.next_below(90'000)};
  }

  Mempool make_mempool(std::uint64_t h) {
    const ChainState& st = chain_.state();
    Mempool pool;

    // Creations: a fresh sidechain, a duplicate id, bad parameters.
    const SidechainParams fresh =
        sidechain("asm-new-" + std::to_string(h), h + 3, 2, 1);
    pool.sidechain_creations.push_back(fresh);
    if (rng_.chance(1, 3)) pool.sidechain_creations.push_back(kLive[0]);
    if (rng_.chance(1, 3)) {
      SidechainParams bad =
          sidechain("asm-bad-" + std::to_string(h), h + 3, 2, 1);
      bad.submit_len = 0;
      pool.sidechain_creations.push_back(bad);
    }
    shuffle(pool.sidechain_creations, rng_);

    // Transactions, each user spending its largest coins first: a payment,
    // maybe a forward transfer, a double spend, a bad signature and a
    // chained spend of the payment's output 0 by its receiver.
    const std::vector<SidechainId> ft_targets = {
        kLive[0].ledger_id, kLive[1].ledger_id, kCeasing.ledger_id,
        fresh.ledger_id, hash_str(Domain::kGeneric, "asm-unknown")};
    for (std::size_t u = 0; u < kUsers; ++u) {
      const KeyPair& key = users_[u];
      std::vector<Coin> coins = st.utxos_of(key.address());
      std::stable_sort(coins.begin(), coins.end(),
                       [](const Coin& a, const Coin& b) {
                         return a.second.amount > b.second.amount;
                       });
      std::size_t next = 0;
      auto coin = [&]() -> const Coin* {
        return next < coins.size() && coins[next].second.amount >= 1'000'000
                   ? &coins[next++]
                   : nullptr;
      };
      const KeyPair& to =
          users_[(u + 1 + rng_.next_below(kUsers - 1)) % kUsers];

      const Coin* paid_with = coin();
      if (paid_with == nullptr) continue;
      const Amount amount = 1'000 + rng_.next_below(100'000);
      Transaction payment = spend(key, *paid_with,
                                  {TxOutput{to.address(), amount}}, {},
                                  random_fee());
      pool.transactions.push_back(payment);
      if (rng_.chance(1, 2)) {
        Transaction chained;
        chained.inputs.push_back(TxInput{OutPoint{payment.id(), 0}, {}, {}});
        Amount fee = rng_.chance(1, 2) ? 0 : 1 + rng_.next_below(amount / 2);
        chained.outputs.push_back(TxOutput{key.address(), amount - fee});
        pool.transactions.push_back(sign_all_inputs(std::move(chained), to));
      }
      if (rng_.chance(1, 3)) {
        pool.transactions.push_back(spend(
            key, *paid_with, {TxOutput{key.address(), amount + 1}}, {}, 0));
      }
      if (const Coin* c = rng_.chance(1, 2) ? coin() : nullptr) {
        SidechainId target = ft_targets[rng_.next_below(ft_targets.size())];
        pool.transactions.push_back(
            spend(key, *c, {}, {ft_to(target)}, random_fee()));
      }
      // Every block funds the ceasing sidechain (invalid from the height
      // it ceases at) and the one created in this block.
      if (const Coin* c = u < 2 ? coin() : nullptr) {
        SidechainId target = u == 0 ? kCeasing.ledger_id : fresh.ledger_id;
        pool.transactions.push_back(spend(key, *c, {}, {ft_to(target)}, 0));
      }
      if (const Coin* c = rng_.chance(1, 3) ? coin() : nullptr) {
        Transaction bad =
            spend(key, *c, {TxOutput{to.address(), amount}}, {}, 0);
        bad.inputs[0].sig.s.limb[0] ^= 1;
        pool.transactions.push_back(std::move(bad));
      }
    }
    shuffle(pool.transactions, rng_);

    // Certificates: inside an open window a valid one, maybe a second and
    // a bad proof; anywhere, maybe one for an epoch whose window is shut.
    for (const SidechainParams& p : kLive) {
      const bool started = h >= p.start_block + p.epoch_len;
      const std::uint64_t epoch = started ? p.epoch_of(h) - 1 : 0;
      const bool open = started && h < p.cert_window_end(epoch);
      auto make_cert = [&](std::uint64_t e) {
        WithdrawalCertificate cert;
        cert.ledger_id = p.ledger_id;
        cert.epoch_id = e;
        cert.quality = 1 + rng_.next_below(10);
        for (std::uint64_t i = 0, n = 1 + rng_.next_below(2); i < n; ++i) {
          cert.bt_list.push_back(
              BackwardTransfer{users_[rng_.next_below(kUsers)].address(),
                               100 + rng_.next_below(900)});
        }
        auto [prev_last, last] = st.epoch_boundary_hashes(p, e);
        cert.proof = prove(wcert_statement_for(cert, prev_last, last));
        return cert;
      };
      if (open) {
        pool.certificates.push_back(make_cert(epoch));
        if (rng_.chance(1, 2)) pool.certificates.push_back(make_cert(epoch));
        if (rng_.chance(1, 3)) {
          WithdrawalCertificate bad = make_cert(epoch);
          bad.proof.binding.bytes[0] ^= 1;
          pool.certificates.push_back(std::move(bad));
        }
      }
      if (rng_.chance(1, 3)) {
        pool.certificates.push_back(make_cert(open ? epoch + 1 : epoch + 2));
      }
    }
    shuffle(pool.certificates, rng_);

    // BTRs against every original sidechain: a valid one, and maybe a
    // stale nullifier, an in-pool duplicate nullifier and a bad proof.
    for (const SidechainParams& p : setup_sidechains()) {
      const Digest last_cert_block =
          st.find_sidechain(p.ledger_id)->last_cert_block;
      auto make_btr = [&](const Digest& nullifier) {
        BtrRequest btr;
        btr.ledger_id = p.ledger_id;
        btr.receiver = users_[rng_.next_below(kUsers)].address();
        btr.amount = 1 + rng_.next_below(1'000);
        btr.nullifier = nullifier;
        btr.proof =
            prove(btr_statement(last_cert_block, btr.nullifier, btr.receiver,
                                btr.amount, btr.proofdata_root()));
        return btr;
      };
      const Digest nullifier = rng_.next_digest();
      pool.btrs.push_back(make_btr(nullifier));
      auto stale = stale_nullifier(p.ledger_id);
      if (stale && rng_.chance(1, 3)) pool.btrs.push_back(make_btr(*stale));
      if (rng_.chance(1, 4)) pool.btrs.push_back(make_btr(nullifier));
      if (rng_.chance(1, 4)) {
        BtrRequest bad = make_btr(rng_.next_digest());
        bad.proof.binding.bytes[0] ^= 1;
        pool.btrs.push_back(std::move(bad));
      }
    }
    shuffle(pool.btrs, rng_);

    // CSWs against the ceasing sidechain (valid from the height it ceases
    // at), maybe over its balance or with a stale nullifier, and maybe one
    // against a live sidechain.
    const SidechainStatus& ceasing = *st.find_sidechain(kCeasing.ledger_id);
    auto make_csw = [&](const SidechainParams& p, Amount amount,
                        const Digest& nullifier) {
      CeasedSidechainWithdrawal csw;
      csw.ledger_id = p.ledger_id;
      csw.receiver = users_[rng_.next_below(kUsers)].address();
      csw.amount = amount;
      csw.nullifier = nullifier;
      csw.proof = prove(
          csw_statement(st.find_sidechain(p.ledger_id)->last_cert_block,
                        csw.nullifier, csw.receiver, csw.amount,
                        csw.proofdata_root()));
      return csw;
    };
    pool.csws.push_back(
        make_csw(kCeasing, 1 + rng_.next_below(1'000), rng_.next_digest()));
    if (rng_.chance(1, 3)) {
      pool.csws.push_back(
          make_csw(kCeasing, ceasing.balance + 1, rng_.next_digest()));
    }
    auto stale = stale_nullifier(kCeasing.ledger_id);
    if (stale && rng_.chance(1, 3)) {
      pool.csws.push_back(make_csw(kCeasing, 1, *stale));
    }
    if (rng_.chance(1, 4)) {
      pool.csws.push_back(make_csw(kLive[0], 1, rng_.next_digest()));
    }
    shuffle(pool.csws, rng_);
    return pool;
  }

  Blockchain chain_;
  Rng rng_;
  KeyPair miner_key_;
  std::vector<KeyPair> users_;
  std::map<SidechainId, std::vector<Digest>> used_nullifiers_;
};

/// The first config is the one the oracle runs under.
std::vector<ValidationConfig> assembly_configs() {
  return {{0, 1 << 12}, {2, 1 << 12}, {0, 0}};
}

TEST(BlockAssembly, MatchesGreedyOracleUnderEveryConfig) {
  Coverage cov;
  for (std::uint64_t seed : {1u, 2u}) {
    std::map<std::uint64_t, Reference> refs;
    std::optional<Digest> tip;
    for (const ValidationConfig& config : assembly_configs()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", workers " +
                   std::to_string(config.worker_threads) + ", cache " +
                   std::to_string(config.cache_capacity));
      Scenario scenario(config, seed);
      while (scenario.chain().height() < kLastMempoolHeight) {
        scenario.step(cov, refs);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (!tip) tip = scenario.chain().tip_hash();
      EXPECT_EQ(scenario.chain().tip_hash(), *tip);
    }
  }
  // The mempools really mixed kept and dropped items, and hit the cases
  // the per-item rules exist for.
  EXPECT_GT(cov.included, 0u);
  EXPECT_LT(cov.included, cov.offered);
  EXPECT_GT(cov.second_certs, 0u);
  EXPECT_GT(cov.same_block_btrs, 0u);
  EXPECT_GT(cov.chained_fee_blocks, 0u);
  EXPECT_GT(cov.identical_blocks, 0u);
}

// ---- Cost pin ----

class BuildBlockCost : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// What one build over k single-input payments cost under `config`.
  static void build_cost(std::size_t k, ValidationConfig config,
                         parallel::ValidationStats& cost) {
    const KeyPair key = key_of("asm-cost");
    ChainParams params;
    params.validation = config;
    Blockchain chain{params};
    Miner miner(chain, key.address());
    miner.mine_empty(k);
    Mempool pool;
    for (const auto& [op, out] : chain.state().utxos_of(key.address())) {
      Transaction tx;
      tx.inputs.push_back(TxInput{op, {}, {}});
      tx.outputs.push_back(TxOutput{key.address(), out.amount});
      pool.transactions.push_back(sign_all_inputs(std::move(tx), key));
    }
    ASSERT_EQ(pool.transactions.size(), k);

    const auto& ctx = *chain.state().validation_context();
    const parallel::ValidationStats before = ctx.stats();
    Block block = miner.build_block(pool);
    const parallel::ValidationStats after = ctx.stats();
    EXPECT_EQ(block.transactions.size(), k + 1);
    cost = {after.checks_executed - before.checks_executed,
            after.cache_hits - before.cache_hits,
            after.batches - before.batches};
  }
};

/// One build over k single-input payments: one batch verifies all k
/// signatures first, then each item's batch and the final dry_run find
/// them in the cache. Without that first batch each item's batch verified
/// its own signature (k hits, k + 1 batches); the greedy assembler ran k
/// batches with k(k-1)/2 cache hits.
TEST_P(BuildBlockCost, EachCheckRunsOnceAndTheFinalDryRunHitsTheCache) {
  const std::size_t k = GetParam();
  parallel::ValidationStats cost;
  ASSERT_NO_FATAL_FAILURE(build_cost(k, ValidationConfig{}, cost));
  EXPECT_EQ(cost.checks_executed, k);
  EXPECT_EQ(cost.cache_hits, 2 * k);
  EXPECT_EQ(cost.batches, k + 2);
}

/// With the cache off there is nothing to prime: each item's batch and the
/// final dry_run verify every signature once, and no first batch verifies
/// them a third time.
TEST_P(BuildBlockCost, WithoutACacheEachCheckRunsInItsItemAndTheDryRun) {
  const std::size_t k = GetParam();
  parallel::ValidationStats cost;
  ASSERT_NO_FATAL_FAILURE(build_cost(k, {0, 0}, cost));
  EXPECT_EQ(cost.checks_executed, 2 * k);
  EXPECT_EQ(cost.cache_hits, 0u);
  EXPECT_EQ(cost.batches, k + 1);
}

INSTANTIATE_TEST_SUITE_P(Payments, BuildBlockCost,
                         ::testing::Values(8u, 16u, 32u));

}  // namespace
}  // namespace zendoo::mainchain
