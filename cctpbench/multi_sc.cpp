// multi_sc: one Engine with 16 Latus sidechains of 2 users each. MC-side
// work dominates: the greedy per-item dry_run assembly of
// Miner::build_block, submit_block with batched signature/SNARK checks and
// the verified-check cache, finalize_epochs scanning every sidechain, and
// every sidechain rebuilding the block's commitment tree in
// observe_mc_block. Per-payment proving is negligible (no SC payments).
//
// Closed loop, one MC block per step. Sidechain i has epoch_len 4 + i % 5
// and submit_len epoch_len / 2, so certificates land in most blocks. The
// 32 users also hold MC wallets. Every block carries:
//  - 16 MC transactions from 16 distinct users, two inputs each: 12 MC
//    payments and 4 forward transfers to random live sidechains;
//  - 4 BTRs against live sidechains (coins the last certificate commits);
//  - 1 CSW against a ceased sidechain.
// The 4 sidechains with i % 4 == 3 stop certifying at MC height 10 and have
// all ceased (Def 4.2) before the timed phase starts.
#include <algorithm>
#include <stdexcept>

#include "audit.hpp"
#include "engine_step.hpp"
#include "sim/workload.hpp"
#include "traffic.hpp"

namespace cctpbench {
namespace {

using mainchain::Amount;

constexpr std::size_t kSidechains = 16;
constexpr std::size_t kUsersPerSc = 2;
constexpr std::uint64_t kStartBlock = 2;
constexpr std::size_t kMcCoinsPerUser = 8;
constexpr Amount kMcCoin = 100'000;
constexpr std::size_t kLiveScCoinsPerUser = 8;
constexpr Amount kScCoin = 2'000;
constexpr std::size_t kMcPayments = 12;
constexpr std::size_t kMcForwardTransfers = 4;
/// As many BTRs as forward transfers, so live SC coin counts stay level.
constexpr std::size_t kBtrsPerBlock = 4;
constexpr std::size_t kCswsPerBlock = 1;
/// Height from which the ceasing sidechains build no more certificates.
constexpr std::uint64_t kStopHeight = 10;
/// Every ceasing sidechain has ceased and every live one has a finalized
/// certificate by this height.
constexpr std::uint64_t kSetupHeight = 24;

std::uint64_t epoch_len_of(std::size_t i) { return 4 + i % 5; }
bool ceasing(std::size_t i) { return i % 4 == 3; }

class MultiSc final : public Workload {
 public:
  MultiSc(std::uint64_t seed, std::uint64_t blocks)
      : seed_(seed),
        blocks_(blocks),
        miner_(crypto::KeyPair::from_seed(crypto::Hasher(crypto::Domain::kGeneric)
                                              .write_str("multi_sc-miner")
                                              .write_u64(seed)
                                              .finalize())),
        rng_(seed) {}

  void setup() override;
  void run(Timeline& timeline, Tracer* tracer) override;
  void finish() override;
  [[nodiscard]] EndState end_state() const override;
  void layer_metrics(const Timeline& timeline, LayerMetrics& out) override;

 private:
  /// One sidechain as its users see it.
  struct Sc {
    mainchain::SidechainId id;
    std::size_t index = 0;
    latus::LatusNode* node = nullptr;
    bool certifies = true;
    std::unique_ptr<ScAudit> audit;
    /// Coins in the SC state with the MC height that created them; a coin
    /// is claimable once the last accepted certificate's epoch covers it.
    std::map<Digest, std::pair<latus::Utxo, std::uint64_t>> coins;
    std::set<Digest> claimed;  ///< nonces with a BTR/CSW submitted
  };
  struct Claim {
    Sc* sc;
    latus::Utxo coin;
    const crypto::KeyPair* owner;
  };

  void step(Timeline* timeline, Tracer* tracer);
  /// One claim per block from `pool`'s sidechains with a claimable coin.
  std::vector<Claim> pick_claims(const std::vector<Sc*>& pool, std::size_t n);
  void account(const mainchain::Block& block, std::size_t offered,
               std::size_t btrs, std::size_t csws);
  [[nodiscard]] std::vector<std::pair<mainchain::SidechainId, bool>>
  certifying() const;

  std::uint64_t seed_;
  std::uint64_t blocks_;
  crypto::KeyPair miner_;
  crypto::Rng rng_;
  std::unique_ptr<McWallets> wallets_;
  std::unique_ptr<core::Engine> engine_;
  std::vector<Sc> scs_;  ///< in SidechainId order (the Engine's order)

  RegistrySum before_;
  NodeCounts counts_;
};

void MultiSc::setup() {
  auto users = zendoo::sim::make_keys(kSidechains * kUsersPerSc, seed_);
  wallets_ = std::make_unique<McWallets>(users);
  engine_ = std::make_unique<core::Engine>(mainchain::ChainParams{}, miner_);
  for (std::size_t i = 0; i < kSidechains; ++i) {
    Sc sc;
    sc.index = i;
    sc.id = crypto::Hasher(crypto::Domain::kGeneric)
                .write_str("multi_sc")
                .write_u64(seed_)
                .write_u64(i)
                .finalize();
    const std::uint64_t len = epoch_len_of(i);
    std::vector<crypto::KeyPair> forgers(
        users.begin() + static_cast<std::ptrdiff_t>(i * kUsersPerSc),
        users.begin() + static_cast<std::ptrdiff_t>((i + 1) * kUsersPerSc));
    sc.node = &engine_->add_latus_sidechain(sc.id, kStartBlock, len, len / 2,
                                            forgers);
    sc.audit = std::make_unique<ScAudit>(sc.id);
    scs_.push_back(std::move(sc));
  }
  std::sort(scs_.begin(), scs_.end(),
            [](const Sc& a, const Sc& b) { return a.id < b.id; });
  while (engine_->mc().height() < kSetupHeight) step(nullptr, nullptr);
  for (const Sc& sc : scs_) {
    const auto* status = engine_->mc().state().find_sidechain(sc.id);
    checks_.expect(status != nullptr && status->ceased == ceasing(sc.index) &&
                       (status->ceased || status->last_finalized_epoch),
                   "multi_sc: set-up did not reach its history");
  }
}

void MultiSc::run(Timeline& timeline, Tracer* tracer) {
  before_ = RegistrySum{};
  add_engine_registries(*engine_, before_);
  counts_ = NodeCounts{};
  ledger_ = Ledger{};
  for (std::uint64_t i = 0; i < blocks_; ++i) {
    if (tracer != nullptr) tracer->set_step(static_cast<std::uint32_t>(i));
    step(&timeline, tracer);
  }
}

std::vector<std::pair<mainchain::SidechainId, bool>> MultiSc::certifying()
    const {
  std::vector<std::pair<mainchain::SidechainId, bool>> out;
  for (const Sc& sc : scs_) out.emplace_back(sc.id, sc.certifies);
  return out;
}

std::vector<MultiSc::Claim> MultiSc::pick_claims(const std::vector<Sc*>& pool,
                                                 std::size_t n) {
  const auto& state = engine_->mc().state();
  const auto& pending = engine_->mempool().certificates;
  // Sidechains with a claimable coin. A certificate queued for the next
  // block would move H(B_w) under the claim's proof, so its sidechain
  // waits a block.
  std::vector<std::pair<Sc*, std::vector<const latus::Utxo*>>> ready;
  for (Sc* sc : pool) {
    if (std::any_of(pending.begin(), pending.end(), [&](const auto& c) {
          return c.ledger_id == sc->id;
        })) {
      continue;
    }
    const auto* status = state.find_sidechain(sc->id);
    std::optional<std::uint64_t> epoch;
    if (status->pending_cert) {
      epoch = status->pending_cert_epoch;
    } else {
      epoch = status->last_finalized_epoch;
    }
    if (!epoch) continue;
    const std::uint64_t covered = status->params.epoch_end(*epoch);
    std::vector<const latus::Utxo*> coins;
    for (const auto& [nonce, entry] : sc->coins) {
      if (entry.second <= covered && !sc->claimed.contains(nonce)) {
        coins.push_back(&entry.first);
      }
    }
    if (!coins.empty()) ready.emplace_back(sc, std::move(coins));
  }
  std::vector<Claim> claims;
  while (claims.size() < n && !ready.empty()) {
    const std::size_t k = rng_.next_below(ready.size());
    auto& [sc, coins] = ready[k];
    const latus::Utxo& coin = *coins[rng_.next_below(coins.size())];
    sc->claimed.insert(coin.nonce);
    const crypto::KeyPair* owner = nullptr;
    for (const auto& u : wallets_->users()) {
      if (u.address() == coin.addr) owner = &u;
    }
    claims.push_back({sc, coin, owner});
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return claims;
}

void MultiSc::step(Timeline* timeline, Tracer* tracer) {
  const std::uint64_t height = engine_->mc().height() + 1;
  if (height == kStopHeight) {
    for (Sc& sc : scs_) {
      if (!ceasing(sc.index)) continue;
      sc.certifies = false;
      engine_->set_auto_certificates(sc.id, false);
    }
  }

  // ---- client traffic (untimed) ----
  if (timeline != nullptr) timeline->gen.start();
  const auto& state = engine_->mc().state();
  auto& mempool = engine_->mempool();
  const std::uint64_t sigs_before = wallets_->signatures();
  std::uint64_t signatures = 0;
  std::vector<Claim> btrs, csws;
  const auto& users = wallets_->users();
  if (height == kStartBlock) {
    // The miner funds every user's MC wallet.
    auto coins = state.utxos_of(miner_.address());
    mainchain::Transaction tx;
    Amount in = 0;
    for (const auto& [op, out] : coins) {
      tx.inputs.push_back({op, {}, {}});
      in += out.amount;
    }
    for (const auto& u : users) {
      for (std::size_t c = 0; c < kMcCoinsPerUser; ++c) {
        tx.outputs.push_back({u.address(), kMcCoin});
      }
    }
    const Amount out = kMcCoin * kMcCoinsPerUser * users.size();
    if (in < out) throw std::logic_error("multi_sc: miner cannot fund users");
    tx.outputs.push_back({miner_.address(), in - out});
    mempool.transactions.push_back(
        mainchain::sign_all_inputs(std::move(tx), miner_));
    ++signatures;
  } else if (height == kStartBlock + 1) {
    // Each user moves coins into its own sidechain.
    for (Sc& sc : scs_) {
      SlotPlan plan(sc.node->state());
      // Ceasing sidechains hold enough coins for every CSW of the run.
      const std::size_t n =
          ceasing(sc.index)
              ? (blocks_ + kSetupHeight) * kCswsPerBlock /
                        (kSidechains / 4 * kUsersPerSc) + 1
              : kLiveScCoinsPerUser;
      for (std::size_t u = 0; u < kUsersPerSc; ++u) {
        const auto& user = users[sc.index * kUsersPerSc + u];
        mainchain::Wallet wallet(user);
        std::vector<mainchain::Wallet::FtSpec> specs(
            n, {{user.address(), user.address()}, kScCoin});
        auto tx = build_ft_tx(wallet, state, sc.id, std::move(specs), plan,
                              &signatures);
        if (!tx) throw std::logic_error("multi_sc: user cannot fund its SC");
        mempool.transactions.push_back(std::move(*tx));
      }
    }
  } else if (height > kStartBlock + 1) {
    wallets_->sync(state);
    // Traffic goes to certifying sidechains only: one that stopped may
    // cease in the very block being built.
    std::vector<Sc*> live, ceased;
    for (Sc& sc : scs_) {
      if (sc.certifies) live.push_back(&sc);
      if (state.find_sidechain(sc.id)->ceased) ceased.push_back(&sc);
    }
    // 16 distinct payers: 12 MC payments, then 4 forward transfers.
    std::vector<std::size_t> order(users.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.next_below(i)]);
    }
    std::map<mainchain::SidechainId, SlotPlan> plans;
    for (std::size_t k = 0; k < kMcPayments + kMcForwardTransfers; ++k) {
      const std::size_t payer = order[k];
      std::optional<mainchain::Transaction> tx;
      if (k < kMcPayments) {
        const auto& to = users[(payer + 1 + rng_.next_below(users.size() - 1)) %
                               users.size()];
        tx = wallets_->payment(payer, to.address(), rng_);
      } else {
        Sc& sc = *live[rng_.next_below(live.size())];
        const auto& to = users[sc.index * kUsersPerSc +
                               rng_.next_below(kUsersPerSc)];
        auto plan = plans.try_emplace(sc.id, sc.node->state()).first;
        tx = wallets_->forward_transfer(payer, sc.id, to.address(),
                                        plan->second, rng_);
      }
      if (tx) mempool.transactions.push_back(std::move(*tx));
    }
    btrs = pick_claims(live, kBtrsPerBlock);
    csws = pick_claims(ceased, kCswsPerBlock);
  }
  signatures += wallets_->signatures() - sigs_before;
  const std::size_t offered = mempool_items(mempool);
  if (timeline != nullptr) timeline->gen.stop();

  // ---- program calls (timed) ----
  mainchain::Block block;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope step_span(tracer, "step");
    for (const Claim& c : btrs) {
      Tracer::Scope span(tracer, "latus.btr");
      mempool.btrs.push_back(
          c.sc->node->create_btr(c.coin, *c.owner, c.owner->address()));
    }
    for (const Claim& c : csws) {
      Tracer::Scope span(tracer, "latus.csw");
      mempool.csws.push_back(
          c.sc->node->create_csw(c.coin, *c.owner, c.owner->address()));
    }
    if (tracer == nullptr) {
      block = engine_->step();
    } else {
      const mainchain::Miner miner(engine_->mc(), miner_.address());
      block = traced_engine_step(*engine_, miner, certifying(), *tracer,
                                 counts_.traced);
    }
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;

  // ---- bookkeeping (untimed) ----
  account(block, offered, btrs.size(), csws.size());
  if (timeline != nullptr) {
    timeline->add(ms, height % latus::LatusNode::kCheckpointInterval == 0
                          ? StepClass::kCheckpoint
                          : StepClass::kPlain);
    ++timeline->mc_blocks;
    counts_.gen_signatures += static_cast<double>(signatures);
    for (const Sc& sc : scs_) {
      counts_.mst_occupied +=
          static_cast<double>(sc.node->state().mst().occupied_count());
    }
    counts_.commitment_leaves += static_cast<double>(commitment_leaves(block));
    counts_.items_offered +=
        static_cast<double>(offered + btrs.size() + csws.size());
    counts_.items_included += static_cast<double>(block_items(block));
  }
}

void MultiSc::account(const mainchain::Block& block, std::size_t offered,
                      std::size_t btrs, std::size_t csws) {
  const std::uint64_t height = block.header.height;
  const auto& state = engine_->mc().state();
  ledger_.attempt("mc.blocks");
  ledger_.attempt("mc.items", offered);
  ledger_.fail("mc.items", offered - (block_items(block) - block.btrs.size() -
                                      block.csws.size()));
  ledger_.attempt("mc.btrs", btrs);
  ledger_.fail("mc.btrs", btrs - block.btrs.size());
  ledger_.attempt("mc.csws", csws);
  ledger_.fail("mc.csws", csws - block.csws.size());

  std::vector<mainchain::WithdrawalCertificate> built;
  for (Sc& sc : scs_) {
    built.clear();
    for (const auto& cert : engine_->mempool().certificates) {
      if (cert.ledger_id == sc.id) built.push_back(cert);
    }
    const auto applied = sc.audit->after_step(block, state, *sc.node, built,
                                              ledger_, checks_);
    counts_.bts_applied += static_cast<double>(applied.btrs);

    // Coins the users can claim later: record when each appeared.
    std::set<Digest> present;
    for (std::uint64_t pos : sc.node->state().mst().occupied_positions()) {
      auto utxo = sc.node->state().utxo_at(pos);
      if (!utxo) continue;
      present.insert(utxo->nonce);
      sc.coins.try_emplace(utxo->nonce, *utxo, height);
    }
    std::erase_if(sc.coins,
                  [&](const auto& e) { return !present.contains(e.first); });

    const auto* status = state.find_sidechain(sc.id);
    if (height >= kSetupHeight) {
      checks_.expect(status != nullptr && status->ceased == ceasing(sc.index),
                     "multi_sc: a sidechain ceased off schedule at height " +
                         std::to_string(height));
    }
  }
}

void MultiSc::finish() {
  std::size_t ceased = 0;
  for (const Sc& sc : scs_) {
    const auto* status = engine_->mc().state().find_sidechain(sc.id);
    ceased += status != nullptr && status->ceased ? 1 : 0;
  }
  checks_.expect(ceased == kSidechains / 4,
                 "multi_sc: the wrong number of sidechains ceased");
}

EndState MultiSc::end_state() const {
  EndState end{engine_->mc().tip_hash(), {}};
  for (const Sc& sc : scs_) {
    end.sc_commitments.push_back(sc.node->state().commitment());
  }
  return end;
}

void MultiSc::layer_metrics(const Timeline& timeline, LayerMetrics& out) {
  RegistrySum after;
  add_engine_registries(*engine_, after);
  const double blocks = static_cast<double>(timeline.mc_blocks);
  registry_layer_metrics(before_, after, blocks, out);
  node_count_metrics(counts_, blocks, out);
}

}  // namespace

std::unique_ptr<Workload> make_multi_sc(std::uint64_t seed,
                                        std::uint64_t size) {
  return std::make_unique<MultiSc>(seed, size);
}

}  // namespace cctpbench
