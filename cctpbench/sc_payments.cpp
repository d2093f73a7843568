// sc_payments: one Engine, one Latus sidechain carrying steady payment
// traffic. Per-payment sidechain work dominates (state copies in
// forge_block and apply_payment, re-execution inside prove_chain, MST path
// updates, SC signature checks); there is no network.
//
// Closed loop, one MC block per step. Each epoch of 8 MC blocks (offset
// o = (height - start_block) % 8):
//  - every block but the epoch-closing one (o = 7) carries 12 two-in/
//    two-out SC payments between 64 users holding ~4 coins each;
//  - o = 1 adds 4 backward transfers (each burns one whole coin), paid out
//    on the MC when that epoch's certificate finalizes;
//  - o = 2 mines one MC transaction with 4 forward transfers of the same
//    amounts, so supply and UTXO count stay level.
// Nothing is queued for the epoch-closing block: forge_block leaves the SC
// mempool untouched at a withdrawal-epoch boundary.
#include <stdexcept>

#include "audit.hpp"
#include "engine_step.hpp"
#include "sim/workload.hpp"
#include "traffic.hpp"

namespace cctpbench {
namespace {

using mainchain::Amount;

constexpr unsigned kMstDepth = 16;
constexpr std::uint64_t kStartBlock = 2;
constexpr std::uint64_t kEpochLen = 8;
constexpr std::uint64_t kSubmitLen = 4;
constexpr std::size_t kUsers = 64;
constexpr std::size_t kCoinsPerUser = 4;
constexpr Amount kCoinAmount = 100'000;
constexpr std::size_t kPaymentsPerBlock = 12;
constexpr std::size_t kBtsPerEpoch = 4;
constexpr std::uint64_t kBtOffset = 1;
constexpr std::uint64_t kTopUpOffset = 2;
/// Set-up ends with epoch 1 closed: epoch 0's certificate is finalized and
/// the timed phase starts on an epoch boundary.
constexpr std::uint64_t kSetupHeight = kStartBlock + 2 * kEpochLen - 1;

class ScPayments final : public Workload {
 public:
  ScPayments(std::uint64_t seed, std::uint64_t epochs)
      : seed_(seed),
        epochs_(epochs),
        miner_(crypto::KeyPair::from_seed(crypto::Hasher(crypto::Domain::kGeneric)
                                              .write_str("sc_payments-miner")
                                              .write_u64(seed)
                                              .finalize())),
        rng_(seed) {}

  void setup() override {
    wallet_ = std::make_unique<ScWallet>(zendoo::sim::make_keys(kUsers, seed_));
    sc_id_ = crypto::Hasher(crypto::Domain::kGeneric)
                 .write_str("sc_payments")
                 .write_u64(seed_)
                 .finalize();
    engine_ = std::make_unique<core::Engine>(mainchain::ChainParams{}, miner_);
    node_ = &engine_->add_latus_sidechain(sc_id_, kStartBlock, kEpochLen,
                                          kSubmitLen, wallet_->users(),
                                          kMstDepth);
    audit_ = std::make_unique<ScAudit>(sc_id_);
    while (engine_->mc().height() < kSetupHeight) step(nullptr, nullptr);
  }

  void run(Timeline& timeline, Tracer* tracer) override {
    before_ = RegistrySum{};
    add_engine_registries(*engine_, before_);
    counts_ = NodeCounts{};
    ledger_ = Ledger{};
    for (std::uint64_t i = 0; i < epochs_ * kEpochLen; ++i) {
      if (tracer != nullptr) tracer->set_step(static_cast<std::uint32_t>(i));
      step(&timeline, tracer);
    }
  }

  void finish() override {
    const auto* sc = engine_->mc().state().find_sidechain(sc_id_);
    checks_.expect(sc != nullptr && !sc->ceased,
                   "sc_payments: the sidechain ceased");
  }

  [[nodiscard]] EndState end_state() const override {
    return {engine_->mc().tip_hash(), {node_->state().commitment()}};
  }

  void layer_metrics(const Timeline& timeline, LayerMetrics& out) override {
    RegistrySum after;
    add_engine_registries(*engine_, after);
    const double blocks = static_cast<double>(timeline.mc_blocks);
    registry_layer_metrics(before_, after, blocks, out);
    node_count_metrics(counts_, blocks, out);
  }

 private:
  /// One MC block: client traffic (untimed), the program calls (timed,
  /// traced when `tracer` is set), then output bookkeeping (untimed).
  void step(Timeline* timeline, Tracer* tracer);
  /// Checks and ledger entries for the block just mined.
  void account(const mainchain::Block& block,
               const std::vector<latus::PaymentTx>& pays,
               std::size_t bts_submitted, std::size_t offered);

  std::uint64_t seed_;
  std::uint64_t epochs_;
  crypto::KeyPair miner_;
  crypto::Rng rng_;
  mainchain::SidechainId sc_id_;
  std::unique_ptr<ScWallet> wallet_;
  std::unique_ptr<core::Engine> engine_;
  latus::LatusNode* node_ = nullptr;

  /// BT amounts of this epoch, re-funded by the top-up forward transfers.
  std::vector<Amount> topup_;
  std::unique_ptr<ScAudit> audit_;

  RegistrySum before_;
  NodeCounts counts_;
};

void ScPayments::step(Timeline* timeline, Tracer* tracer) {
  const std::uint64_t height = engine_->mc().height() + 1;
  const bool started = height >= kStartBlock;
  const std::uint64_t offset = started ? (height - kStartBlock) % kEpochLen : 0;
  const bool closing = started && offset == kEpochLen - 1;

  // ---- client traffic (untimed) ----
  if (timeline != nullptr) timeline->gen.start();
  std::vector<latus::PaymentTx> pays;
  std::vector<latus::BackwardTransferTx> bts;
  const std::uint64_t wallet_signatures = wallet_->signatures();
  std::uint64_t signatures = 0;
  if (height == kStartBlock) {
    // Funding: every user receives kCoinsPerUser coins.
    SlotPlan plan(node_->state());
    std::vector<mainchain::Wallet::FtSpec> specs;
    for (const auto& user : wallet_->users()) {
      for (std::size_t c = 0; c < kCoinsPerUser; ++c) {
        specs.push_back({{user.address(), user.address()}, kCoinAmount});
      }
    }
    auto tx = build_ft_tx(engine_->miner_wallet(), engine_->mc().state(),
                          sc_id_, std::move(specs), plan, &signatures);
    if (!tx) throw std::logic_error("sc_payments: miner cannot fund users");
    engine_->mempool().transactions.push_back(std::move(*tx));
  } else if (height > kStartBlock && !closing) {
    wallet_->sync(node_->state());
    SlotPlan plan(node_->state());
    if (offset == kTopUpOffset && !topup_.empty()) {
      std::vector<mainchain::Wallet::FtSpec> specs;
      for (Amount amount : topup_) {
        const auto& user =
            wallet_->users()[rng_.next_below(wallet_->users().size())];
        specs.push_back({{user.address(), user.address()}, amount});
      }
      topup_.clear();
      auto tx = build_ft_tx(engine_->miner_wallet(), engine_->mc().state(),
                            sc_id_, std::move(specs), plan, &signatures);
      if (!tx) throw std::logic_error("sc_payments: miner cannot top up");
      engine_->mempool().transactions.push_back(std::move(*tx));
    }
    if (offset == kBtOffset) {
      bts = wallet_->backward_transfers(kBtsPerEpoch, rng_);
      for (const auto& bt : bts) {
        topup_.push_back(bt.backward_transfers.front().amount);
      }
    }
    pays = wallet_->payments(kPaymentsPerBlock, rng_, plan);
  }
  signatures += wallet_->signatures() - wallet_signatures;
  const std::size_t offered = mempool_items(engine_->mempool());
  const std::size_t bts_submitted = bts.size();
  // Kept for accounting; the originals move into the node.
  const std::vector<latus::PaymentTx> submitted = pays;
  if (timeline != nullptr) timeline->gen.stop();

  // ---- program calls (timed) ----
  mainchain::Block block;
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope step_span(tracer, "step");
    for (auto& tx : pays) node_->submit_payment(std::move(tx));
    for (auto& tx : bts) node_->submit_backward_transfer(std::move(tx));
    if (tracer == nullptr) {
      block = engine_->step();
    } else {
      const mainchain::Miner miner(engine_->mc(), miner_.address());
      block = traced_engine_step(*engine_, miner, {{sc_id_, true}}, *tracer,
                                 counts_.traced);
    }
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;

  // ---- bookkeeping (untimed) ----
  account(block, submitted, bts_submitted, offered);
  if (timeline != nullptr) {
    StepClass cls = StepClass::kPlain;
    if (closing) {
      cls = StepClass::kEpochClose;
    } else if (height % latus::LatusNode::kCheckpointInterval == 0) {
      cls = StepClass::kCheckpoint;
    }
    timeline->add(ms, cls);
    ++timeline->mc_blocks;
    counts_.gen_signatures += static_cast<double>(signatures);
    counts_.mst_occupied +=
        static_cast<double>(node_->state().mst().occupied_count());
    counts_.commitment_leaves += static_cast<double>(commitment_leaves(block));
    counts_.items_offered += static_cast<double>(offered);
    counts_.items_included += static_cast<double>(block_items(block));
  }
}

void ScPayments::account(const mainchain::Block& block,
                         const std::vector<latus::PaymentTx>& pays,
                         std::size_t bts_submitted, std::size_t offered) {
  ledger_.attempt("mc.blocks");
  ledger_.attempt("mc.items", offered);
  ledger_.fail("mc.items", offered - block_items(block));
  const auto applied =
      audit_->after_step(block, engine_->mc().state(), *node_,
                        engine_->mempool().certificates, ledger_, checks_);

  ledger_.attempt("sc.payments", pays.size());
  ledger_.attempt("sc.backward_transfers", bts_submitted);
  ledger_.fail("sc.backward_transfers", bts_submitted - applied.bt_txs);
  std::size_t dropped = 0;
  for (const auto& tx : pays) {
    if (!applied.payments.contains(tx.id())) {
      ++dropped;
      wallet_->note_dropped(tx);
    }
  }
  ledger_.fail("sc.payments", dropped);
  counts_.payments_applied += static_cast<double>(pays.size() - dropped);
  counts_.payments_dropped += static_cast<double>(dropped);
  counts_.bts_applied += static_cast<double>(applied.bt_txs);
}

}  // namespace

std::unique_ptr<Workload> make_sc_payments(std::uint64_t seed,
                                           std::uint64_t size) {
  return std::make_unique<ScPayments>(seed, size);
}

}  // namespace cctpbench
