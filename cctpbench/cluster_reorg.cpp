// cluster_reorg: a 16-node NodeCluster (default 1-4 tick links, no drops)
// with partitions as the injected fault; nodes 0-3 host the same Latus
// sidechain. No payments are proved. Three kinds of work dominate: block
// relay, header sync and body download (net); disconnect and reconnect
// through undo data (mainchain); sidechain rollback to a checkpoint and
// replay (latus).
//
// Closed loop of partition races after a shared prefix. Each race splits
// the 16 nodes into two halves of 8, two hosts on each side, and runs one
// step per round, each round draining the simulator to idle:
//  - 3 rounds in which each side's next host queues a forward transfer
//    and mines one block;
//  - 1 round in which only the winning side (a seeded coin flip) mines;
//  - heal: the halves reconnect and every node announces its tip, so the
//    losing half reorgs 3 blocks deep onto the 4-block branch.
// Node 16 also hosts the sidechain but is partitioned off from the start;
// after the last race it catches up the whole chain by headers-first sync,
// one announce round per step until its tip matches.
#include <algorithm>
#include <stdexcept>

#include "engine_step.hpp"
#include "net/scenario.hpp"
#include "sim/workload.hpp"
#include "traffic.hpp"

namespace cctpbench {
namespace {

namespace net = zendoo::net;
using mainchain::Amount;

constexpr std::size_t kNodes = 16;
constexpr net::NodeId kJoiner = kNodes;  ///< the 17th node
constexpr std::size_t kHosts = 4;        ///< nodes 0..3 host the sidechain
constexpr std::size_t kUsers = 2;
constexpr std::uint64_t kStartBlock = 2;
constexpr std::uint64_t kEpochLen = 8;
constexpr std::uint64_t kSubmitLen = 4;
constexpr std::size_t kRaceDepth = 3;
constexpr std::size_t kFundingCoins = 8;
constexpr Amount kFundingCoin = 100'000;
/// Shared prefix: epoch 0's certificate finalized, and two full epochs.
constexpr std::uint64_t kSetupHeight = kStartBlock + 2 * kEpochLen;
constexpr std::size_t kMaxCatchUpRounds = 8;

class ClusterReorg final : public Workload {
 public:
  ClusterReorg(std::uint64_t seed, std::uint64_t races)
      : seed_(seed), races_(races), rng_(seed) {}

  void setup() override;
  void run(Timeline& timeline, Tracer* tracer) override;
  void finish() override;
  [[nodiscard]] EndState end_state() const override;
  void layer_metrics(const Timeline& timeline, LayerMetrics& out) override;

 private:
  [[nodiscard]] net::NetNode& node(std::size_t i) { return (*cluster_)[i]; }
  /// Queues one forward transfer from `miner`'s wallet to a random user
  /// (untimed client work).
  void queue_ft(std::size_t miner, Timeline* timeline);
  /// One round: each of `miners` mines a block, then the simulator drains.
  void mine_round(const std::vector<std::size_t>& miners, Timeline* timeline,
                  Tracer* tracer);
  /// Announces every cluster node's tip and drains the simulator.
  void announce_all(Tracer* tracer);
  void sum_registries(RegistrySum& sum);
  [[nodiscard]] std::vector<net::NodeId> cluster_ids() const;

  std::uint64_t seed_;
  std::uint64_t races_;
  crypto::Rng rng_;
  mainchain::SidechainId sc_id_;
  std::vector<crypto::KeyPair> users_;
  std::unique_ptr<net::NodeCluster> cluster_;

  std::uint64_t timed_from_height_ = 0;
  std::uint64_t catchup_ticks_ = 0;
  std::size_t catchup_rounds_ = 0;
  double catchup_ms_ = 0;
  RegistrySum before_;
  NodeCounts counts_;
};

std::vector<net::NodeId> ClusterReorg::cluster_ids() const {
  std::vector<net::NodeId> ids(kNodes);
  for (net::NodeId i = 0; i < kNodes; ++i) ids[i] = i;
  return ids;
}

void ClusterReorg::setup() {
  users_ = zendoo::sim::make_keys(kUsers, seed_);
  sc_id_ = crypto::Hasher(crypto::Domain::kGeneric)
               .write_str("cluster_reorg")
               .write_u64(seed_)
               .finalize();
  cluster_ = std::make_unique<net::NodeCluster>(seed_, kNodes + 1);
  for (std::size_t i = 0; i <= kNodes; ++i) {
    if (i < kHosts || i == kJoiner) {
      node(i).engine().add_latus_sidechain(sc_id_, kStartBlock, kEpochLen,
                                           kSubmitLen, users_);
    }
  }
  cluster_->net.partition({cluster_ids(), {kJoiner}});

  // Shared prefix, mined by the hosts in turn and gossiped to every node.
  // Node 0 mines the registration and funds the users from that coinbase.
  while (node(0).height() < kSetupHeight) {
    const std::uint64_t next = node(0).height() + 1;
    const std::size_t miner = next <= kStartBlock ? 0 : next % kHosts;
    if (next == kStartBlock) {
      SlotPlan plan(node(miner).engine().sidechain(sc_id_).state());
      std::vector<mainchain::Wallet::FtSpec> specs;
      for (const auto& u : users_) {
        for (std::size_t c = 0; c < kFundingCoins; ++c) {
          specs.push_back({{u.address(), u.address()}, kFundingCoin});
        }
      }
      std::uint64_t sigs = 0;
      auto& engine = node(miner).engine();
      auto tx = build_ft_tx(engine.miner_wallet(), engine.mc().state(), sc_id_,
                            std::move(specs), plan, &sigs);
      if (!tx) throw std::logic_error("cluster_reorg: miner cannot fund users");
      engine.mempool().transactions.push_back(std::move(*tx));
    } else if (next > kStartBlock) {
      queue_ft(miner, nullptr);
    }
    mine_round({miner}, nullptr, nullptr);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    checks_.expect(node(i).tip() == node(0).tip(),
                   "cluster_reorg: shared prefix not gossiped to every node");
  }
  const auto* sc = node(0).chain().state().find_sidechain(sc_id_);
  checks_.expect(sc != nullptr && sc->last_finalized_epoch.has_value(),
                 "cluster_reorg: set-up did not finalize a certificate");
}

void ClusterReorg::queue_ft(std::size_t miner, Timeline* timeline) {
  if (timeline != nullptr) timeline->gen.start();
  auto& engine = node(miner).engine();
  SlotPlan plan(engine.sidechain(sc_id_).state());
  const auto& user = users_[rng_.next_below(users_.size())];
  std::uint64_t sigs = 0;
  auto tx = build_ft_tx(engine.miner_wallet(), engine.mc().state(), sc_id_,
                        {{{user.address(), user.address()},
                          1'000 + rng_.next_below(9'000)}},
                        plan, &sigs);
  if (tx) engine.mempool().transactions.push_back(std::move(*tx));
  counts_.gen_signatures += static_cast<double>(sigs);
  if (timeline != nullptr) timeline->gen.stop();
}

void ClusterReorg::mine_round(const std::vector<std::size_t>& miners,
                              Timeline* timeline, Tracer* tracer) {
  for (std::size_t m : miners) {
    const std::size_t offered = mempool_items(node(m).engine().mempool());
    mainchain::Block block;
    {
      Tracer::Scope span(tracer, "net.mine");
      block = node(m).mine();
    }
    if (timeline != nullptr) {
      ++timeline->mc_blocks;
      counts_.mst_occupied += static_cast<double>(
          node(m).engine().sidechain(sc_id_).state().mst().occupied_count());
      counts_.items_offered += static_cast<double>(offered);
      counts_.items_included += static_cast<double>(block_items(block));
      counts_.commitment_leaves += static_cast<double>(commitment_leaves(block));
    }
  }
  Tracer::Scope span(tracer, "net.deliver");
  cluster_->net.run_until_idle();
}

void ClusterReorg::announce_all(Tracer* tracer) {
  {
    Tracer::Scope span(tracer, "net.announce");
    for (std::size_t i = 0; i < kNodes; ++i) node(i).announce_tip();
  }
  Tracer::Scope span(tracer, "net.deliver");
  cluster_->net.run_until_idle();
}

void ClusterReorg::sum_registries(RegistrySum& sum) {
  sum.add(cluster_->net.registry());
  for (const auto& n : cluster_->nodes) {
    sum.add(n->registry());
    add_engine_registries(n->engine(), sum);
  }
}

void ClusterReorg::run(Timeline& timeline, Tracer* tracer) {
  before_ = RegistrySum{};
  sum_registries(before_);
  counts_ = NodeCounts{};
  ledger_ = Ledger{};
  timed_from_height_ = node(0).height() + 1;
  std::uint32_t step_id = 0;
  auto timed = [&](StepClass cls, const auto& body) {
    if (tracer != nullptr) tracer->set_step(step_id);
    ++step_id;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "step");
      body();
    }
    timeline.add(static_cast<double>(now_ns() - t0) / 1e6, cls);
  };

  std::vector<std::size_t> hosts(kHosts), others;
  for (std::size_t i = 0; i < kHosts; ++i) hosts[i] = i;
  for (std::size_t i = kHosts; i < kNodes; ++i) others.push_back(i);
  for (std::uint64_t race = 0; race < races_; ++race) {
    // Split: two hosts and six other nodes per side.
    timeline.gen.start();
    auto shuffle = [&](std::vector<std::size_t>& v) {
      for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[rng_.next_below(i)]);
      }
    };
    shuffle(hosts);
    shuffle(others);
    std::vector<net::NodeId> side[2];
    for (std::size_t i = 0; i < kHosts; ++i) {
      side[i % 2].push_back(static_cast<net::NodeId>(hosts[i]));
    }
    for (std::size_t i = 0; i < others.size(); ++i) {
      side[i % 2].push_back(static_cast<net::NodeId>(others[i]));
    }
    const std::size_t winner = rng_.next_below(2);
    timeline.gen.stop();

    for (std::size_t round = 0; round <= kRaceDepth; ++round) {
      std::vector<std::size_t> miners;
      for (std::size_t s = 0; s < 2; ++s) {
        if (round == kRaceDepth && s != winner) continue;
        const std::size_t miner = side[s][round % 2];  // one of its hosts
        queue_ft(miner, &timeline);
        miners.push_back(miner);
      }
      timed(StepClass::kPlain, [&] {
        if (round == 0) {
          cluster_->net.partition({side[0], side[1], {kJoiner}});
        }
        mine_round(miners, &timeline, tracer);
      });
    }
    timed(StepClass::kHeal, [&] {
      cluster_->net.partition({cluster_ids(), {kJoiner}});
      announce_all(tracer);
    });
  }

  // The joiner catches up: heal, then announce rounds until its tip
  // matches.
  const net::SimTime t_heal = cluster_->net.now();
  const std::int64_t c0 = now_ns();
  {
    Tracer::Scope span(tracer, "net.catchup");
    bool first = true;
    while (catchup_rounds_ < kMaxCatchUpRounds &&
           (first || node(kJoiner).tip() != node(0).tip())) {
      ++catchup_rounds_;
      timed(StepClass::kCatchUp, [&] {
        if (first) cluster_->net.heal();
        announce_all(tracer);
      });
      first = false;
    }
  }
  catchup_ms_ = static_cast<double>(now_ns() - c0) / 1e6;
  catchup_ticks_ = cluster_->net.now() - t_heal;
  ledger_.attempt("net.catchup");
  if (node(kJoiner).tip() != node(0).tip()) ledger_.fail("net.catchup");
}

void ClusterReorg::finish() {
  // Every node, the joiner included, sits on one tip whose state equals a
  // from-genesis replay of that chain.
  const auto& chain0 = node(0).chain();
  mainchain::ChainState replay(chain0.params());
  bool replayed = true;
  for (std::uint64_t h = 0; h <= chain0.height() && replayed; ++h) {
    const mainchain::Block* b = chain0.find_block(chain0.hash_at_height(h));
    replayed = b != nullptr && replay.connect_block(*b).empty();
  }
  checks_.expect(replayed, "cluster_reorg: the active chain does not replay");
  const Digest fingerprint = replay.state_fingerprint();
  for (std::size_t i = 0; i <= kNodes; ++i) {
    checks_.expect(node(i).tip() == node(0).tip(),
                   "cluster_reorg: node " + std::to_string(i) +
                       " is not on the common tip");
    checks_.expect(node(i).chain().state().state_fingerprint() == fingerprint,
                   "cluster_reorg: node " + std::to_string(i) +
                       " state differs from a from-genesis replay");
  }

  // Every host holds one SC state, and the sidechain stayed live: each
  // epoch whose window closed has a finalized certificate.
  const auto& sc0 = node(0).engine().sidechain(sc_id_);
  for (std::size_t i = 0; i <= kNodes; ++i) {
    if (i >= kHosts && i != kJoiner) continue;
    const auto& sc = node(i).engine().sidechain(sc_id_);
    checks_.expect(sc.state().commitment() == sc0.state().commitment() &&
                       sc.height() == sc0.height(),
                   "cluster_reorg: host " + std::to_string(i) +
                       " disagrees on the SC state");
  }
  const auto* status = node(0).chain().state().find_sidechain(sc_id_);
  const auto& p = sc0.mc_params();
  const std::uint64_t height = node(0).height();
  std::uint64_t closed = 0;  // epochs whose certificate window has ended
  while (p.cert_window_end(closed) <= height) ++closed;
  checks_.expect(status != nullptr && !status->ceased &&
                     status->last_finalized_epoch &&
                     *status->last_finalized_epoch + 1 == closed,
                 "cluster_reorg: a certificate of the live sidechain was not "
                 "finalized");
  std::uint64_t closed_before = 0;
  while (p.cert_window_end(closed_before) < timed_from_height_) ++closed_before;
  ledger_.attempt("mc.certificates", closed - closed_before);
  if (status != nullptr && status->last_finalized_epoch) {
    ledger_.fail("mc.certificates",
                 closed - std::min(closed, *status->last_finalized_epoch + 1));
  }
  checks_.expect(status != nullptr &&
                     status->balance >= sc0.state().total_supply(),
                 "cluster_reorg: safeguard balance does not cover SC supply");

  // Forward transfers on the winning chain: credited, not refunded.
  for (const auto& sb : sc0.chain()) {
    for (const auto& ref : sb.mc_refs) {
      if (!ref.forward_transfers || ref.header.height < timed_from_height_) {
        continue;
      }
      ledger_.attempt("sc.forward_transfers",
                      ref.forward_transfers->fts.size());
      ledger_.fail("sc.forward_transfers",
                   ref.forward_transfers->rejected_transfers.size());
    }
  }
  RegistrySum after;
  sum_registries(after);
  ledger_.attempt("mc.blocks_received",
                  static_cast<std::uint64_t>(after.get("mc.blocks_submitted") -
                                             before_.get("mc.blocks_submitted")));
  ledger_.fail("mc.blocks_received",
               static_cast<std::uint64_t>(after.get("mc.rejected") -
                                          before_.get("mc.rejected")));
}

EndState ClusterReorg::end_state() const {
  EndState end{cluster_->nodes[0]->tip(), {}};
  for (std::size_t i = 0; i <= kNodes; ++i) {
    if (i >= kHosts && i != kJoiner) continue;
    end.sc_commitments.push_back(
        cluster_->nodes[i]->engine().sidechain(sc_id_).state().commitment());
  }
  return end;
}

void ClusterReorg::layer_metrics(const Timeline& timeline, LayerMetrics& out) {
  RegistrySum after;
  sum_registries(after);
  const double blocks = static_cast<double>(timeline.mc_blocks);
  registry_layer_metrics(before_, after, blocks, out);
  node_count_metrics(counts_, blocks, out);
  out["net.catchup_ms"] = catchup_ms_;
  out["net.catchup_sim_ticks"] = static_cast<double>(catchup_ticks_);
  out["net.catchup_rounds"] = static_cast<double>(catchup_rounds_);
}

}  // namespace

std::unique_ptr<Workload> make_cluster_reorg(std::uint64_t seed,
                                             std::uint64_t size) {
  return std::make_unique<ClusterReorg>(seed, size);
}

}  // namespace cctpbench
