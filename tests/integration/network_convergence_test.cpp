// §5.1 fork resolution driven by real network races: a seeded sweep of
// randomized partition/heal schedules over clusters of independent
// mining nodes, each failure printing its reproducing seed.
//
// The three convergence properties asserted per schedule:
//   (a) after the final heal every node reaches the identical tip;
//   (b) every node's incremental state equals a from-genesis replay of
//       the winning chain (differential oracle, like ForkChoiceFuzz);
//   (c) with Latus sidechains attached, sidechain state survives the
//       induced reorgs via Engine::resync_sidechains_after_reorg and all
//       nodes agree on the sidechain state commitment too.
#include <gtest/gtest.h>

#include "net/scenario.hpp"
#include "sim/workload.hpp"

namespace zendoo {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::hash_str;
using crypto::KeyPair;
using crypto::Rng;
using net::NetNode;
using net::ScenarioRunner;
using net::SimNet;

KeyPair miner_key(std::uint64_t i) {
  return KeyPair::from_seed(crypto::Hasher(Domain::kGeneric)
                                .write_str("conv-miner")
                                .write_u64(i)
                                .finalize());
}

Digest replay_fingerprint(const mainchain::Blockchain& chain) {
  mainchain::ChainState reference{chain.params()};
  for (std::uint64_t h = 0; h <= chain.height(); ++h) {
    const mainchain::Block* b = chain.find_block(chain.hash_at_height(h));
    if (b == nullptr) {
      ADD_FAILURE() << "active chain block missing at height " << h;
      return Digest{};
    }
    if (std::string err = reference.connect_block(*b); !err.empty()) {
      ADD_FAILURE() << "replay failed at height " << h << ": " << err;
      return Digest{};
    }
  }
  return reference.state_fingerprint();
}

class NetConvergenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetConvergenceSweep, RandomPartitionScheduleConverges) {
  const std::uint64_t seed = GetParam();
  // Everything below derives from `seed` alone; run the whole scenario
  // twice and demand the identical event trace digest (replayability is
  // what makes these sweeps debuggable at all).
  struct Outcome {
    Digest trace_digest;
    Digest tip;
    Digest fingerprint;
  };
  auto run_once = [&]() -> Outcome {
    Rng rng(seed);
    const std::size_t n_nodes = 4 + rng.next_below(3);
    SimNet simnet(seed);
    std::vector<std::unique_ptr<NetNode>> nodes;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      nodes.push_back(std::make_unique<NetNode>(
          simnet, mainchain::ChainParams{}, miner_key(i)));
    }
    std::vector<NetNode*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    ScenarioRunner runner(simnet, ptrs);

    const std::size_t cycles = 1 + rng.next_below(3);
    const std::size_t mines_per_side = 1 + rng.next_below(3);
    runner.run(net::make_random_race(rng, n_nodes, cycles, mines_per_side));
    EXPECT_TRUE(runner.converge(0)) << "seed " << seed;

    // (a) identical tip everywhere.
    for (std::size_t i = 1; i < n_nodes; ++i) {
      EXPECT_EQ(ptrs[i]->tip(), ptrs[0]->tip())
          << "seed " << seed << " node " << i;
    }
    // The race actually produced chain growth (the winner can be much
    // shorter than the total blocks mined: losing branches die, and
    // concurrent miners inside one side fork against each other too).
    EXPECT_GE(ptrs[0]->height(), cycles) << "seed " << seed;

    // (b) incremental state == from-genesis replay of the winning chain.
    for (std::size_t i = 0; i < n_nodes; ++i) {
      EXPECT_EQ(ptrs[i]->chain().state().state_fingerprint(),
                replay_fingerprint(ptrs[i]->chain()))
          << "seed " << seed << " node " << i;
    }
    return {simnet.trace_digest(), ptrs[0]->tip(),
            ptrs[0]->chain().state().state_fingerprint()};
  };

  Outcome first = run_once();
  Outcome second = run_once();
  EXPECT_EQ(first.trace_digest, second.trace_digest) << "seed " << seed;
  EXPECT_EQ(first.tip, second.tip) << "seed " << seed;
  EXPECT_EQ(first.fingerprint, second.fingerprint) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetConvergenceSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class SidechainNetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SidechainNetSweep, SidechainStateSurvivesNetworkReorgs) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t n_nodes = 4;
  auto users = sim::make_keys(2, seed);
  auto sc_id = crypto::Hasher(Domain::kGeneric)
                   .write_str("net-sc")
                   .write_u64(seed)
                   .finalize();

  SimNet simnet(seed);
  std::vector<std::unique_ptr<NetNode>> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(std::make_unique<NetNode>(
        simnet, mainchain::ChainParams{}, miner_key(i)));
    // Every node hosts the same sidechain (same params and forger set) —
    // its registration is queued in each local mempool and lands on-chain
    // with whichever block wins; stale duplicates are dropped at
    // assembly.
    nodes.back()->engine().add_latus_sidechain(sc_id, 2, 4, 2, users, 10, 8);
  }
  std::vector<NetNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(n.get());
  ScenarioRunner runner(simnet, ptrs);

  // Registration block, then a funding forward transfer from the first
  // miner's subsidy.
  ptrs[0]->mine();
  simnet.run_until_idle();
  ASSERT_TRUE(ptrs[0]->engine().queue_forward_transfer(
      sc_id, users[0].address(), users[0].address(), 5'000'000));
  ptrs[0]->mine();
  simnet.run_until_idle();

  // Random partition races with mining on both sides; each cycle
  // alternates which side carries extra forward-transfer traffic.
  for (std::size_t cycle = 0; cycle < 2 + rng.next_below(2); ++cycle) {
    std::vector<net::NodeId> side_a, side_b;
    for (net::NodeId id = 0; id < n_nodes; ++id) {
      (rng.chance(1, 2) ? side_a : side_b).push_back(id);
    }
    if (side_a.empty()) side_a.push_back(side_b.back()), side_b.pop_back();
    if (side_b.empty()) side_b.push_back(side_a.back()), side_a.pop_back();
    simnet.partition({{side_a}, {side_b}});

    const std::size_t rounds = 1 + rng.next_below(2);
    for (std::size_t r = 0; r < rounds; ++r) {
      NetNode& a = *ptrs[side_a[rng.next_below(side_a.size())]];
      NetNode& b = *ptrs[side_b[rng.next_below(side_b.size())]];
      // Forward transfers mined inside a partition may die with the
      // losing branch — exactly the §5.1 behaviour under test.
      sim::queue_random_fts(a.engine(), sc_id, users, rng);
      a.mine();
      sim::queue_random_fts(b.engine(), sc_id, users, rng);
      b.mine();
      simnet.run_until_idle();
    }
    simnet.heal();
    for (auto* n : ptrs) n->announce_tip();
    simnet.run_until_idle();
  }
  ASSERT_TRUE(runner.converge(0)) << "seed " << seed;

  // (a)+(b): mainchain agreement and replay oracle.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    EXPECT_EQ(ptrs[i]->tip(), ptrs[0]->tip()) << "seed " << seed;
    EXPECT_EQ(ptrs[i]->chain().state().state_fingerprint(),
              replay_fingerprint(ptrs[i]->chain()))
        << "seed " << seed << " node " << i;
  }

  // (c): every node's sidechain re-synced along the winning chain to the
  // same state commitment and SC chain length, and the safeguard balance
  // covers the circulating supply.
  const auto* sc = ptrs[0]->chain().state().find_sidechain(sc_id);
  ASSERT_NE(sc, nullptr) << "seed " << seed;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    latus::LatusNode& node = ptrs[i]->engine().sidechain(sc_id);
    latus::LatusNode& node0 = ptrs[0]->engine().sidechain(sc_id);
    EXPECT_EQ(node.state().commitment(), node0.state().commitment())
        << "seed " << seed << " node " << i;
    EXPECT_EQ(node.height(), node0.height()) << "seed " << seed;
    EXPECT_LE(node.state().total_supply(), sc->balance)
        << "seed " << seed << " node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SidechainNetSweep,
                         ::testing::Values(11, 12, 13, 14));

// ---- Headers-first deep catch-up ----
//
// A node rejoining past the orphan pool's reach must fetch the whole
// branch in one announce round — the header chain maps the branch, the
// scheduler pulls every body — and end on exactly the state a
// from-genesis replay of its chain produces.

struct CatchUpOutcome {
  Digest fingerprint;
  Digest replay;  ///< from-genesis replay of the straggler's chain
  std::uint64_t height = 0;
  std::size_t rounds = 0;  ///< announce rounds until synced
};

CatchUpOutcome run_catch_up(std::uint64_t seed, std::uint64_t depth) {
  net::NodeCluster c(seed, 5);
  const std::size_t straggler = 4;
  c.net.partition({{0, 1, 2, 3}, {straggler}});
  for (std::uint64_t i = 0; i < depth; ++i) c[0].mine();
  c.net.run_until_idle();
  EXPECT_EQ(c[straggler].height(), 0u);

  c.net.heal();
  CatchUpOutcome out;
  for (std::size_t round = 1; round <= 64; ++round) {
    c[0].announce_tip();
    c.net.run_until_idle();
    if (c[straggler].tip() == c[0].tip()) {
      out.rounds = round;
      break;
    }
  }
  EXPECT_GT(out.rounds, 0u) << "catch-up never completed, seed " << seed;
  out.fingerprint = c[straggler].chain().state().state_fingerprint();
  out.replay = replay_fingerprint(c[straggler].chain());
  out.height = c[straggler].height();
  return out;
}

class HeadersFirstCatchUp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeadersFirstCatchUp, SyncsPastOrphanPoolInOneRoundMatchingReplay) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t depth = 192 + 32 * (seed % 3);  // past the orphan pool

  CatchUpOutcome out = run_catch_up(seed, depth);
  EXPECT_EQ(out.height, depth) << "seed " << seed;
  EXPECT_EQ(out.rounds, 1u) << "seed " << seed;
  EXPECT_EQ(out.fingerprint, out.replay) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeadersFirstCatchUp,
                         ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace zendoo
