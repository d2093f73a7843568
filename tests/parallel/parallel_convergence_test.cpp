// The parallel validation pipeline under real network races: the seeded
// partition/heal scenarios of the net convergence sweep, run once with
// the batch on the caller and the cache off (the sequential reference)
// and once on a 2-worker pool with the cache on, must produce the
// identical event trace, tip and state fingerprint — parallelism must be
// invisible to consensus.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/scenario.hpp"

namespace zendoo {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::KeyPair;
using crypto::Rng;
using net::NetNode;
using net::ScenarioRunner;
using net::SimNet;

KeyPair miner_key(std::uint64_t i) {
  return KeyPair::from_seed(crypto::Hasher(Domain::kGeneric)
                                .write_str("pv-conv-miner")
                                .write_u64(i)
                                .finalize());
}

struct Outcome {
  Digest trace_digest;
  Digest tip;
  Digest fingerprint;
  std::uint64_t height = 0;
};

Outcome run_scenario(std::uint64_t seed,
                     const parallel::ValidationConfig& config) {
  mainchain::ChainParams params;
  params.validation = config;

  Rng rng(seed);
  const std::size_t n_nodes = 4 + rng.next_below(3);
  SimNet simnet(seed);
  std::vector<std::unique_ptr<NetNode>> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    nodes.push_back(std::make_unique<NetNode>(simnet, params, miner_key(i)));
  }
  std::vector<NetNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(n.get());
  ScenarioRunner runner(simnet, ptrs);

  const std::size_t cycles = 1 + rng.next_below(3);
  const std::size_t mines_per_side = 1 + rng.next_below(3);
  runner.run(net::make_random_race(rng, n_nodes, cycles, mines_per_side));
  EXPECT_TRUE(runner.converge(0)) << "seed " << seed;

  for (std::size_t i = 1; i < n_nodes; ++i) {
    EXPECT_EQ(ptrs[i]->tip(), ptrs[0]->tip()) << "seed " << seed << " node "
                                              << i;
  }
  return {simnet.trace_digest(), ptrs[0]->tip(),
          ptrs[0]->chain().state().state_fingerprint(), ptrs[0]->height()};
}

class ParallelConvergenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelConvergenceSweep, ParallelPipelineInvisibleToConsensus) {
  const std::uint64_t seed = GetParam();
  Outcome sequential = run_scenario(seed, {0, 0});
  Outcome parallel = run_scenario(seed, {2, std::size_t{1} << 16});

  EXPECT_EQ(sequential.trace_digest, parallel.trace_digest) << "seed " << seed;
  EXPECT_EQ(sequential.tip, parallel.tip) << "seed " << seed;
  EXPECT_EQ(sequential.fingerprint, parallel.fingerprint) << "seed " << seed;
  EXPECT_EQ(sequential.height, parallel.height) << "seed " << seed;
  EXPECT_GE(sequential.height, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelConvergenceSweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace zendoo
