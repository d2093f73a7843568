// Two-miner partition race over the deterministic network simulator —
// §5.1 "Mainchain forks resolution" as an actual network event instead
// of hand-fed rival branches.
//
// Four nodes gossip blocks over SimNet. A partition splits them 2|2 and
// both sides keep mining — two incompatible chains grow. When the
// partition heals, nodes re-announce their tips, the shorter side
// orphans the foreign tip, fetches the branch headers-first (headers,
// then the missing bodies), and reorgs onto the longer branch. A
// forward transfer mined only on the losing side vanishes from the
// sidechain, exactly as the paper demands.
//
// Build & run:  ./build/examples/network_race
#include <cstdio>

#include "net/scenario.hpp"

using namespace zendoo;

int main() {
  using crypto::Domain;
  using crypto::hash_str;
  using crypto::KeyPair;

  net::SimNet simnet(/*seed=*/2020);
  auto alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  auto sc_id = hash_str(Domain::kGeneric, "race-demo");

  std::vector<std::unique_ptr<net::NetNode>> nodes;
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto key = KeyPair::from_seed(
        crypto::Hasher(Domain::kGeneric).write_str("miner").write_u64(i).finalize());
    nodes.push_back(std::make_unique<net::NetNode>(
        simnet, mainchain::ChainParams{}, key));
    nodes.back()->engine().add_latus_sidechain(sc_id, 2, 6, 3, {alice});
  }
  std::vector<net::NetNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(n.get());
  net::ScenarioRunner runner(simnet, ptrs);

  // Shared prefix: node 0 mines the registration block; everyone syncs.
  ptrs[0]->mine();
  simnet.run_until_idle();
  std::printf("prefix: all nodes at height %llu\n",
              (unsigned long long)ptrs[0]->height());

  // Partition 2|2. The {0,1} side mines a forward transfer; the {2,3}
  // side just mines more blocks, faster.
  simnet.partition({{0, 1}, {2, 3}});
  ptrs[0]->engine().queue_forward_transfer(sc_id, alice.address(),
                                           alice.address(), 777'000);
  ptrs[0]->mine();
  ptrs[2]->mine();
  ptrs[3]->mine();
  ptrs[2]->mine();
  simnet.run_until_idle();
  std::printf("partition: side A at height %llu (FT on chain, alice@SC=%llu), "
              "side B at height %llu\n",
              (unsigned long long)ptrs[0]->height(),
              (unsigned long long)ptrs[0]
                  ->engine()
                  .sidechain(sc_id)
                  .state()
                  .balance_of(alice.address()),
              (unsigned long long)ptrs[2]->height());

  // Heal: tips are re-announced, side A orphans side B's tip, syncs the
  // branch's headers and bodies, and reorgs — the FT dies with branch A.
  simnet.heal();
  for (auto* n : ptrs) n->announce_tip();
  simnet.run_until_idle();
  bool converged = runner.all_tips_equal();
  std::printf("heal: tips converged=%s, height %llu, node0 reorgs=%llu\n",
              converged ? "yes" : "no",
              (unsigned long long)ptrs[0]->height(),
              (unsigned long long)ptrs[0]->stats().reorgs);
  std::printf("after reorg: alice@SC on node0 = %llu (FT was on the dead "
              "branch)\n",
              (unsigned long long)ptrs[0]
                  ->engine()
                  .sidechain(sc_id)
                  .state()
                  .balance_of(alice.address()));

  // Re-send the transfer on the winning chain; life goes on.
  ptrs[0]->engine().queue_forward_transfer(sc_id, alice.address(),
                                           alice.address(), 777'000);
  ptrs[0]->mine();
  simnet.run_until_idle();

  bool ok = converged;
  for (auto* n : ptrs) {
    ok = ok && n->tip() == ptrs[0]->tip() &&
         n->engine().sidechain(sc_id).state().balance_of(alice.address()) ==
             777'000;
  }
  std::printf("re-sent on the winning chain: alice@SC = 777000 on every "
              "node: %s\n",
              ok ? "yes" : "no");
  std::printf("\nnetwork_race %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
