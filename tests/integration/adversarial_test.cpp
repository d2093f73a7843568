// Adversarial integration sweeps: live hostile peers against honest
// clusters, driven through the same deterministic SimNet harness as the
// convergence tests. The §5.1 honest-majority argument only holds if a
// hostile minority cannot wedge sync or exhaust resources — so each
// scenario keeps the attacker share at or below 1/4 of the endpoints
// and asserts three things: the honest nodes converge on one tip, the
// attacker is banned within a bounded number of misbehavior events, and
// the resource ceilings (orphan pool, in-flight window, event count)
// hold throughout. run_until_idle()'s event cap doubles as the global
// liveness bound: an attacker that could spin the network forever would
// throw before any assertion fires.
#include <gtest/gtest.h>

#include "net/scenario.hpp"

namespace zendoo::net {
namespace {

/// Announce/drain rounds until every honest node in `honest` reaches
/// `target`'s tip; returns rounds used or max_rounds + 1 on failure.
std::size_t announce_until_synced(NodeCluster& c, std::size_t target,
                                  std::size_t honest,
                                  std::size_t max_rounds = 8) {
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    c[target].announce_tip();
    c.net.run_until_idle();
    bool all = true;
    for (std::size_t i = 0; i < honest; ++i) {
      if (c[i].tip() != c[target].tip()) all = false;
    }
    if (all) return round;
  }
  return max_rounds + 1;
}

/// Runs long enough for every filed orphan suspect to age past the
/// grace period and be judged by the sweep.
void age_orphan_suspects(NodeCluster& c) {
  c.net.run_until(c.net.now() + 2 * kOrphanSuspectGrace);
  c.net.run_until_idle();
}

class AdversarialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversarialSweep, OrphanSpamFloodIsBannedAndHonestNodesConverge) {
  const std::uint64_t seed = GetParam();
  NodeCluster c(seed, 3);  // + 1 attacker = 1/4 hostile
  OrphanSpammer spammer(c.net, mainchain::ChainParams{});

  // Honest traffic underway before the attack.
  for (int i = 0; i < 5; ++i) c[0].mine();
  c.net.run_until_idle();

  // Every honest node gets a junk flood bigger than the orphan pool.
  // Junk still resident at judgment keeps the benefit of the doubt (the
  // pool itself bounds it), so it is the sustained part of the flood —
  // the ~56 evicted blocks — that gets charged: well past the free
  // budget (8) and, at 5 points each, past the ban threshold (100).
  for (NodeId v = 0; v < 3; ++v) spammer.spam(v, 120);
  c.net.run_until_idle();
  age_orphan_suspects(c);

  // Honest mining continues right through the aftermath.
  for (int i = 0; i < 3; ++i) {
    c[1].mine();
    c.net.run_until_idle();
  }

  const auto cap = mainchain::ChainParams{}.max_orphan_blocks;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c[i].height(), 8u) << "node " << i << " seed " << seed;
    EXPECT_EQ(c[i].tip(), c[0].tip()) << "node " << i << " seed " << seed;
    // The flood was judged retrospectively and the spammer banned.
    EXPECT_TRUE(c[i].peer_banned(spammer.id()))
        << "node " << i << " seed " << seed;
    EXPECT_GT(c[i].peer_state(spammer.id()).junk_orphans, kOrphanBudget);
    // Resource ceilings held under the flood.
    EXPECT_LE(c[i].chain().orphan_count(), cap);
    EXPECT_EQ(c[i].blocks_in_flight(), 0u);
    // Honest peers never scored each other.
    for (NodeId peer = 0; peer < 3; ++peer) {
      EXPECT_EQ(c[i].peer_state(peer).score, 0)
          << "node " << i << " scored honest peer " << peer;
    }
  }
  // The bans are enforced in the network: later spam is refused.
  spammer.spam(0, 4);
  const std::uint64_t banned_before = c.net.stats().banned;
  c.net.run_until_idle();
  EXPECT_GE(c.net.stats().banned, banned_before + 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialSweep,
                         ::testing::Values(1001u, 1002u, 1003u));

TEST(Adversarial, GarbageHeaderFloodBansWithinFiveMessages) {
  NodeCluster c(83, 3);
  GarbageHeaderPeer garbage(c.net, mainchain::ChainParams{});
  garbage.flood_garbage(0, 5);  // 5 * malformed_penalty == threshold
  c.net.run_until_idle();
  EXPECT_TRUE(c[0].peer_banned(garbage.id()));
  EXPECT_EQ(c[0].peer_state(garbage.id()).malformed, 5u);
  // Only the flooded node banned it; the others never heard from it.
  EXPECT_EQ(c[1].banned_peer_count(), 0u);
  EXPECT_EQ(c[2].banned_peer_count(), 0u);
}

TEST(Adversarial, PowInvalidHeaderBatchBansDuringTheBatch) {
  NodeCluster c(87, 3);
  GarbageHeaderPeer garbage(c.net, mainchain::ChainParams{});
  garbage.send_bogus_batch(0, 20);
  c.net.run_until_idle();
  EXPECT_TRUE(c[0].peer_banned(garbage.id()));
  EXPECT_GE(c[0].stats().rejected, 1u);
  EXPECT_GE(c[0].peer_state(garbage.id()).rejected, 1u);
  // The headers never entered the tree.
  EXPECT_EQ(c[0].stats().headers_connected, 0u);
}

TEST(Adversarial, PoisonedBodyServerBannedMidSyncAndSyncCompletes) {
  // The spy overhears the honest gossip during the mining phase, then
  // answers node 2's catch-up kGetData with merkle-broken bodies. The
  // hash the victim matched is authentic, so only validation can catch
  // it — an offense worth an instant ban — and the freed slots must
  // move to honest peers without wedging the download.
  NodeCluster c(89, 3);
  InvalidBodyPeer spy(c.net);
  c.net.partition({{0, 1, spy.id()}, {2}});
  for (int i = 0; i < 40; ++i) c[0].mine();
  c.net.run_until_idle();
  ASSERT_EQ(c[2].height(), 0u);

  c.net.heal();
  std::size_t rounds = announce_until_synced(c, 0, 3);
  EXPECT_LE(rounds, 8u);
  EXPECT_EQ(c[2].height(), 40u);
  EXPECT_EQ(c[2].tip(), c[0].tip());
  EXPECT_GE(spy.bodies_served(), 1u);
  EXPECT_GE(c[2].stats().rejected, 1u);
  EXPECT_TRUE(c[2].peer_banned(spy.id()));
  EXPECT_EQ(c[2].peer_state(spy.id()).bans, 1u);
  // Honest serving peers kept clean ledgers.
  EXPECT_EQ(c[2].peer_state(0).score, 0);
  EXPECT_EQ(c[2].peer_state(1).score, 0);
}

TEST(Adversarial, NotFoundFabricatorBanned) {
  NodeCluster c(103, 2);
  NotFoundAbuser abuser(c.net);
  abuser.flood(0, 5);  // 5 * notfound_abuse_penalty == threshold
  c.net.run_until_idle();
  EXPECT_TRUE(c[0].peer_banned(abuser.id()));
  EXPECT_EQ(c[0].peer_state(abuser.id()).notfound_abuse, 5u);
}

TEST(Adversarial, SelfishMinerResolvedByNakamotoRuleWithoutBans) {
  // Withholding a longer private branch is protocol-legal: the revealed
  // branch wins by the longest-chain rule and none of it may score —
  // the DoS layer must not mistake economic attacks for wire abuse.
  NodeCluster c(97, 4);
  ScenarioRunner runner(c.net, c.ptrs());
  runner.run({
      {5, ScenarioEvent::MineWithheld{0, 3}},  // private 3-block branch
      {10, ScenarioEvent::Mine{1, 1}},         // honest public chain...
      {20, ScenarioEvent::Mine{2, 1}},         // ...reaches height 2
      {40, ScenarioEvent::Announce{0}},        // the reveal
  });
  c.net.run_until_idle();
  age_orphan_suspects(c);

  std::uint64_t reorgs = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c[i].height(), 3u) << "node " << i;
    EXPECT_EQ(c[i].tip(), c[0].tip()) << "node " << i;
    EXPECT_EQ(c[i].banned_peer_count(), 0u) << "node " << i;
    reorgs += c[i].stats().reorgs;
  }
  // The honest public chain was abandoned for the longer reveal.
  EXPECT_GE(reorgs, 1u);
}

TEST(Adversarial, EclipsedVictimBansAttackerAndRecoversAfterRelease) {
  // Node 2 is cut off with only the attacker reachable. The attacker
  // baits a sync round and serves garbage; the victim must ban it on
  // wire evidence alone — no honest peer to compare against — and then
  // catch up normally once the eclipse lifts.
  NodeCluster c(101, 3);
  EclipseAttacker attacker(c.net, mainchain::ChainParams{});
  attacker.eclipse(2);
  for (int i = 0; i < 10; ++i) c[0].mine();
  c.net.run_until_idle();
  ASSERT_EQ(c[2].height(), 0u);  // honest gossip never reached it

  attacker.bait(2);  // orphan bait pulls a header round toward the attacker
  c.net.run_until_idle();
  EXPECT_GE(c[2].peer_state(attacker.id()).malformed, 1u);
  attacker.flood_garbage(2, 4);  // 1 + 4 malformed crosses the threshold
  c.net.run_until_idle();
  EXPECT_TRUE(c[2].peer_banned(attacker.id()));

  attacker.release();
  std::size_t rounds = announce_until_synced(c, 0, 3);
  EXPECT_LE(rounds, 8u);
  EXPECT_EQ(c[2].height(), 10u);
  EXPECT_EQ(c[2].tip(), c[0].tip());
  // The honest nodes never saw the attack and banned nobody.
  EXPECT_EQ(c[0].banned_peer_count(), 0u);
  EXPECT_EQ(c[1].banned_peer_count(), 0u);
}

}  // namespace
}  // namespace zendoo::net
