// DoS-scoring unit tests: the per-peer misbehavior ledger in isolation.
// Each test drives one offense class over raw injected wire traffic and
// checks the score arithmetic, the ban decision, the SimNet-level
// refusal of banned traffic, and ban expiry. The emergent behavior —
// honest majorities surviving live attackers — lives in
// tests/integration/adversarial_test.cpp.
#include <gtest/gtest.h>

#include "mainchain/codec.hpp"
#include "net/node.hpp"
#include "net/scenario.hpp"

namespace zendoo::net {
namespace {

using crypto::Domain;

std::vector<std::uint8_t> wire_msg(MsgType type,
                                   const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> wire;
  wire.reserve(body.size() + 1);
  wire.push_back(static_cast<std::uint8_t>(type));
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

/// One victim NetNode (id 0) plus one raw attacker endpoint (id 1) that
/// never reacts — the minimal fixture for scoring arithmetic.
struct DosRig {
  SimNet net;
  NetNode victim;
  NodeId attacker;

  explicit DosRig(std::uint64_t seed)
      : net(seed),
        victim(net, mainchain::ChainParams{},
               crypto::KeyPair::from_seed(crypto::Hasher(Domain::kGeneric)
                                              .write_str("dos-victim")
                                              .write_u64(seed)
                                              .finalize())),
        attacker(net.add_node([](NodeId, const SimNet::PayloadPtr&) {})) {}

  void inject(MsgType type, const std::vector<std::uint8_t>& body) {
    net.send(attacker, victim.id(), wire_msg(type, body));
    net.run_until_idle();
  }
};

TEST(Dos, MalformedPayloadsBanAfterThreshold) {
  DosRig rig(11);
  const int needed =
      (kBanThreshold + kMalformedPenalty - 1) / kMalformedPenalty;  // 5

  for (int i = 0; i < needed - 1; ++i) {
    rig.inject(MsgType::kBlock, {0xde, 0xad});
  }
  EXPECT_FALSE(rig.victim.peer_banned(rig.attacker));
  rig.inject(MsgType::kBlock, {0xde, 0xad});

  EXPECT_TRUE(rig.victim.peer_banned(rig.attacker));
  EXPECT_EQ(rig.victim.banned_peer_count(), 1u);
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).malformed,
            static_cast<std::uint64_t>(needed));
  EXPECT_GE(rig.victim.peer_state(rig.attacker).score, kBanThreshold);
  EXPECT_EQ(rig.victim.stats().peers_banned, 1u);

  // The ban is enforced below the node: further traffic is refused at
  // delivery time and the victim's handler never sees it.
  const std::uint64_t malformed_before = rig.victim.stats().malformed;
  rig.inject(MsgType::kBlock, {0xde, 0xad});
  EXPECT_EQ(rig.victim.stats().malformed, malformed_before);
  EXPECT_GE(rig.net.stats().banned, 1u);
}

TEST(Dos, UnknownMessageTagScoresAsMalformed) {
  DosRig rig(13);
  rig.net.send(rig.attacker, rig.victim.id(), {0x7f, 0x01, 0x02});
  // Tag 2 with a 32-byte hash body — the shape of the retired
  // single-block request — is just another unknown tag.
  std::vector<std::uint8_t> retired_get_block(1 + 32, 0xab);
  retired_get_block[0] = 0x02;
  rig.net.send(rig.attacker, rig.victim.id(), retired_get_block);
  rig.net.run_until_idle();
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).malformed, 2u);
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).score,
            2 * kMalformedPenalty);
}

TEST(Dos, OversizedHeaderBatchBansInstantly) {
  DosRig rig(17);
  rig.inject(MsgType::kHeaders,
             mainchain::codec::encode_headers(
                 std::vector<mainchain::BlockHeader>(kHeadersBatch + 1)));
  EXPECT_TRUE(rig.victim.peer_banned(rig.attacker));
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).oversized, 1u);
  // The refusal happened before any PoW work: no header was examined.
  EXPECT_EQ(rig.victim.stats().headers_received, 0u);
}

TEST(Dos, OversizedGetDataServedNothingAndBans) {
  DosRig rig(19);
  rig.inject(MsgType::kGetData,
             mainchain::codec::encode_inv(
                 std::vector<crypto::Digest>(kMaxGetData + 1)));
  EXPECT_TRUE(rig.victim.peer_banned(rig.attacker));
  EXPECT_EQ(rig.victim.stats().get_data_served, 0u);
  EXPECT_EQ(rig.victim.stats().sent(MsgType::kNotFound), 0u);
}

TEST(Dos, FabricatedNotFoundScoresPerMessage) {
  DosRig rig(23);
  const int needed = (kBanThreshold + kNotFoundAbusePenalty - 1) /
                     kNotFoundAbusePenalty;
  for (int i = 0; i < needed; ++i) {
    // Several fabricated hashes per message: one message = one offense.
    std::vector<crypto::Digest> fake;
    for (int j = 0; j < 3; ++j) {
      fake.push_back(crypto::Hasher(Domain::kGeneric)
                         .write_str("never-requested")
                         .write_u64(static_cast<std::uint64_t>(i * 3 + j))
                         .finalize());
    }
    rig.inject(MsgType::kNotFound, mainchain::codec::encode_inv(fake));
  }
  EXPECT_TRUE(rig.victim.peer_banned(rig.attacker));
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).notfound_abuse,
            static_cast<std::uint64_t>(needed));
}

TEST(Dos, UnsolicitedHeadersRideFreeBudgetThenScore) {
  DosRig rig(29);
  const auto empty = mainchain::codec::encode_headers({});

  for (std::uint32_t i = 0; i < kUnsolicitedHeadersBudget; ++i) {
    rig.inject(MsgType::kHeaders, empty);
  }
  // Late replies to abandoned rounds are honest: no score yet.
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).score, 0);
  EXPECT_FALSE(rig.victim.peer_banned(rig.attacker));

  const int past_budget =
      (kBanThreshold + kUnsolicitedHeadersPenalty - 1) /
      kUnsolicitedHeadersPenalty;
  for (int i = 0; i < past_budget; ++i) {
    rig.inject(MsgType::kHeaders, empty);
  }
  EXPECT_TRUE(rig.victim.peer_banned(rig.attacker));
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).unsolicited_headers,
            kUnsolicitedHeadersBudget +
                static_cast<std::uint64_t>(past_budget));
}

TEST(Dos, BanExpiresAndPeerStartsClean) {
  DosRig rig(31);
  for (int i = 0; i < 5; ++i) rig.inject(MsgType::kBlock, {0xff});
  ASSERT_TRUE(rig.victim.peer_banned(rig.attacker));
  const SimTime banned_at = rig.net.now();

  // The queue is idle, so waiting out the ban only moves the clock.
  rig.net.run_until(banned_at + kBanDuration + 1);
  EXPECT_FALSE(rig.victim.peer_banned(rig.attacker));
  EXPECT_EQ(rig.victim.banned_peer_count(), 0u);
  // The slate is clean: the score reset with the expiry...
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).score, 0);

  // ...and traffic flows again, both at the SimNet and the node.
  const std::uint64_t malformed_before = rig.victim.stats().malformed;
  rig.inject(MsgType::kBlock, {0xff});
  EXPECT_EQ(rig.victim.stats().malformed, malformed_before + 1);
  // Ban decisions are history, not state: the counter remembers one.
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).bans, 1u);
}

TEST(Dos, ScoreHalvesEveryHalfLife) {
  // zen-style decay: the score left over from past offenses halves per
  // elapsed half-life, applied lazily when the peer is next scored.
  DosRig rig(43);
  const int per = kMalformedPenalty;

  rig.inject(MsgType::kBlock, {0xff});
  rig.inject(MsgType::kBlock, {0xff});
  ASSERT_EQ(rig.victim.peer_state(rig.attacker).score, 2 * per);

  // One half-life later, the next offense charges onto a halved score.
  rig.net.run_until(rig.net.now() + kScoreHalfLife);
  rig.inject(MsgType::kBlock, {0xff});
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).score, (2 * per) / 2 + per);

  // Several half-lives of silence wipe the slate almost clean.
  rig.net.run_until(rig.net.now() + 8 * kScoreHalfLife);
  rig.inject(MsgType::kBlock, {0xff});
  EXPECT_EQ(rig.victim.peer_state(rig.attacker).score, per);
  EXPECT_FALSE(rig.victim.peer_banned(rig.attacker));
}

TEST(Dos, SlowFlakyPeerNeverAccumulatesToBan) {
  // The satellite's motivating case: an honest-but-flaky peer trips one
  // malformed penalty per half-life, forever. Without decay the score
  // ratchets to the 100-point threshold on the 5th offense; with decay
  // it plateaus below 2x the penalty and the peer stays connected.
  DosRig rig(47);
  for (int i = 0; i < 20; ++i) {
    rig.inject(MsgType::kBlock, {0xba, 0xad});
    rig.net.run_until(rig.net.now() + kScoreHalfLife);
  }
  EXPECT_FALSE(rig.victim.peer_banned(rig.attacker));
  EXPECT_LT(rig.victim.peer_state(rig.attacker).score,
            2 * kMalformedPenalty);
  // A concentrated burst still bans: the whole burst spans well under
  // one half-life per offense, so at most one halving can interleave —
  // ten penalties overwhelm it regardless of where the boundary falls.
  for (int i = 0; i < 10 && !rig.victim.peer_banned(rig.attacker); ++i) {
    rig.inject(MsgType::kBlock, {0xba, 0xad});
  }
  EXPECT_TRUE(rig.victim.peer_banned(rig.attacker));
}

TEST(Dos, HonestDeepCatchUpNeverScores) {
  // A 100-block post-partition storm floods node 3 with orphans and
  // duplicate traffic — all of it honest. Nobody's ledger may show a
  // penalty, and nobody gets banned.
  NodeCluster c(41, 4);
  c.net.partition({{0, 1, 2}, {3}});
  for (int i = 0; i < 100; ++i) c[0].mine();
  c.net.run_until_idle();
  c.net.heal();
  c[0].announce_tip();
  c.net.run_until_idle();
  // Let every orphan suspect age past the grace period and be judged.
  c.net.run_until(c.net.now() + 2 * kOrphanSuspectGrace);
  c.net.run_until_idle();

  ASSERT_EQ(c[3].height(), 100u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c[i].banned_peer_count(), 0u) << "node " << i;
    EXPECT_EQ(c[i].stats().peers_banned, 0u) << "node " << i;
    for (NodeId peer = 0; peer < 4; ++peer) {
      EXPECT_EQ(c[i].peer_state(peer).score, 0)
          << "node " << i << " scored peer " << peer;
    }
  }
}

}  // namespace
}  // namespace zendoo::net
