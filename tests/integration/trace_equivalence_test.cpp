// Golden-trace equivalence: the event-queue/payload refactor of the
// simulator must not move a single delivery. These digests were
// captured from the pre-refactor binary (binary-heap event queue,
// per-delivery hashing, hash-map link tables) over the same seeded
// scenarios; any reordering, re-hash or dropped/extra event changes
// the fold and fails the suite with the offending seed. The fold covers
// every delivery's (time, seq), so the digests also pin pop order.
#include <gtest/gtest.h>

#include "net/scenario.hpp"

namespace zendoo {
namespace {

using crypto::Digest;
using crypto::Domain;
using crypto::Hasher;
using net::NetNode;
using net::ScenarioRunner;
using net::SimNet;

struct GoldenDigest {
  std::uint64_t seed;
  const char* hex;
};

// Captured from the pre-refactor simulator (PR 8 tree) — see the
// header comment. Regenerate only if the *scenario* changes, never to
// absorb a simulator behaviour change.
constexpr GoldenDigest kConvergenceGolden[] = {
    {1, "d591d119c47cdcc4125065d81af997a8b10d7f550275e7e8b234c11e17491400"},
    {2, "61e2944880495e99ab51f121f40b9d811da010ca2284525c406b1c37d1643527"},
    {3, "f6088fc28d50eee587aa22d480166864f345de66401a82ec8029eaf7801fcecc"},
    {4, "364a57a2d63b16696085783a58592e98bdf617d5a538cb2f5b30f7f5a23d1a63"},
    {5, "e6332677f544329ecff7e7526e684f410ac507f88da8fa98c70bc1f809e2f941"},
    {6, "92037c97818d1b2401492c572c465c450089cc8667a9bd91b5edc16877fb17c8"},
    {7, "0faef141910be0d183c4c5df3bfb15b0fc6722c7d5b90e2c5b82a20aa126a1fd"},
    {8, "4fcb5efcb65312c279671b6effcba7c590ade17937013a5a5bb290d19e2d0646"},
};
constexpr GoldenDigest kAdversarialGolden[] = {
    {31, "f7dc5e894ee7ed40b1f844fbd65577efdb58fdc10bf90a1076667bbb5da2ef66"},
    {32, "66791d279bc860fe1565e41ad9089713554a27a2936538005127d1a916dc39a3"},
};

/// Cluster-wide counter totals for the differential migration test:
/// every value here was captured from the pre-migration binary (raw
/// uint64 Stats fields, PR 9 tree) over the same seeded scenarios. The
/// obs::Counter migration must reproduce them bit-for-bit.
struct CounterSums {
  std::uint64_t sim_sent = 0, sim_delivered = 0, sim_dropped = 0,
                sim_partitioned = 0, sim_banned = 0, sim_timers_set = 0,
                sim_timers_fired = 0, sim_events = 0, sim_bytes = 0;
  std::uint64_t recv = 0, relayed = 0, orph = 0, dup = 0, rej = 0,
                hdr_conn = 0, dl = 0, rereq = 0, reorgs = 0, dos = 0,
                msgs_sent = 0, msgs_received = 0, enc_miss = 0,
                wire_dedup = 0;
  std::uint64_t l01_queued = 0, l01_delivered = 0;
  std::uint64_t l10_queued = 0, l10_delivered = 0;
};

/// Sums the migrated counters through the same accessors the capture
/// harness used, and cross-checks that the registry view agrees with
/// the struct view (one value, two names).
CounterSums collect_sums(SimNet& net, const std::vector<NetNode*>& nodes) {
  CounterSums out;
  const auto& s = net.stats();
  out.sim_sent = s.sent;
  out.sim_delivered = s.delivered;
  out.sim_dropped = s.dropped;
  out.sim_partitioned = s.partitioned;
  out.sim_banned = s.banned;
  out.sim_timers_set = s.timers_set;
  out.sim_timers_fired = s.timers_fired;
  out.sim_events = s.events_processed;
  out.sim_bytes = s.bytes_queued;
  EXPECT_EQ(net.registry().value("sim.sent"), s.sent.value());
  EXPECT_EQ(net.registry().value("sim.delivered"), s.delivered.value());
  EXPECT_EQ(net.registry().value("sim.events_processed"),
            s.events_processed.value());
  for (const NetNode* n : nodes) {
    const auto& st = n->stats();
    out.recv += st.blocks_received;
    out.relayed += st.blocks_relayed;
    out.orph += st.orphans_buffered;
    out.dup += st.duplicates;
    out.rej += st.rejected;
    out.hdr_conn += st.headers_connected;
    out.dl += st.blocks_downloaded;
    out.rereq += st.stalled_rerequests;
    out.reorgs += st.reorgs;
    out.dos += st.dos_events;
    out.enc_miss += st.encode_cache_misses;
    out.wire_dedup += st.wire_dedup_hits;
    std::uint64_t node_sent = 0;
    for (std::size_t i = 0; i < net::kMsgTypeCount; ++i) {
      out.msgs_sent += st.msgs_sent[i];
      out.msgs_received += st.msgs_received[i];
      node_sent += st.msgs_sent[i];
    }
    EXPECT_EQ(n->registry().value("net.blocks_received"),
              st.blocks_received.value());
    EXPECT_EQ(n->registry().value("net.dos_events"), st.dos_events.value());
    EXPECT_EQ(n->registry().value("net.msgs_sent{type=block}"),
              st.sent(net::MsgType::kBlock));
    EXPECT_EQ(n->registry().value("net.msgs_sent"), node_sent);
  }
  const auto& l01 = net.link_stats(0, 1);
  const auto& l10 = net.link_stats(1, 0);
  out.l01_queued = l01.queued;
  out.l01_delivered = l01.delivered;
  out.l10_queued = l10.queued;
  out.l10_delivered = l10.delivered;
  return out;
}

// Mirror of network_convergence_test's run_once, minus its assertions —
// the digest pins the full delivery schedule those assertions ran over.
Digest convergence_trace(std::uint64_t seed, CounterSums* sums_out = nullptr) {
  crypto::Rng rng(seed);
  const std::size_t n_nodes = 4 + rng.next_below(3);
  SimNet simnet(seed);
  std::vector<std::unique_ptr<NetNode>> nodes;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    auto key = crypto::KeyPair::from_seed(Hasher(Domain::kGeneric)
                                              .write_str("conv-miner")
                                              .write_u64(i)
                                              .finalize());
    nodes.push_back(std::make_unique<NetNode>(
        simnet, mainchain::ChainParams{}, key));
  }
  std::vector<NetNode*> ptrs;
  for (auto& n : nodes) ptrs.push_back(n.get());
  ScenarioRunner runner(simnet, ptrs);
  const std::size_t cycles = 1 + rng.next_below(3);
  const std::size_t mines_per_side = 1 + rng.next_below(3);
  runner.run(net::make_random_race(rng, n_nodes, cycles, mines_per_side));
  EXPECT_TRUE(runner.converge(0)) << "seed " << seed;
  if (sums_out != nullptr) *sums_out = collect_sums(simnet, ptrs);
  return simnet.trace_digest();
}

// Deterministic adversarial catch-up: 3 honest + 1 straggler, with an
// orphan spammer flooding the straggler mid-sync (exercises the DoS
// scoring, ban timers and orphan bookkeeping paths).
Digest adversarial_trace(std::uint64_t seed, CounterSums* sums_out = nullptr) {
  net::NodeCluster c(seed, 4);
  net::OrphanSpammer spammer(c.net, mainchain::ChainParams{});
  c.net.partition({{0, 1, 2}, {3}});
  for (int i = 0; i < 40; ++i) c[0].mine();
  c.net.run_until_idle();
  c.net.heal();
  spammer.spam(3, 2 * mainchain::ChainParams{}.max_orphan_blocks);
  for (int round = 0; round < 64 && c[3].tip() != c[0].tip(); ++round) {
    c[0].announce_tip();
    c.net.run_until_idle();
  }
  EXPECT_EQ(c[3].tip(), c[0].tip()) << "seed " << seed;
  c.net.run_until(c.net.now() + 2 * net::kOrphanSuspectGrace);
  c.net.run_until_idle();
  if (sums_out != nullptr) {
    auto ptrs = c.ptrs();
    *sums_out = collect_sums(c.net, ptrs);
  }
  return c.net.trace_digest();
}

class ConvergenceGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConvergenceGolden, TraceDigestMatchesPreRefactorCapture) {
  const GoldenDigest& golden = kConvergenceGolden[GetParam()];
  EXPECT_EQ(convergence_trace(golden.seed).to_hex(), golden.hex)
      << "seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceGolden,
                         ::testing::Range<std::size_t>(
                             0, std::size(kConvergenceGolden)));

class AdversarialGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdversarialGolden, TraceDigestMatchesPreRefactorCapture) {
  const GoldenDigest& golden = kAdversarialGolden[GetParam()];
  EXPECT_EQ(adversarial_trace(golden.seed).to_hex(), golden.hex)
      << "seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialGolden,
                         ::testing::Range<std::size_t>(
                             0, std::size(kAdversarialGolden)));

// Differential migration pin: the SimNet/NetNode/LinkStats counters,
// now obs::Counter fields enumerable through the registries, must
// reproduce the exact values the raw-uint64 fields produced over the
// same seeded scenarios. Captured pre-migration; regenerate only if the
// *scenario* changes, never to absorb a counting change.
TEST(CounterMigration, ConvergenceSeed1MatchesPreMigrationCapture) {
  CounterSums s;
  convergence_trace(1, &s);
  EXPECT_EQ(s.sim_sent, 227u);
  EXPECT_EQ(s.sim_delivered, 162u);
  EXPECT_EQ(s.sim_dropped, 0u);
  EXPECT_EQ(s.sim_partitioned, 65u);
  EXPECT_EQ(s.sim_banned, 0u);
  EXPECT_EQ(s.sim_timers_set, 51u);
  EXPECT_EQ(s.sim_timers_fired, 51u);
  EXPECT_EQ(s.sim_events, 278u);
  EXPECT_EQ(s.sim_bytes, 12033u);
  EXPECT_EQ(s.recv, 21u);
  EXPECT_EQ(s.relayed, 16u);
  EXPECT_EQ(s.orph, 23u);
  EXPECT_EQ(s.dup, 78u);
  EXPECT_EQ(s.rej, 0u);
  EXPECT_EQ(s.hdr_conn, 32u);
  EXPECT_EQ(s.dl, 6u);
  EXPECT_EQ(s.rereq, 3u);
  EXPECT_EQ(s.reorgs, 7u);
  EXPECT_EQ(s.dos, 0u);
  EXPECT_EQ(s.msgs_sent, 227u);
  EXPECT_EQ(s.msgs_received, 162u);
  EXPECT_EQ(s.enc_miss, 16u);
  EXPECT_EQ(s.wire_dedup, 75u);
  EXPECT_EQ(s.l01_queued, 9u);
  EXPECT_EQ(s.l01_delivered, 9u);
  EXPECT_EQ(s.l10_queued, 7u);
  EXPECT_EQ(s.l10_delivered, 7u);
}

TEST(CounterMigration, AdversarialSeed31MatchesPreMigrationCapture) {
  CounterSums s;
  adversarial_trace(31, &s);
  EXPECT_EQ(s.sim_sent, 755u);
  EXPECT_EQ(s.sim_delivered, 625u);
  EXPECT_EQ(s.sim_dropped, 0u);
  EXPECT_EQ(s.sim_partitioned, 130u);
  EXPECT_EQ(s.sim_banned, 0u);
  EXPECT_EQ(s.sim_timers_set, 25u);
  EXPECT_EQ(s.sim_timers_fired, 25u);
  EXPECT_EQ(s.sim_events, 780u);
  EXPECT_EQ(s.sim_bytes, 61419u);
  EXPECT_EQ(s.recv, 37u);
  EXPECT_EQ(s.relayed, 25u);
  EXPECT_EQ(s.orph, 379u);
  EXPECT_EQ(s.dup, 27u);
  EXPECT_EQ(s.rej, 0u);
  EXPECT_EQ(s.hdr_conn, 40u);
  EXPECT_EQ(s.dl, 207u);
  EXPECT_EQ(s.rereq, 17u);
  EXPECT_EQ(s.reorgs, 0u);
  EXPECT_EQ(s.dos, 58u);
  // Honest traffic only — the spammer's 128 injected blocks appear in
  // sim_sent (755) but not in any NetNode's msgs_sent (627).
  EXPECT_EQ(s.msgs_sent, 627u);
  EXPECT_EQ(s.msgs_received, 616u);
  EXPECT_EQ(s.enc_miss, 87u);
  EXPECT_EQ(s.wire_dedup, 27u);
  EXPECT_EQ(s.l01_queued, 42u);
  EXPECT_EQ(s.l01_delivered, 42u);
  EXPECT_EQ(s.l10_queued, 1u);
  EXPECT_EQ(s.l10_delivered, 1u);
}

}  // namespace
}  // namespace zendoo
