// NetNode gossip tests: propagation, out-of-order delivery through the
// orphan pool, the headers-first download pipeline (backfill, deep
// catch-up, stalling peers, competing forks), miner races, and the
// scenario layer — §5.1 fork resolution driven by actual message
// schedules instead of hand-fed rival branches.
#include "net/node.hpp"

#include <gtest/gtest.h>

#include "net/scenario.hpp"

namespace zendoo::net {
namespace {

using crypto::Digest;
using crypto::Domain;

/// From-genesis replay oracle: rebuilds the node's advertised active
/// chain into a fresh state machine and returns its fingerprint.
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

/// Repeated announce/drain rounds until every node reaches `target`'s
/// tip — what a peer re-advertising its tip does for nodes still behind
/// (a stalled sync gives up after kMaxRequestAttempts and waits for the
/// next announcement). Returns the number of rounds used, or
/// `max_rounds + 1` on failure.
std::size_t announce_until_synced(NodeCluster& c, std::size_t target,
                                  std::size_t max_rounds = 64) {
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    c[target].announce_tip();
    c.net.run_until_idle();
    bool all = true;
    for (auto& node : c.nodes) {
      if (node->tip() != c[target].tip()) all = false;
    }
    if (all) return round;
  }
  return max_rounds + 1;
}

TEST(NetNode, MinedBlockPropagatesToAllPeers) {
  NodeCluster c(1, 4);
  c[0].mine();
  c.net.run_until_idle();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(c[i].height(), 1u) << "node " << i;
    EXPECT_EQ(c[i].tip(), c[0].tip()) << "node " << i;
  }
  // Peers saw it once and relayed; further copies were duplicates.
  EXPECT_GE(c[1].stats().blocks_received, 1u);
  // Per-type accounting: the miner sent one kBlock per peer, the peers
  // received kBlock traffic (original plus relays) and nothing else.
  EXPECT_EQ(c[0].stats().sent(MsgType::kBlock), 3u);
  EXPECT_GE(c[1].stats().received(MsgType::kBlock), 1u);
  EXPECT_EQ(c[1].stats().received(MsgType::kGetHeaders), 0u);
}

TEST(NetNode, OutOfOrderBlockBackfilledViaHeaderSync) {
  NodeCluster c(2, 2);
  // Node 1 misses the first block entirely (partitioned), then receives
  // the second — whose parent it lacks — after the heal.
  c.net.partition({{0}, {1}});
  c[0].mine();
  c.net.run_until_idle();
  EXPECT_EQ(c[1].height(), 0u);

  c.net.heal();
  c[0].mine();
  c.net.run_until_idle();

  // The orphaned tip triggered a header sync that mapped the missing
  // parent, then a kGetData that fetched its body.
  EXPECT_EQ(c[1].height(), 2u);
  EXPECT_EQ(c[1].tip(), c[0].tip());
  EXPECT_GE(c[1].stats().orphans_buffered, 1u);
  EXPECT_GE(c[0].stats().get_headers_served, 1u);
  EXPECT_GE(c[0].stats().get_data_served, 1u);
}

TEST(NetNode, LongerBranchWinsTheRace) {
  NodeCluster c(3, 2);
  c.net.partition({{0}, {1}});
  c[0].mine();
  c[1].mine();
  c[1].mine();  // node 1's branch is strictly longer
  c.net.run_until_idle();
  EXPECT_NE(c[0].tip(), c[1].tip());

  c.net.heal();
  c[0].announce_tip();
  c[1].announce_tip();
  c.net.run_until_idle();

  EXPECT_EQ(c[0].height(), 2u);
  EXPECT_EQ(c[0].tip(), c[1].tip());
  EXPECT_GE(c[0].stats().reorgs, 1u);  // node 0 abandoned its branch
  EXPECT_EQ(c[0].chain().state().state_fingerprint(),
            c[1].chain().state().state_fingerprint());
}

TEST(NetNode, EqualLengthTieHoldsUntilTieBreakBlock) {
  NodeCluster c(4, 2);
  c.net.partition({{0}, {1}});
  c[0].mine();
  c[1].mine();
  c.net.run_until_idle();

  c.net.heal();
  c[0].announce_tip();
  c[1].announce_tip();
  c.net.run_until_idle();
  // Nakamoto first-seen rule: equal-length branches do not reorg.
  EXPECT_NE(c[0].tip(), c[1].tip());

  c[0].mine();  // breaks the tie
  c.net.run_until_idle();
  EXPECT_EQ(c[0].tip(), c[1].tip());
  EXPECT_EQ(c[0].height(), 2u);
}

TEST(NetNode, LostBackfillRequestRecoversOnRedelivery) {
  NodeCluster c(9, 2);
  // Node 1 misses two blocks, then receives the tip after a heal...
  c.net.partition({{0}, {1}});
  c[0].mine();
  c[0].mine();
  c.net.run_until_idle();
  c.net.heal();
  c[0].announce_tip();
  ASSERT_TRUE(c.net.step());  // deliver the announce: node 1 orphans the
                              // tip and sends a kGetHeaders locator
  ASSERT_TRUE(c[1].chain().orphan_count() > 0);
  // ...but the cut comes back before the kGetHeaders lands: it dies in
  // flight, every stall retry dies the same way until the attempts run
  // out, and node 1 is stuck with a buffered orphan.
  c.net.partition({{0}, {1}});
  c.net.run_until_idle();
  EXPECT_EQ(c[1].height(), 0u);

  // A later redelivery of the same tip is a duplicate of the orphan the
  // wire dedup already knows — which must re-arm the header sync through
  // that fast path, not stall forever.
  c.net.heal();
  c[0].announce_tip();
  c.net.run_until_idle();
  EXPECT_EQ(c[1].height(), 2u);
  EXPECT_EQ(c[1].tip(), c[0].tip());
}

TEST(NetNode, MalformedPayloadCountedNotFatal) {
  NodeCluster c(5, 2);
  c.net.send(0, 1, {static_cast<std::uint8_t>(MsgType::kBlock), 0xde, 0xad});
  c.net.send(0, 1, std::vector<std::uint8_t>{});
  c.net.send(0, 1, {0x77});  // unknown message type
  c.net.send(0, 1, {static_cast<std::uint8_t>(MsgType::kGetHeaders), 0xff});
  c.net.run_until_idle();
  EXPECT_EQ(c[1].stats().malformed, 4u);
  EXPECT_EQ(c[1].stats().rejected, 0u);
  EXPECT_EQ(c[1].height(), 0u);
}

// ---------------------------------------------------------------------
// Headers-first sync
// ---------------------------------------------------------------------

TEST(HeadersFirst, DeepBehindNodeSyncsInOneAnnounceRound) {
  // Node 4 misses 300 blocks — beyond both the orphan pool (64) and the
  // orphan height window (256) — then catches up through the pipeline.
  NodeCluster c(21, 5);
  c.net.partition({{0, 1, 2, 3}, {4}});
  for (int i = 0; i < 300; ++i) c[0].mine();
  c.net.run_until_idle();
  ASSERT_EQ(c[3].height(), 300u);
  ASSERT_EQ(c[4].height(), 0u);

  c.net.heal();
  std::size_t rounds = announce_until_synced(c, 0);
  EXPECT_EQ(c[4].height(), 300u);
  EXPECT_EQ(c[4].tip(), c[0].tip());
  // One announcement was enough: the headers chain told node 4 the whole
  // branch shape, and the scheduler pulled every body.
  EXPECT_EQ(rounds, 1u);

  const auto& stats = c[4].stats();
  EXPECT_GE(stats.headers_connected, 300u);
  EXPECT_GE(stats.blocks_downloaded, 299u);
  // The download load was spread across several peers, not one.
  std::size_t serving_peers = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (c[i].stats().get_data_served > 0) ++serving_peers;
  }
  EXPECT_GE(serving_peers, 2u);
  EXPECT_EQ(c[4].blocks_in_flight(), 0u);
  EXPECT_EQ(c[4].chain().state().state_fingerprint(),
            replay_fingerprint(c[4].chain()));
}

TEST(HeadersFirst, StalledDownloadReRequestsFromAnotherPeer) {
  NodeCluster c(23, 3);
  c.net.partition({{0, 1}, {2}});
  for (int i = 0; i < 60; ++i) c[0].mine();
  c.net.run_until_idle();
  ASSERT_EQ(c[1].height(), 60u);

  // Node 2 can only really talk to node 1: every message on the 0<->2
  // link is dropped, so all requests routed to node 0 stall out.
  c.net.heal();
  LinkParams dead;
  dead.drop_num = 1;
  dead.drop_den = 1;
  c.net.set_link(0, 2, dead);

  std::size_t rounds = announce_until_synced(c, 1, 8);
  EXPECT_EQ(c[2].height(), 60u);
  EXPECT_EQ(c[2].tip(), c[1].tip());
  EXPECT_LE(rounds, 8u);
  // The stall timer fired and moved the dead peer's requests elsewhere.
  EXPECT_GE(c[2].stats().stalled_rerequests, 1u);
  EXPECT_GE(c[1].stats().get_data_served, 59u);
  EXPECT_EQ(c[0].stats().get_data_served, 0u);
}

TEST(HeadersFirst, NotFoundBouncesRequestsWithoutWaitingForStallTimer) {
  // Node 0 is reachable but has nothing (it never saw the chain), so
  // half of node 2's round-robin requests land on a peer that answers
  // kNotFound. The bounce must redirect them to node 1 immediately —
  // completing the sync in far less than one stall timeout.
  NodeCluster c(41, 3);
  c.net.partition({{1}, {0, 2}});
  for (int i = 0; i < 24; ++i) c[1].mine();
  c.net.run_until_idle();
  ASSERT_EQ(c[0].height(), 0u);
  ASSERT_EQ(c[2].height(), 0u);

  c.net.heal();
  const SimTime t0 = c.net.now();
  c[1].announce_tip();
  // Everything must be done before the first stall deadline would hit —
  // the bounce, not the timer, moved the requests.
  c.net.run_until(t0 + kStallTimeout - 1);
  EXPECT_EQ(c[2].height(), 24u);
  EXPECT_EQ(c[2].tip(), c[1].tip());
  EXPECT_GE(c[2].stats().received(MsgType::kNotFound), 1u);
  EXPECT_GE(c[2].stats().stalled_rerequests, 1u);
  c.net.run_until_idle();  // drain the armed timer; nothing re-fires
  EXPECT_EQ(c[2].blocks_in_flight(), 0u);
}

TEST(HeadersFirst, CompetingForksFromDifferentPeersResolveToLongest) {
  NodeCluster c(29, 3);
  // Peer 0 mines branch A (3 blocks), peer 1 branch B (5 blocks), while
  // node 2 sees neither.
  c.net.partition({{0}, {1}, {2}});
  for (int i = 0; i < 3; ++i) c[0].mine();
  for (int i = 0; i < 5; ++i) c[1].mine();
  c.net.run_until_idle();
  ASSERT_NE(c[0].tip(), c[1].tip());

  // Both branches are announced at once; node 2 header-syncs against
  // whichever peer it hears from and must still end on the longer one.
  c.net.heal();
  c[0].announce_tip();
  c[1].announce_tip();
  c.net.run_until_idle();
  c[0].announce_tip();
  c[1].announce_tip();
  c.net.run_until_idle();

  EXPECT_EQ(c[2].height(), 5u);
  EXPECT_EQ(c[2].tip(), c[1].tip());
  EXPECT_EQ(c[2].chain().state().state_fingerprint(),
            replay_fingerprint(c[2].chain()));
  // The header chain re-rooted onto branch B as well.
  EXPECT_EQ(c[2].chain().best_header_hash(), c[1].tip());
}

TEST(HeadersFirst, DeepSyncUnderDeferredParallelValidation) {
  // The same pipeline with the batch verifier fanned out across worker
  // threads — the sync-heavy scenario the TSan CI job runs.
  mainchain::ChainParams params;
  params.validation.worker_threads = 2;
  NodeCluster c(31, 4, params);
  c.net.partition({{0, 1, 2}, {3}});
  for (int i = 0; i < 128; ++i) c[0].mine();
  c.net.run_until_idle();
  c.net.heal();
  std::size_t rounds = announce_until_synced(c, 0);
  EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(c[3].height(), 128u);
  EXPECT_EQ(c[3].chain().state().state_fingerprint(),
            c[0].chain().state().state_fingerprint());
}

TEST(HeadersFirst, InFlightCapFitsTheDefaultOrphanPool) {
  // Out-of-order bodies buffer in the orphan pool; a download window
  // wider than the pool would evict bodies faster than they connect.
  EXPECT_LE(kMaxInFlight, mainchain::ChainParams{}.max_orphan_blocks);
}

// ---------------------------------------------------------------------
// Scheduler regressions
//
// Each test below reproduces a wedge the download/header scheduler used
// to have: before its fix the assertions at the bottom fail (sync never
// completes or the retry fires a full timeout late).
// ---------------------------------------------------------------------

/// Raw wire envelope: 1-byte tag + codec body, for injecting crafted
/// traffic from an arbitrary endpoint.
std::vector<std::uint8_t> wire_msg(MsgType type,
                                   const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> wire;
  wire.reserve(body.size() + 1);
  wire.push_back(static_cast<std::uint8_t>(type));
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

/// Blocks 1..height of a freshly mined single-node chain — real PoW and
/// real ancestry, for scripted peers that serve genuine data. The miner
/// key derives from `seed`, so different seeds give different chains
/// (block content is otherwise fully deterministic).
std::vector<mainchain::Block> mined_chain(std::uint64_t seed,
                                          std::uint64_t height) {
  SimNet net(seed);
  auto key = crypto::KeyPair::from_seed(crypto::Hasher(Domain::kGeneric)
                                            .write_str("scripted-chain")
                                            .write_u64(seed)
                                            .finalize());
  NetNode source(net, mainchain::ChainParams{}, key);
  for (std::uint64_t i = 0; i < height; ++i) source.mine();
  std::vector<mainchain::Block> out;
  out.reserve(height);
  for (std::uint64_t h = 1; h <= height; ++h) {
    const mainchain::Block* b =
        source.chain().find_block(source.chain().hash_at_height(h));
    out.push_back(*b);
  }
  return out;
}

TEST(SchedulerRegression, UnsolicitedHeadersCannotCloseAnotherPeersRound) {
  // Node 0 owns node 2's header round; node 1 injects an unsolicited
  // (empty) kHeaders batch while node 0's answer dies on a dead link.
  // The buggy scheduler let any kHeaders clear headers_request_active_,
  // so node 1's batch closed node 0's round and the stall timer had
  // nothing left to retry — sync wedged at height 0 forever.
  NodeCluster c(51, 3);
  c.net.partition({{0, 1}, {2}});
  c[0].mine();
  c[0].mine();
  c.net.run_until_idle();
  ASSERT_EQ(c[1].height(), 2u);

  c.net.heal();
  c[0].announce_tip();
  // Deliver events until node 2 orphans the tip and opens a header round
  // with node 0 (the announcing sender).
  while (c[2].stats().sent(MsgType::kGetHeaders) == 0) {
    ASSERT_TRUE(c.net.step());
  }
  // Node 0's kHeaders answer (sent after this point) dies on the link.
  LinkParams dead;
  dead.drop_num = 1;
  dead.drop_den = 1;
  c.net.set_link(0, 2, dead);
  // The stale/unsolicited batch from node 1 arrives mid-round.
  c.net.send(1, 2,
             wire_msg(MsgType::kHeaders, mainchain::codec::encode_headers({})));
  c.net.run_until_idle();

  // Ownership held: the round stayed open, the stall timer moved it to
  // node 1, and the download completed around the dead link.
  EXPECT_EQ(c[2].height(), 2u);
  EXPECT_EQ(c[2].tip(), c[0].tip());
  EXPECT_GE(c[2].stats().stalled_rerequests, 1u);
  EXPECT_GE(c[2].stats().sent(MsgType::kGetHeaders), 2u);
}

/// Scripted header server: replays a fixed batch schedule (the first
/// batch twice) over a real mined chain, then serves bodies honestly.
/// The duplicated full batch is what an honest peer produces when a
/// locator race makes the requester ask twice — not an attack.
class ReplayHeaderServer {
 public:
  ReplayHeaderServer(SimNet& net, std::vector<mainchain::Block> chain,
                     std::size_t batch)
      : net_(net), chain_(std::move(chain)), batch_(batch) {
    id_ = net_.add_node([this](NodeId from, const SimNet::PayloadPtr& p) {
      on_message(from, std::span<const std::uint8_t>(p->bytes));
    });
    for (const auto& b : chain_) blocks_by_hash_.emplace(b.hash(), &b);
  }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::size_t header_requests() const {
    return header_requests_;
  }

  /// Kicks the victim's sync by announcing the chain tip.
  void announce(NodeId victim) {
    net_.send(id_, victim,
              wire_msg(MsgType::kBlock,
                       mainchain::codec::encode_block(chain_.back())));
  }

 private:
  void on_message(NodeId from, std::span<const std::uint8_t> payload) {
    if (payload.empty()) return;
    const auto tag = static_cast<MsgType>(payload.front());
    auto body = payload.subspan(1);
    if (tag == MsgType::kGetHeaders) {
      // Request 1 -> batch 0, request 2 -> batch 0 again (the full
      // all-duplicate batch), request n>2 -> batch n-2.
      const std::size_t req = ++header_requests_;
      const std::size_t index = req <= 2 ? 0 : req - 2;
      std::vector<mainchain::BlockHeader> headers;
      for (std::size_t i = index * batch_;
           i < std::min(chain_.size(), (index + 1) * batch_); ++i) {
        headers.push_back(chain_[i].header);
      }
      net_.send(id_, from,
                wire_msg(MsgType::kHeaders,
                         mainchain::codec::encode_headers(headers)));
    } else if (tag == MsgType::kGetData) {
      for (const auto& hash : mainchain::codec::decode_inv(body)) {
        auto it = blocks_by_hash_.find(hash);
        if (it == blocks_by_hash_.end()) continue;
        net_.send(id_, from,
                  wire_msg(MsgType::kBlock,
                           mainchain::codec::encode_block(*it->second)));
      }
    }
  }

  SimNet& net_;
  NodeId id_ = 0;
  std::vector<mainchain::Block> chain_;
  std::unordered_map<crypto::Digest, const mainchain::Block*,
                     crypto::DigestHash>
      blocks_by_hash_;
  std::size_t batch_;
  std::size_t header_requests_ = 0;
};

TEST(SchedulerRegression, AllDuplicateFullBatchKeepsHeaderWalkAlive) {
  // A full solicited batch that connects nothing new (an honest replay
  // after a locator race) used to stop the pipelined walk — `extended`
  // was false — wedging a 300-block catch-up at the first batch edge.
  // The walk must keep going on any full batch, bounded only by the
  // no-progress cap.
  SimNet net(53);
  mainchain::ChainParams params;
  auto key = crypto::KeyPair::from_seed(crypto::Hasher(Domain::kGeneric)
                                            .write_str("dup-batch-victim")
                                            .write_u64(0)
                                            .finalize());
  NetNode victim(net, params, key);
  ReplayHeaderServer server(net, mined_chain(59, 300), kHeadersBatch);

  server.announce(victim.id());
  net.run_until_idle();

  EXPECT_EQ(victim.height(), 300u);
  // Batches served: 1..128, 1..128 again, 129..256, 257..300 — the
  // duplicate did not end the walk.
  EXPECT_GE(server.header_requests(), 4u);
  EXPECT_EQ(victim.blocks_in_flight(), 0u);
}

TEST(SchedulerRegression, StallTimerFiresAtEarliestPendingDeadline) {
  // Bodies go in flight at t1 against dead peers; a header round opens
  // ~20 ticks later against another dead peer. The old scheduler kept
  // one flat timer: the body stall at t1+32 re-armed it a full timeout
  // out (t1+64), so the header retry — due at its own t_h+32 ≈ t1+53 —
  // waited an extra ~11 ticks. The fixed timer tracks the earliest
  // pending deadline and retries the header round on time.
  SimNet net(61);
  mainchain::ChainParams params;
  auto key = crypto::KeyPair::from_seed(crypto::Hasher(Domain::kGeneric)
                                            .write_str("deadline-victim")
                                            .write_u64(0)
                                            .finalize());
  NetNode victim(net, params, key);
  // Two peers that receive everything and answer nothing.
  net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.add_node([](NodeId, const SimNet::PayloadPtr&) {});

  // Real headers (ancestry from genesis) injected unsolicited: the
  // victim connects them and requests the bodies from the dead peers.
  auto chain = mined_chain(67, 4);
  std::vector<mainchain::BlockHeader> headers;
  for (const auto& b : chain) headers.push_back(b.header);
  net.send(1, victim.id(),
           wire_msg(MsgType::kHeaders, mainchain::codec::encode_headers(headers)));
  while (victim.blocks_in_flight() == 0) ASSERT_TRUE(net.step());
  const SimTime t1 = net.now();

  // ~20 ticks later an orphan from a foreign branch opens a header round
  // with dead peer 2.
  net.run_until(t1 + 20);
  auto foreign = mined_chain(71, 3);
  net.send(2, victim.id(),
           wire_msg(MsgType::kBlock,
                    mainchain::codec::encode_block(foreign.back())));
  while (victim.stats().sent(MsgType::kGetHeaders) == 0) {
    ASSERT_TRUE(net.step());
  }
  const SimTime t_header = net.now();
  const SimTime header_deadline = t_header + kStallTimeout;
  ASSERT_GT(header_deadline, t1 + kStallTimeout);

  // By one tick past the header round's own deadline the retry must be
  // out. The flat timer would still be sleeping until t1+64.
  net.run_until(header_deadline + 1);
  EXPECT_EQ(victim.stats().sent(MsgType::kGetHeaders), 2u);
  EXPECT_GE(victim.stats().stalled_rerequests, 1u);
}

TEST(SchedulerRegression, TwoNodeClusterRetriesStalledHeaderRoundNotSelf) {
  // With only one other node, the retry pick used to fall off the end of
  // the peer list and address the request to the node itself — a message
  // nobody answers. The stalled peer must be retried instead.
  NodeCluster c(73, 2);
  c.net.partition({{0}, {1}});
  for (int i = 0; i < 3; ++i) c[0].mine();
  c.net.run_until_idle();
  c.net.heal();

  c[0].announce_tip();
  while (c[1].stats().sent(MsgType::kGetHeaders) == 0) {
    ASSERT_TRUE(c.net.step());
  }
  // Node 0's answer dies on the link; restore it before the stall timer
  // fires so the retry can succeed.
  LinkParams dead;
  dead.drop_num = 1;
  dead.drop_den = 1;
  c.net.set_link(0, 1, dead);
  c.net.run_until(c.net.now() + 8);
  c.net.set_link(0, 1, c.net.default_link());
  c.net.run_until_idle();

  EXPECT_EQ(c[1].height(), 3u);
  EXPECT_EQ(c[1].tip(), c[0].tip());
  EXPECT_GE(c[1].stats().stalled_rerequests, 1u);
  // The retry went back to node 0, never to node 1 itself.
  EXPECT_EQ(c.net.link_stats(1, 1).queued, 0u);
}

TEST(Scenario, ScriptedPartitionRaceConverges) {
  NodeCluster c(6, 4);
  ScenarioRunner runner(c.net, c.ptrs());
  runner.run({
      {5, ScenarioEvent::Partition{{{0, 1}, {2, 3}}}},
      {6, ScenarioEvent::Mine{0, 2}},
      {7, ScenarioEvent::Mine{2, 3}},
      {30, ScenarioEvent::Heal{}},
      {40, ScenarioEvent::Mine{1, 1}},
  });
  ASSERT_TRUE(runner.converge(0));
  for (auto* node : c.ptrs()) {
    EXPECT_EQ(node->tip(), c[0].tip());
    EXPECT_EQ(node->chain().state().state_fingerprint(),
              replay_fingerprint(node->chain()));
  }
  // Both sides mined; at least one side's work was reorged away.
  std::uint64_t reorgs = 0;
  for (auto* node : c.ptrs()) reorgs += node->stats().reorgs;
  EXPECT_GE(reorgs, 1u);
}

TEST(PayloadSharing, MinerEncodesEachBlockOnceForTheWholeCluster) {
  // A 17-node mesh: every mine broadcasts to 16 peers and then serves
  // backfill requests. The encoded-block cache must keep the miner at
  // one encode per block no matter how many peers it feeds, and the
  // shared-payload broadcast must queue each distinct buffer's bytes
  // once (not once per recipient).
  NodeCluster c(55, 17);
  for (int i = 0; i < 5; ++i) {
    c[0].mine();
    c.net.run_until_idle();
  }
  for (std::size_t i = 1; i < 17; ++i) EXPECT_EQ(c[i].tip(), c[0].tip());
  EXPECT_EQ(c[0].stats().encode_cache_misses, 5u);

  // Flood relay means most nodes hear each block from several peers;
  // the wire-level dedup table must absorb those without re-decoding.
  std::uint64_t dedup = 0;
  for (auto* n : c.ptrs()) dedup += n->stats().wire_dedup_hits;
  EXPECT_GT(dedup, 0u);

  // Re-broadcasting the tip (and any backfill serving) must reuse the
  // cached encoding instead of re-encoding: still 5 misses after.
  c[0].announce_tip();
  c.net.run_until_idle();
  EXPECT_EQ(c[0].stats().encode_cache_misses, 5u);
  EXPECT_GE(c[0].stats().encode_cache_hits, 1u);
}

TEST(Scenario, SameSeedReproducesTraceAndTip) {
  auto run = [](std::uint64_t seed) {
    auto cluster = std::make_unique<NodeCluster>(seed, 4);
    crypto::Rng rng(seed);
    ScenarioRunner runner(cluster->net, cluster->ptrs());
    runner.run(make_random_race(rng, 4, 2, 2));
    runner.converge(0);
    return std::make_pair(cluster->net.trace_digest(), (*cluster)[0].tip());
  };
  auto [trace1, tip1] = run(777);
  auto [trace2, tip2] = run(777);
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(tip1, tip2);
}

}  // namespace
}  // namespace zendoo::net
