// SimNet unit tests: deterministic replay, latency ordering, drop model,
// partition semantics. These pin down the simulator contract the
// convergence tests build on — above all that one seed means one trace.
#include "net/sim.hpp"

#include <gtest/gtest.h>

namespace zendoo::net {
namespace {

/// A recording endpoint: remembers (from, first payload byte) per delivery.
struct Sink {
  std::vector<std::pair<NodeId, std::uint8_t>> got;
  SimNet::Handler handler() {
    return [this](NodeId from, const SimNet::PayloadPtr& p) {
      got.emplace_back(from, p->bytes.empty() ? 0 : p->bytes.front());
    };
  }
};

TEST(SimNet, DeliversInLatencyOrder) {
  SimNet net(1);
  Sink sink;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  NodeId b = net.add_node(sink.handler());
  LinkParams slow{10, 10, 0, 1};
  LinkParams fast{1, 1, 0, 1};

  net.set_default_link(slow);
  net.send(a, b, {1});  // scheduled at t=10
  net.set_default_link(fast);
  net.send(a, b, {2});  // scheduled at t=1
  net.run_until_idle();

  ASSERT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(sink.got[0].second, 2);  // the fast message overtook the slow one
  EXPECT_EQ(sink.got[1].second, 1);
  EXPECT_EQ(net.now(), 10u);
}

TEST(SimNet, SameTickOrderedBySendSequence) {
  SimNet net(7);
  Sink sink;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  NodeId b = net.add_node(sink.handler());
  net.set_default_link({3, 3, 0, 1});
  for (std::uint8_t i = 0; i < 5; ++i) net.send(a, b, {i});
  net.run_until_idle();
  ASSERT_EQ(sink.got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(sink.got[i].second, i);
}

TEST(SimNet, SameSeedSameTrace) {
  auto run = [](std::uint64_t seed) {
    SimNet net(seed);
    std::vector<NodeId> ids;
    Sink sink;
    for (int i = 0; i < 4; ++i) ids.push_back(net.add_node(sink.handler()));
    net.set_default_link({1, 9, 2, 10});  // jittered, lossy
    for (std::uint8_t round = 0; round < 10; ++round) {
      net.broadcast(ids[round % 4], {round});
      net.run_until(net.now() + 3);
    }
    net.run_until_idle();
    return net.trace_digest();
  };
  auto t1 = run(42), t2 = run(42), t3 = run(43);
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);
}

TEST(SimNet, DropModelLosesMessages) {
  SimNet net(5);
  Sink sink;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.add_node(sink.handler());
  net.set_default_link({1, 1, 5, 10});  // 50% loss
  for (std::uint8_t i = 0; i < 100; ++i) net.send(a, 1, {i});
  net.run_until_idle();
  EXPECT_GT(net.stats().dropped, 20u);
  EXPECT_GT(net.stats().delivered, 20u);
  EXPECT_EQ(net.stats().dropped + net.stats().delivered, 100u);
  EXPECT_EQ(sink.got.size(), net.stats().delivered);
}

TEST(SimNet, PartitionCutsCrossTrafficOnly) {
  SimNet net(9);
  std::vector<Sink> sinks(4);
  for (auto& s : sinks) net.add_node(s.handler());
  net.partition({{0, 1}, {2, 3}});
  EXPECT_TRUE(net.reachable(0, 1));
  EXPECT_FALSE(net.reachable(1, 2));

  net.broadcast(0, {7});
  net.run_until_idle();
  EXPECT_EQ(sinks[1].got.size(), 1u);  // same side
  EXPECT_TRUE(sinks[2].got.empty());   // across the cut
  EXPECT_TRUE(sinks[3].got.empty());
  EXPECT_EQ(net.stats().partitioned, 2u);

  net.heal();
  net.broadcast(0, {8});
  net.run_until_idle();
  EXPECT_EQ(sinks[2].got.size(), 1u);
  EXPECT_EQ(sinks[3].got.size(), 1u);
}

TEST(SimNet, InFlightMessagesLostWhenCutMidFlight) {
  SimNet net(11);
  Sink sink;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.add_node(sink.handler());
  net.set_default_link({10, 10, 0, 1});
  net.send(a, 1, {1});     // in flight until t=10
  net.partition({{0}, {1}});  // the link is cut under it
  net.run_until_idle();
  EXPECT_TRUE(sink.got.empty());
  EXPECT_EQ(net.stats().partitioned, 1u);
}

TEST(SimNet, UnlistedNodesFormImplicitGroup) {
  SimNet net(13);
  std::vector<Sink> sinks(3);
  for (auto& s : sinks) net.add_node(s.handler());
  net.partition({{0}});  // 1 and 2 stay connected to each other
  EXPECT_FALSE(net.reachable(0, 1));
  EXPECT_TRUE(net.reachable(1, 2));
}

TEST(SimNet, RunUntilAdvancesClockPastIdle) {
  SimNet net(17);
  net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.run_until(100);
  EXPECT_EQ(net.now(), 100u);
}

TEST(SimNet, TimersFireAtDeadlineInterleavedWithMessages) {
  SimNet net(19);
  Sink sink;
  std::vector<std::pair<SimTime, std::uint64_t>> fired;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  NodeId b = net.add_node(sink.handler());
  net.set_timer_handler(b, [&](std::uint64_t token) {
    fired.emplace_back(net.now(), token);
  });
  net.set_default_link({5, 5, 0, 1});
  net.send(a, b, {1});      // delivered at t=5
  net.set_timer(b, 3, 42);  // fires at t=3, before the message
  net.set_timer(b, 9, 43);  // fires at t=9, after it
  net.run_until_idle();

  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<SimTime, std::uint64_t>{3, 42}));
  EXPECT_EQ(fired[1], (std::pair<SimTime, std::uint64_t>{9, 43}));
  ASSERT_EQ(sink.got.size(), 1u);
  EXPECT_EQ(net.stats().timers_set, 2u);
  EXPECT_EQ(net.stats().timers_fired, 2u);
  // Timers are node-local events: they never enter the delivery trace,
  // so it folds to the digest of a timer-free twin run.
  SimNet twin(19);
  twin.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  twin.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  twin.set_default_link({5, 5, 0, 1});
  twin.send(a, b, {1});
  twin.run_until_idle();
  EXPECT_NE(twin.trace_digest(), SimNet::trace_digest_seed());
  EXPECT_EQ(net.trace_digest(), twin.trace_digest());
}

TEST(SimNet, TimersSurvivePartitionsAndDropModel) {
  SimNet net(23);
  int fired = 0;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.set_timer_handler(a, [&](std::uint64_t) { ++fired; });
  net.set_default_link({1, 1, 1, 1});  // 100% loss
  net.partition({{0}, {1}});           // and a is cut off entirely
  net.set_timer(a, 4);
  net.send(a, 1, {1});
  net.run_until_idle();
  EXPECT_EQ(fired, 1);  // the timer is immune to both loss mechanisms
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(SimNet, LinkStatsCountPerDirectedLink) {
  SimNet net(27);
  Sink sink;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  NodeId b = net.add_node(sink.handler());
  net.add_node([](NodeId, const SimNet::PayloadPtr&) {});

  net.send(a, b, {1});
  net.send(a, b, {2});
  net.send(b, a, {3});
  net.run_until_idle();
  net.partition({{0}, {1, 2}});
  net.send(a, b, {4});  // dies on the cut
  net.run_until_idle();

  SimNet::LinkStats ab = net.link_stats(a, b);
  EXPECT_EQ(ab.queued, 3u);
  EXPECT_EQ(ab.delivered, 2u);
  EXPECT_EQ(ab.partitioned, 1u);
  EXPECT_EQ(ab.dropped, 0u);
  // The reverse direction is tracked separately…
  EXPECT_EQ(net.link_stats(b, a).delivered, 1u);
  // …and an unused link reads as zeroes.
  EXPECT_EQ(net.link_stats(a, 2).queued, 0u);
  // Per-link tallies are consistent with the global ones.
  EXPECT_EQ(net.stats().delivered, 3u);
  EXPECT_EQ(net.stats().partitioned, 1u);
}

TEST(SimNet, OffModeRecordsNothingButCountsStats) {
  SimNet net(101);
  Sink sink;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.add_node(sink.handler());
  net.set_trace_mode(TraceMode::kOff);
  for (std::uint8_t i = 0; i < 5; ++i) net.send(a, 1, {i});
  net.run_until_idle();
  EXPECT_EQ(net.trace_digest(), SimNet::trace_digest_seed());
  EXPECT_EQ(net.stats().delivered, 5u);
  EXPECT_EQ(sink.got.size(), 5u);
}

TEST(SimNet, BroadcastQueuesPayloadBytesOnce) {
  // The hash-once/share-once contract: a broadcast to 15 receivers
  // materializes one buffer, so bytes_queued counts it once, while every
  // receiver gets the same shared record, digest included.
  SimNet net(103);
  std::vector<SimNet::PayloadPtr> got;
  for (int i = 0; i < 16; ++i) {
    net.add_node([&got](NodeId, const SimNet::PayloadPtr& p) {
      got.push_back(p);
    });
  }
  const std::vector<std::uint8_t> payload(1000, 0xab);
  net.broadcast(0, payload);
  net.run_until_idle();
  EXPECT_EQ(net.stats().bytes_queued, 1000u);
  EXPECT_EQ(net.stats().delivered, 15u);
  ASSERT_EQ(got.size(), 15u);
  EXPECT_EQ(got[0]->bytes, payload);
  for (const SimNet::PayloadPtr& p : got) EXPECT_EQ(p, got[0]);
  // A shared pre-materialized payload re-sent to every node adds its
  // bytes once more (at make_payload), not per receiver.
  auto shared = net.make_payload({1, 2, 3});
  for (NodeId to = 1; to < 16; ++to) net.send(0, to, shared);
  net.run_until_idle();
  EXPECT_EQ(net.stats().bytes_queued, 1003u);
}

TEST(SimNet, IdleEventCapIsConfigurable) {
  // Two nodes ping-ponging forever: run_until_idle must throw at the
  // configured budget instead of the built-in million.
  SimNet net(107);
  net.add_node([&net](NodeId from, const SimNet::PayloadPtr& p) {
    net.send(0, from, p->bytes);
  });
  net.add_node([&net](NodeId from, const SimNet::PayloadPtr& p) {
    net.send(1, from, p->bytes);
  });
  net.send(0, 1, {1});
  net.set_idle_event_cap(100);
  EXPECT_EQ(net.idle_event_cap(), 100u);
  EXPECT_THROW(net.run_until_idle(), std::runtime_error);
  EXPECT_LE(net.stats().events_processed, 102u);
}

TEST(SimNet, FarFutureTimersCrossTheRingWindow) {
  // Deep timers (beyond the 1024-tick calendar window) exercise the
  // overflow map end to end: park, migrate, fire in deadline order.
  SimNet net(109);
  std::vector<std::pair<SimTime, std::uint64_t>> fired;
  NodeId a = net.add_node([](NodeId, const SimNet::PayloadPtr&) {});
  net.set_timer_handler(a, [&](std::uint64_t token) {
    fired.emplace_back(net.now(), token);
  });
  net.set_timer(a, 90'000, 3);
  net.set_timer(a, 5, 1);
  net.set_timer(a, 2'000, 2);
  net.run_until_idle();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<SimTime, std::uint64_t>{5, 1}));
  EXPECT_EQ(fired[1], (std::pair<SimTime, std::uint64_t>{2'000, 2}));
  EXPECT_EQ(fired[2], (std::pair<SimTime, std::uint64_t>{90'000, 3}));
}

}  // namespace
}  // namespace zendoo::net
