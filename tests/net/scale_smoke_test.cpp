// CI-sized large-cluster smoke: the simulator must push a 128-node
// gossip mesh through a 60-block mining run inside a fixed event budget
// and without storing a trace (kDigest keeps replay-checkable state in
// O(1) memory). This is the scaled-down twin of the bench_net
// BM_LargeClusterGossip sweep — it guards the same machinery (calendar
// queue, flat link tables, hash-once payloads, encoded-block cache)
// against regressions that only show up super-linearly with node count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/scenario.hpp"
#include "obs/json.hpp"
#include "sim/metrics_probe.hpp"

namespace zendoo::net {
namespace {

TEST(ScaleSmoke, GossipAt128NodesStaysInsideEventBudget) {
  constexpr std::size_t kNodes = 128;
  constexpr std::uint64_t kBlocks = 60;
  // Every delivery fans out to up to N-1 peers; the budget below is a
  // few multiples of the measured event count (~0.5M at this size) so a
  // relay-amplification regression trips it while honest growth in the
  // protocol keeps headroom.
  constexpr std::uint64_t kEventBudget = 4'000'000;

  const auto started = std::chrono::steady_clock::now();
  NodeCluster c(97, kNodes);
  c.net.set_trace_mode(TraceMode::kDigest);
  c.net.set_idle_event_cap(kEventBudget);

  // Drive the run through a cluster-wide metrics probe: the smoke test
  // doubles as the at-scale check that sampling 128 registries neither
  // perturbs the run nor produces an unusable export.
  sim::MetricsProbe probe(c.net, c.ptrs(), /*cadence=*/64);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    c[b % kNodes].mine();
    probe.run_until_idle(/*final_sample=*/b + 1 == kBlocks);
  }

  // Everyone converged on one chain of the full height.
  for (std::size_t i = 1; i < kNodes; ++i) {
    ASSERT_EQ(c[i].tip(), c[0].tip()) << "node " << i;
  }
  EXPECT_EQ(c[0].height(), kBlocks);

  // The budget held with room to spare.
  EXPECT_LT(c.net.stats().events_processed, kEventBudget);

  // Encoding happened once per block per node at most: the shared-buffer
  // relay and encoded-block cache keep re-encodes off the hot path.
  std::uint64_t encodes = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    encodes += c[i].stats().encode_cache_misses;
  }
  EXPECT_LE(encodes, kBlocks * kNodes);

  // The sampled time-series exports, parses, and carries the mandatory
  // metric families every layer is contracted to publish.
  ASSERT_EQ(setenv("ZENDOO_BENCH_DIR", testing::TempDir().c_str(), 1), 0);
  const std::string path = probe.write_json("scale_smoke_128");
  unsetenv("ZENDOO_BENCH_DIR");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "zendoo-probe-v1");
  EXPECT_EQ(doc.at("nodes").as_u64(), kNodes);
  const obs::json::Value& samples = doc.at("samples");
  ASSERT_GT(samples.size(), 0u);
  const obs::json::Value& values = samples.at(samples.size() - 1).at("values");
  for (const char* family :
       {"sim.events_processed", "net.msgs_sent", "net.blocks_received",
        "mc.blocks_connected", "mc.orphan_pool", "par.checks_executed"}) {
    EXPECT_NE(values.find(family), nullptr) << family;
  }
  // Cluster totals agree between the probe's last sample and the live
  // registries (128 nodes of them).
  EXPECT_EQ(probe.last("sim.events_processed"),
            c.net.stats().events_processed.value());

  // Generous wall-clock ceiling — this is a smoke test, not a
  // benchmark; it catches accidental O(n^2)-per-event blowups, which
  // overshoot this by orders of magnitude.
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, std::chrono::seconds(120));
}

TEST(ScaleSmoke, PartitionStormAt64NodesHealsAndConverges) {
  // Repeated partition/heal cycles at 64 nodes: the storm variant of
  // the bench sweep. Stresses ban/override table churn and the
  // re-anchoring paths of the calendar queue under bursty idle gaps.
  constexpr std::size_t kNodes = 64;
  NodeCluster c(98, kNodes);
  c.net.set_trace_mode(TraceMode::kDigest);
  c.net.set_idle_event_cap(4'000'000);

  for (std::uint64_t cycle = 0; cycle < 4; ++cycle) {
    std::vector<NodeId> side_a, side_b;
    for (NodeId id = 0; id < kNodes; ++id) {
      ((id + cycle) % 2 == 0 ? side_a : side_b).push_back(id);
    }
    c.net.partition({{side_a}, {side_b}});
    c[side_a[cycle % side_a.size()]].mine();
    c[side_b[cycle % side_b.size()]].mine();
    c.net.run_until_idle();
    c.net.heal();
    for (auto* n : c.ptrs()) n->announce_tip();
    c.net.run_until_idle();
  }

  // Each cycle ties the two halves at equal height; the standard
  // convergence driver mines the tie-breakers.
  ScenarioRunner runner(c.net, c.ptrs());
  ASSERT_TRUE(runner.converge(0));
  for (std::size_t i = 1; i < kNodes; ++i) {
    ASSERT_EQ(c[i].tip(), c[0].tip()) << "node " << i;
  }
  EXPECT_GE(c[0].height(), 4u);
}

}  // namespace
}  // namespace zendoo::net
