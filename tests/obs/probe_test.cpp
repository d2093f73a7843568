// MetricsProbe contract tests: attaching a probe is invisible to the
// event stream (golden-digest safe), sampling is deterministic (the
// exported JSON is byte-identical across reruns of the same seed), and
// the time-series answers the questions it exists for (bounded orphan
// pool under a flood).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mainchain/params.hpp"
#include "net/scenario.hpp"
#include "obs/json.hpp"
#include "sim/metrics_probe.hpp"

namespace zendoo {
namespace {

using net::NodeCluster;
using net::ScenarioEvent;
using net::ScenarioRunner;
using sim::MetricsProbe;

/// A small partitioned mining race, driven either by the probe (when
/// `probe` is non-null) or by the net directly — byte-identical event
/// streams is the contract under test.
void drive_race(NodeCluster& cluster, MetricsProbe* probe) {
  auto run_until = [&](net::SimTime t) {
    if (probe != nullptr) {
      probe->run_until(t);
    } else {
      cluster.net.run_until(t);
    }
  };
  cluster.net.partition({{0, 1}, {2, 3}});
  cluster[0].mine();
  run_until(10);
  cluster[2].mine();
  cluster[2].mine();
  run_until(25);
  cluster.net.heal();
  for (net::NetNode* node : cluster.ptrs()) node->announce_tip();
  if (probe != nullptr) {
    probe->run_until_idle();
  } else {
    cluster.net.run_until_idle();
  }
}

TEST(MetricsProbe, InvisibleToTraceDigestAndStats) {
  NodeCluster plain(7, 4);
  plain.net.set_trace_mode(net::TraceMode::kDigest);
  drive_race(plain, nullptr);

  NodeCluster probed(7, 4);
  probed.net.set_trace_mode(net::TraceMode::kDigest);
  MetricsProbe probe(probed.net, probed.ptrs(), /*cadence=*/5);
  drive_race(probed, &probe);

  EXPECT_EQ(probed.net.trace_digest(), plain.net.trace_digest());
  EXPECT_EQ(probed.net.stats().delivered, plain.net.stats().delivered);
  EXPECT_EQ(probed.net.stats().events_processed,
            plain.net.stats().events_processed);
  EXPECT_FALSE(probe.samples().empty());
}

TEST(MetricsProbe, JsonByteIdenticalAcrossReruns) {
  auto run_once = [] {
    NodeCluster cluster(21, 4);
    MetricsProbe probe(cluster.net, cluster.ptrs(), /*cadence=*/4);
    drive_race(cluster, &probe);
    return probe.to_json("rerun");
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(MetricsProbe, SamplesAreOrderedAndCountersMonotone) {
  NodeCluster cluster(3, 4);
  MetricsProbe probe(cluster.net, cluster.ptrs(), /*cadence=*/5);
  drive_race(cluster, &probe);

  const auto& samples = probe.samples();
  ASSERT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].time, samples[i].time);
  }
  for (const char* name :
       {"sim.events_processed", "net.msgs_sent", "mc.blocks_connected"}) {
    const auto series = probe.series(name);
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_LE(series[i - 1].second, series[i].second) << name;
    }
  }
  // The race connected blocks on every node and the probe saw it happen.
  EXPECT_GT(probe.last("mc.blocks_connected"), 0u);
  EXPECT_GT(probe.last("net.msgs_sent{type=block}"), 0u);
  EXPECT_EQ(probe.last("sim.events_processed"),
            cluster.net.stats().events_processed.value());
}

TEST(MetricsProbe, OrphanPoolStaysBoundedUnderFlood) {
  mainchain::ChainParams params;
  NodeCluster cluster(11, 2, params);
  net::OrphanSpammer spammer(cluster.net, params);
  MetricsProbe probe(cluster.net, cluster.ptrs(), /*cadence=*/8);
  // Three flood waves with sampling in between: the time-series must
  // show per-node occupancy peaking below the configured pool cap.
  for (int wave = 0; wave < 3; ++wave) {
    spammer.spam(/*victim=*/0, 100);
    probe.run_until(cluster.net.now() + 40);
  }
  probe.run_until_idle();
  const std::uint64_t peak = probe.max_over_time("mc.orphan_pool.node_max");
  EXPECT_GT(peak, 0u);
  EXPECT_LE(peak, params.max_orphan_blocks);
}

TEST(MetricsProbe, WriteJsonEmitsParsableSchemaWithMandatoryFamilies) {
  NodeCluster cluster(5, 4);
  MetricsProbe probe(cluster.net, cluster.ptrs(), /*cadence=*/5);
  drive_race(cluster, &probe);

  ASSERT_EQ(setenv("ZENDOO_BENCH_DIR", testing::TempDir().c_str(), 1), 0);
  const std::string path = probe.write_json("probe_test");
  unsetenv("ZENDOO_BENCH_DIR");
  ASSERT_FALSE(path.empty());

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::json::Value doc = obs::json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "zendoo-probe-v1");
  EXPECT_EQ(doc.at("name").as_string(), "probe_test");
  EXPECT_EQ(doc.at("cadence").as_u64(), 5u);
  EXPECT_EQ(doc.at("nodes").as_u64(), 4u);
  const obs::json::Value& samples = doc.at("samples");
  ASSERT_TRUE(samples.is_array());
  ASSERT_GT(samples.size(), 0u);
  const obs::json::Value& last = samples.at(samples.size() - 1);
  EXPECT_TRUE(last.at("time").is_number());
  for (const char* family :
       {"sim.events_processed", "net.msgs_sent", "net.blocks_received",
        "mc.blocks_connected", "mc.orphan_pool", "par.checks_executed"}) {
    EXPECT_NE(last.at("values").find(family), nullptr) << family;
  }
}

}  // namespace
}  // namespace zendoo
