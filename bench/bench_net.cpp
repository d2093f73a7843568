// Gossip cost over the deterministic network simulator: what block
// propagation and partition recovery cost as the cluster grows.
//
// BM_BlockPropagation: one miner, N nodes — flood-relay a block to every
// peer (codec encode/decode per hop dominates).
// BM_PartitionRecovery: a 2|2+ split diverges by d blocks per side, then
// heals — measures the header sync and body download of the winning
// branch plus the reorg on the losing side.
// BM_DeepCatchUp: one node rejoins `depth` blocks behind a 4-peer
// cluster and catches up headers-first. Counters record simulated
// round-trip cost (ticks, delivered messages, announce rounds), not just
// wall time.
#include "bench_json.hpp"

#include <memory>

#include "net/scenario.hpp"
#include "sim/metrics_probe.hpp"

namespace {

using namespace zendoo;

struct Cluster : net::NodeCluster {
  explicit Cluster(std::size_t n) : net::NodeCluster(1, n) {}
  net::SimNet& simnet = net;  // historical alias for the benches below
};

void BM_BlockPropagation(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(n);
    state.ResumeTiming();
    cluster.nodes[0]->mine();
    cluster.simnet.run_until_idle();
    benchmark::DoNotOptimize(cluster.nodes[n - 1]->tip());
  }
  state.SetLabel("nodes=" + std::to_string(n));
}
BENCHMARK(BM_BlockPropagation)->Arg(4)->Arg(8)->Arg(16);

void BM_PartitionRecovery(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(4);
    cluster.simnet.partition({{0, 1}, {2, 3}});
    for (std::size_t i = 0; i < depth; ++i) {
      cluster.nodes[0]->mine();
      cluster.nodes[2]->mine();
      cluster.nodes[2]->mine();  // side B stays strictly ahead
      cluster.simnet.run_until_idle();
    }
    state.ResumeTiming();
    cluster.simnet.heal();
    for (auto& node : cluster.nodes) node->announce_tip();
    cluster.simnet.run_until_idle();
    benchmark::DoNotOptimize(cluster.nodes[0]->tip());
  }
  state.SetLabel("diverged=" + std::to_string(depth) + "|" +
                 std::to_string(2 * depth));
}
BENCHMARK(BM_PartitionRecovery)->Arg(2)->Arg(8)->Arg(16);

void BM_DeepCatchUp(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  std::uint64_t ticks = 0, delivered = 0, rounds = 0, iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(5);
    cluster.simnet.partition({{0, 1, 2, 3}, {4}});
    for (std::size_t i = 0; i < depth; ++i) cluster.nodes[0]->mine();
    cluster.simnet.run_until_idle();
    cluster.simnet.heal();
    const net::SimTime t0 = cluster.simnet.now();
    const std::uint64_t d0 = cluster.simnet.stats().delivered;
    state.ResumeTiming();
    // Headers-first finishes in one announcement; the loop is what a
    // peer re-advertising its tip does for a node that is still behind,
    // so a regression shows up as extra rounds instead of a hang.
    std::size_t round = 0;
    while (cluster.nodes[4]->tip() != cluster.nodes[0]->tip()) {
      if (++round > 64) break;  // wedged — surfaces as a huge tick count
      cluster.nodes[0]->announce_tip();
      cluster.simnet.run_until_idle();
    }
    benchmark::DoNotOptimize(cluster.nodes[4]->tip());
    state.PauseTiming();
    ticks += cluster.simnet.now() - t0;
    delivered += cluster.simnet.stats().delivered - d0;
    rounds += round;
    ++iters;
    state.ResumeTiming();
  }
  state.counters["sim_ticks"] =
      benchmark::Counter(static_cast<double>(ticks) / iters);
  state.counters["msgs_delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / iters);
  state.counters["announce_rounds"] =
      benchmark::Counter(static_cast<double>(rounds) / iters);
  state.counters["blocks"] = benchmark::Counter(static_cast<double>(depth));
  state.SetLabel("depth=" + std::to_string(depth) + " peers=4");
}
BENCHMARK(BM_DeepCatchUp)->Arg(256)->Arg(512)->Iterations(3);

void BM_HostilePeerOverhead(benchmark::State& state) {
  // The same deep catch-up as BM_DeepCatchUp (headers-first, 4 honest
  // peers) with an orphan-spamming attacker riding along when range(0)
  // is set. The counters price the DoS layer: how much extra simulated
  // time and traffic the flood costs before the scorer bans it, and how
  // many junk blocks ever occupied the bounded pool. The no-attacker
  // row is the control — its delta against BM_DeepCatchUp is the cost
  // of the scoring bookkeeping itself on clean traffic.
  const bool hostile = state.range(0) != 0;
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  std::uint64_t ticks = 0, delivered = 0, banned_msgs = 0, iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(5);
    auto spammer = hostile ? std::make_unique<net::OrphanSpammer>(
                                 cluster.simnet, mainchain::ChainParams{})
                           : nullptr;
    cluster.simnet.partition({{0, 1, 2, 3}, {4}});
    for (std::size_t i = 0; i < depth; ++i) cluster.nodes[0]->mine();
    cluster.simnet.run_until_idle();
    cluster.simnet.heal();
    const net::SimTime t0 = cluster.simnet.now();
    const std::uint64_t d0 = cluster.simnet.stats().delivered;
    state.ResumeTiming();
    if (spammer) {
      // Flood the rejoining node mid-catch-up: junk orphans compete
      // with honest bodies for the pool until the sweep bans the spammer.
      spammer->spam(4, 2 * mainchain::ChainParams{}.max_orphan_blocks);
    }
    std::size_t round = 0;
    while (cluster.nodes[4]->tip() != cluster.nodes[0]->tip()) {
      if (++round > 64) break;
      cluster.nodes[0]->announce_tip();
      cluster.simnet.run_until_idle();
    }
    // Age and judge every orphan suspect so the ban cost is included.
    cluster.simnet.run_until(cluster.simnet.now() +
                             2 * net::kOrphanSuspectGrace);
    cluster.simnet.run_until_idle();
    if (spammer) {
      // A post-judgment probe flood: with the ban in place these are
      // refused at delivery, which is what msgs_refused_banned prices.
      spammer->spam(4, 16);
      cluster.simnet.run_until_idle();
    }
    benchmark::DoNotOptimize(cluster.nodes[4]->tip());
    state.PauseTiming();
    ticks += cluster.simnet.now() - t0;
    delivered += cluster.simnet.stats().delivered - d0;
    banned_msgs += cluster.simnet.stats().banned;
    ++iters;
    state.ResumeTiming();
  }
  state.counters["sim_ticks"] =
      benchmark::Counter(static_cast<double>(ticks) / iters);
  state.counters["msgs_delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / iters);
  state.counters["msgs_refused_banned"] =
      benchmark::Counter(static_cast<double>(banned_msgs) / iters);
  state.SetLabel(std::string(hostile ? "orphan-spammer" : "no-attacker") +
                 " depth=" + std::to_string(depth) + " peers=4");
}
BENCHMARK(BM_HostilePeerOverhead)
    ->Args({0, 256})
    ->Args({1, 256})
    ->Iterations(3);

void BM_LargeClusterGossip(benchmark::State& state) {
  // The tentpole sweep: sustained round-robin mining over a fully
  // connected N-node mesh with tracing off — pure simulator + protocol
  // throughput. `events_per_sec` prices the event loop (calendar queue,
  // flat link tables, hash-once payloads); `blocks_connected` separates
  // useful chain work from gossip amplification, so a relay storm shows
  // up as events growing without blocks following.
  //
  // Third arg: attach a MetricsProbe sampling the whole cluster every
  // 32 ticks. The probe-on/probe-off pair at the same shape (128/30) is
  // the observability-overhead comparison BENCH_net.json carries — the
  // two rows must stay within a few percent of each other.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::uint64_t blocks = static_cast<std::uint64_t>(state.range(1));
  const bool probe_on = state.range(2) != 0;
  std::uint64_t events = 0, connected = 0, samples = 0, iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(n);
    cluster.simnet.set_trace_mode(net::TraceMode::kOff);
    cluster.simnet.set_idle_event_cap(50'000'000);
    auto probe =
        probe_on ? std::make_unique<sim::MetricsProbe>(
                       cluster.simnet, cluster.ptrs(), /*cadence=*/32)
                 : nullptr;
    state.ResumeTiming();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      cluster.nodes[b % n]->mine();
      if (probe != nullptr) {
        // Sample on the cadence only; the final drain snapshots the
        // end state.
        probe->run_until_idle(/*final_sample=*/b + 1 == blocks);
      } else {
        cluster.simnet.run_until_idle();
      }
    }
    benchmark::DoNotOptimize(cluster.nodes[n - 1]->tip());
    state.PauseTiming();
    events += cluster.simnet.stats().events_processed;
    for (auto& node : cluster.nodes) connected += node->height();
    if (probe != nullptr) {
      samples += probe->samples().size();
      probe->write_json("large_cluster_" + std::to_string(n));
    }
    ++iters;
    state.ResumeTiming();
  }
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events) / iters);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["blocks_connected"] =
      benchmark::Counter(static_cast<double>(connected) / iters);
  if (probe_on) {
    state.counters["probe_samples"] =
        benchmark::Counter(static_cast<double>(samples) / iters);
  }
  state.SetLabel("nodes=" + std::to_string(n) +
                 " blocks=" + std::to_string(blocks) +
                 (probe_on ? " probe=on" : " probe=off"));
}
BENCHMARK(BM_LargeClusterGossip)
    ->Args({64, 30, 0})
    ->Args({128, 30, 0})
    ->Args({128, 30, 1})
    ->Args({256, 16, 0})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_PartitionStorm(benchmark::State& state) {
  // Storm variant: repeated half/half partitions with mining on both
  // sides, then heal + re-announce. Stresses the ban/override table
  // churn and the event queue's idle-gap re-anchoring rather than the
  // steady-state relay path.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kCycles = 4;
  std::uint64_t events = 0, connected = 0, iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Cluster cluster(n);
    cluster.simnet.set_trace_mode(net::TraceMode::kOff);
    cluster.simnet.set_idle_event_cap(50'000'000);
    state.ResumeTiming();
    for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
      std::vector<net::NodeId> side_a, side_b;
      for (net::NodeId id = 0; id < n; ++id) {
        ((id + cycle) % 2 == 0 ? side_a : side_b).push_back(id);
      }
      cluster.simnet.partition({{side_a}, {side_b}});
      cluster.nodes[side_a[cycle % side_a.size()]]->mine();
      cluster.nodes[side_b[cycle % side_b.size()]]->mine();
      cluster.simnet.run_until_idle();
      cluster.simnet.heal();
      for (auto& node : cluster.nodes) node->announce_tip();
      cluster.simnet.run_until_idle();
    }
    benchmark::DoNotOptimize(cluster.nodes[n - 1]->tip());
    state.PauseTiming();
    events += cluster.simnet.stats().events_processed;
    for (auto& node : cluster.nodes) connected += node->height();
    ++iters;
    state.ResumeTiming();
  }
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events) / iters);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["blocks_connected"] =
      benchmark::Counter(static_cast<double>(connected) / iters);
  state.SetLabel("nodes=" + std::to_string(n) +
                 " cycles=" + std::to_string(kCycles));
}
BENCHMARK(BM_PartitionStorm)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

ZENDOO_BENCH_MAIN("net");
