// Ouroboros-style slot-leader selection — the Fig. 5 epoch/slot machinery.
//
// Series: single-slot selection vs stakeholder count (O(log n) after the
// prefix-sum build), full epoch schedule, stake snapshot construction, and
// a leader-share distribution counter confirming selection is
// stake-proportional.
#include "bench_json.hpp"

#include "crypto/rng.hpp"
#include "latus/consensus.hpp"

namespace {

using namespace zendoo;
using latus::Address;
using latus::Amount;
using latus::StakeDistribution;

std::vector<std::pair<Address, Amount>> stakes_for(std::size_t n) {
  crypto::Rng rng(n);
  std::vector<std::pair<Address, Amount>> stakes;
  stakes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stakes.emplace_back(rng.next_digest(), 1 + rng.next_below(10'000));
  }
  return stakes;
}

void BM_StakeDistributionBuild(benchmark::State& state) {
  auto stakes = stakes_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    StakeDistribution d(stakes);
    benchmark::DoNotOptimize(d.total());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StakeDistributionBuild)
    ->RangeMultiplier(8)
    ->Range(8, 32768)
    ->Complexity();

void BM_SlotLeaderSelect(benchmark::State& state) {
  StakeDistribution d(stakes_for(static_cast<std::size_t>(state.range(0))));
  auto rand = crypto::hash_str(crypto::Domain::kEpochRandomness, "bench");
  std::uint64_t slot = 0;
  for (auto _ : state) {
    Address leader = latus::select_slot_leader(d, rand, 1, slot++);
    benchmark::DoNotOptimize(leader);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SlotLeaderSelect)
    ->RangeMultiplier(8)
    ->Range(8, 32768)
    ->Complexity();

void BM_EpochSchedule(benchmark::State& state) {
  StakeDistribution d(stakes_for(1024));
  auto rand = crypto::hash_str(crypto::Domain::kEpochRandomness, "bench");
  std::uint64_t slots = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto schedule = latus::slot_schedule(d, rand, 2, slots);
    benchmark::DoNotOptimize(schedule);
  }
}
BENCHMARK(BM_EpochSchedule)->RangeMultiplier(4)->Range(16, 4096);

void BM_LeaderShareFairness(benchmark::State& state) {
  // Not a timing series: reports the selection share of a 25%-stake
  // holder over many slots (expected counter value ~0.25).
  std::vector<std::pair<Address, Amount>> stakes = {
      {crypto::hash_str(crypto::Domain::kAddress, "quarter"), 2500},
      {crypto::hash_str(crypto::Domain::kAddress, "rest"), 7500},
  };
  StakeDistribution d(stakes);
  auto rand = crypto::hash_str(crypto::Domain::kEpochRandomness, "fair");
  std::size_t hits = 0, total = 0;
  for (auto _ : state) {
    Address leader = latus::select_slot_leader(d, rand, 0, total);
    hits += leader == stakes[0].first ? 1 : 0;
    ++total;
    benchmark::DoNotOptimize(leader);
  }
  state.counters["quarter_share"] =
      total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0;
}
BENCHMARK(BM_LeaderShareFairness)->Iterations(20000);

}  // namespace

ZENDOO_BENCH_MAIN("consensus");
