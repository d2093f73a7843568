// Def 2.3 succinctness, on the simulated proving system.
//
// Series: R1CS satisfiability checking / Prove time vs constraint count
// (linear — the prover must evaluate the whole circuit) and Verify time vs
// constraint count (constant — succinctness), plus constant proof size.
#include "bench_json.hpp"

#include <memory>

#include "snark/snark.hpp"

namespace {

using namespace zendoo;
using snark::ConstraintSystem;
using snark::R1csSnark;
using snark::u256;

/// Chain of n squarings: out = x^(2^n); n constraints.
struct SquareChain {
  std::shared_ptr<ConstraintSystem> cs = std::make_shared<ConstraintSystem>();
  std::vector<u256> public_input;
  std::vector<u256> witness;

  explicit SquareChain(std::size_t n) {
    std::uint32_t out = cs->allocate_public();
    std::uint32_t cur = cs->allocate_witness();
    u256 val{3};
    witness.push_back(val);
    for (std::size_t i = 0; i < n; ++i) {
      cur = cs->mul(cur, cur);
      val = snark::fmul(val, val);
      witness.push_back(val);
    }
    cs->enforce_equal(cur, out);
    public_input.push_back(val);
  }
};

void BM_SnarkProve(benchmark::State& state) {
  SquareChain chain(static_cast<std::size_t>(state.range(0)));
  auto [pk, vk] = R1csSnark::setup(
      chain.cs, "bench-square-" + std::to_string(state.range(0)));
  for (auto _ : state) {
    auto proof = R1csSnark::prove(pk, chain.public_input, chain.witness);
    benchmark::DoNotOptimize(proof);
  }
  state.counters["constraints"] =
      static_cast<double>(chain.cs->num_constraints());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SnarkProve)
    ->RangeMultiplier(4)
    ->Range(16, 16384)
    ->Complexity();

void BM_SnarkVerify(benchmark::State& state) {
  SquareChain chain(static_cast<std::size_t>(state.range(0)));
  auto [pk, vk] = R1csSnark::setup(
      chain.cs, "bench-square-v-" + std::to_string(state.range(0)));
  auto proof = *R1csSnark::prove(pk, chain.public_input, chain.witness);
  for (auto _ : state) {
    bool ok = R1csSnark::verify(vk, chain.public_input, proof);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["constraints"] =
      static_cast<double>(chain.cs->num_constraints());
  state.counters["proof_bytes"] = sizeof(proof.binding);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SnarkVerify)
    ->RangeMultiplier(4)
    ->Range(16, 16384)
    ->Complexity();

void BM_SnarkSetup(benchmark::State& state) {
  SquareChain chain(static_cast<std::size_t>(state.range(0)));
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto keys = R1csSnark::setup(
        chain.cs, "bench-setup-" + std::to_string(state.range(0)) + "-" +
                      std::to_string(i++));
    benchmark::DoNotOptimize(keys);
  }
}
BENCHMARK(BM_SnarkSetup)->RangeMultiplier(16)->Range(16, 4096);

}  // namespace

ZENDOO_BENCH_MAIN("snark");
