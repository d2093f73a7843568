// Recursive SNARK composition over sidechain transitions — the Fig. 10
// (per block) and Fig. 11 (per epoch) merge trees.
//
// Series: epoch proof generation vs number of transactions (n base proofs
// + n-1 merges, depth ceil(log2 n)); two-level block/epoch composition vs
// flat; verification constant regardless of chain length; proof size
// constant (32 bytes).
#include "bench_json.hpp"

#include "crypto/rng.hpp"
#include "snark/recursive.hpp"

namespace {

using namespace zendoo;
using snark::Proof;
using snark::RecursionStats;
using snark::TransitionProofSystem;
using snark::TransitionStep;

// Counter transition system (same shape as the unit tests use): cheap
// checker so the measured cost is the recursion framework itself.
crypto::Digest counter_state(std::uint64_t v) {
  return crypto::Hasher(crypto::Domain::kStateCommitment)
      .write_u64(v)
      .finalize();
}

struct Step {
  std::uint64_t from;
};

snark::TransitionChecker counter_checker() {
  return [](const crypto::Digest& before, const crypto::Digest& after,
            const std::any& t) {
    const auto* s = std::any_cast<Step>(&t);
    if (s == nullptr) return false;
    return counter_state(s->from) == before &&
           counter_state(s->from + 1) == after;
  };
}

std::vector<TransitionStep> make_steps(std::size_t n) {
  std::vector<TransitionStep> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    steps.push_back({counter_state(i), counter_state(i + 1), Step{i}});
  }
  return steps;
}

void BM_EpochProofGeneration(benchmark::State& state) {
  TransitionProofSystem sys(counter_checker(), "bench-epoch");
  auto steps = make_steps(static_cast<std::size_t>(state.range(0)));
  RecursionStats stats;
  for (auto _ : state) {
    stats = RecursionStats{};
    Proof p = sys.prove_chain(steps, &stats);
    benchmark::DoNotOptimize(p);
  }
  state.counters["base_proofs"] = static_cast<double>(stats.base_proofs);
  state.counters["merge_proofs"] = static_cast<double>(stats.merge_proofs);
  state.counters["tree_depth"] = static_cast<double>(stats.depth);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EpochProofGeneration)
    ->RangeMultiplier(2)
    ->Range(1, 512)
    ->Complexity();

void BM_TwoLevelBlockEpochComposition(benchmark::State& state) {
  // Fig. 10 then Fig. 11: group transitions into blocks of 8, prove each
  // block, then merge block proofs into the epoch proof.
  TransitionProofSystem sys(counter_checker(), "bench-two-level");
  auto steps = make_steps(static_cast<std::size_t>(state.range(0)));
  const std::size_t kBlock = 8;
  for (auto _ : state) {
    std::vector<TransitionProofSystem::ProvenSpan> blocks;
    for (std::size_t i = 0; i < steps.size(); i += kBlock) {
      std::size_t end = std::min(i + kBlock, steps.size());
      std::vector<TransitionStep> blk(steps.begin() + static_cast<long>(i),
                                      steps.begin() + static_cast<long>(end));
      blocks.push_back(
          {blk.front().before, blk.back().after, sys.prove_chain(blk)});
    }
    Proof epoch = sys.merge_spans(blocks);
    benchmark::DoNotOptimize(epoch);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TwoLevelBlockEpochComposition)
    ->RangeMultiplier(4)
    ->Range(8, 512)
    ->Complexity();

void BM_EpochProofVerify(benchmark::State& state) {
  // Verification must be O(1) in the number of proven transitions — the
  // property that makes the whole design viable for the mainchain.
  TransitionProofSystem sys(counter_checker(), "bench-verify");
  auto steps = make_steps(static_cast<std::size_t>(state.range(0)));
  Proof p = sys.prove_chain(steps);
  crypto::Digest s0 = steps.front().before;
  crypto::Digest s1 = steps.back().after;
  for (auto _ : state) {
    bool ok = sys.verify(s0, s1, p);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["proof_bytes"] = sizeof(p.binding);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EpochProofVerify)
    ->RangeMultiplier(4)
    ->Range(1, 512)
    ->Complexity();

void BM_SequentialMergeAblation(benchmark::State& state) {
  // Ablation for the balanced merge-tree choice: merging proofs
  // left-to-right (a linear chain) instead of as a balanced tree. Same
  // total merge count (n-1) but recursion depth n-1 instead of log2 n — in
  // a real recursive SNARK each level adds a verifier circuit, so depth is
  // the critical measure; here the counters expose it.
  TransitionProofSystem sys(counter_checker(), "bench-seq-merge");
  auto steps = make_steps(static_cast<std::size_t>(state.range(0)));
  std::size_t depth = 0;
  for (auto _ : state) {
    std::vector<TransitionProofSystem::ProvenSpan> spans;
    for (const TransitionStep& s : steps) {
      spans.push_back(
          {s.before, s.after, sys.prove_base(s.before, s.after, s.transition)});
    }
    TransitionProofSystem::ProvenSpan acc = spans.front();
    depth = 0;
    for (std::size_t i = 1; i < spans.size(); ++i) {
      Proof merged = sys.prove_merge(acc.before, spans[i].after, acc.after,
                                     acc.proof, spans[i].proof);
      acc = {acc.before, spans[i].after, merged};
      ++depth;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["recursion_depth"] = static_cast<double>(depth);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SequentialMergeAblation)
    ->RangeMultiplier(4)
    ->Range(2, 512)
    ->Complexity();

}  // namespace

ZENDOO_BENCH_MAIN("recursive");
