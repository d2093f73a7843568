// SCTxsCommitment tree costs — Figs. 4/12.
//
// Series: commitment build vs #sidechains and #txs per sidechain;
// membership proof (mproof) and proof-of-no-data generation/verification.
#include "bench_json.hpp"

#include "crypto/rng.hpp"
#include "merkle/commitment.hpp"

namespace {

using namespace zendoo;
using merkle::ScTxCommitmentTree;

ScTxCommitmentTree make_tree(std::size_t sidechains, std::size_t txs_each) {
  crypto::Rng rng(sidechains * 1000 + txs_each);
  ScTxCommitmentTree tree;
  for (std::size_t s = 0; s < sidechains; ++s) {
    auto id = crypto::Hasher(crypto::Domain::kGeneric)
                  .write_u64(s)
                  .finalize();
    for (std::size_t t = 0; t < txs_each; ++t) {
      tree.add_forward_transfer(id, rng.next_digest());
    }
    if (s % 2 == 0) tree.set_wcert(id, rng.next_digest());
  }
  return tree;
}

void BM_CommitmentBuild(benchmark::State& state) {
  std::size_t scs = static_cast<std::size_t>(state.range(0));
  std::size_t txs = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto tree = make_tree(scs, txs);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_CommitmentBuild)
    ->Args({1, 8})
    ->Args({8, 8})
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({8, 1})
    ->Args({8, 64})
    ->Args({8, 512});

void BM_CommitmentMproof(benchmark::State& state) {
  std::size_t scs = static_cast<std::size_t>(state.range(0));
  auto tree = make_tree(scs, 8);
  auto id = crypto::Hasher(crypto::Domain::kGeneric).write_u64(0).finalize();
  for (auto _ : state) {
    auto proof = tree.prove_membership(id);
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_CommitmentMproof)->RangeMultiplier(4)->Range(1, 256);

void BM_CommitmentMproofVerify(benchmark::State& state) {
  std::size_t scs = static_cast<std::size_t>(state.range(0));
  auto tree = make_tree(scs, 8);
  auto id = crypto::Hasher(crypto::Domain::kGeneric).write_u64(0).finalize();
  auto root = tree.root();
  auto proof = tree.prove_membership(id);
  for (auto _ : state) {
    bool ok = ScTxCommitmentTree::verify_membership(root, id, proof);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CommitmentMproofVerify)->RangeMultiplier(4)->Range(1, 256);

void BM_CommitmentAbsence(benchmark::State& state) {
  std::size_t scs = static_cast<std::size_t>(state.range(0));
  auto tree = make_tree(scs, 8);
  auto absent = crypto::hash_str(crypto::Domain::kGeneric, "not-present");
  auto root = tree.root();
  for (auto _ : state) {
    auto proof = tree.prove_absence(absent);
    bool ok = ScTxCommitmentTree::verify_absence(root, absent, proof);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_CommitmentAbsence)->RangeMultiplier(4)->Range(1, 256);

}  // namespace

ZENDOO_BENCH_MAIN("commitment");
