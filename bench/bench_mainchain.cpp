// Mainchain-side costs of the CCTP — the Fig. 3 withdrawal-epoch machinery
// plus ordinary block processing.
//
// Series: block validation/connection vs payment count (signature-bound),
// block assembly vs payment count with a warm verified-check cache,
// epoch bookkeeping (finalization sweep) vs number of registered
// sidechains, and PoW mining cost at the simulation target.
#include "bench_json.hpp"

#include "mainchain/miner.hpp"

namespace {

using namespace zendoo;
using namespace zendoo::mainchain;

crypto::KeyPair key_of(const char* name) {
  return crypto::KeyPair::from_seed(
      crypto::hash_str(crypto::Domain::kGeneric, name));
}

/// Mines `n` blocks to `key` and returns a mempool of `n` independent
/// single-input payments, one spending each of their coinbases.
Mempool payments_pool(Blockchain& chain, const crypto::KeyPair& key,
                      std::size_t n) {
  Miner(chain, key.address()).mine_empty(n);
  Mempool pool;
  for (const auto& [op, out] : chain.state().utxos_of(key.address())) {
    Transaction tx;
    tx.inputs.push_back(TxInput{op, {}, {}});
    tx.outputs.push_back(TxOutput{key.address(), out.amount});
    pool.transactions.push_back(sign_all_inputs(std::move(tx), key));
  }
  return pool;
}

void BM_BlockConnectPayments(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  auto miner_key = key_of("miner");
  Blockchain chain{ChainParams{}};
  Miner miner(chain, miner_key.address());
  Mempool pool = payments_pool(chain, miner_key, n);
  Block block = miner.build_block(pool);
  for (auto _ : state) {
    ChainState s = chain.state();
    std::string err = s.connect_block(block);
    benchmark::DoNotOptimize(err);
  }
  state.counters["txs"] = static_cast<double>(pool.transactions.size());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BlockConnectPayments)
    ->RangeMultiplier(2)
    ->Range(1, 32)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_BuildBlock(benchmark::State& state) {
  // Assembly of k signed payments whose signatures the verified-check
  // cache already holds (the first build fills it), so each build prices
  // the assembler's own work. Per-build counters: cache_hits is 3k, k for
  // the batch over every mempool signature, k for the item pass and k for
  // the final dry_run (k(k+1)/2 for the greedy assembler's k dry runs over
  // growing blocks); checks_executed is 0 once the cache is warm.
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  auto miner_key = key_of("miner");
  Blockchain chain{ChainParams{}};
  Miner miner(chain, miner_key.address());
  Mempool pool = payments_pool(chain, miner_key, k);
  benchmark::DoNotOptimize(miner.build_block(pool));
  const parallel::ValidationContext& ctx = *chain.state().validation_context();
  const parallel::ValidationStats before = ctx.stats();
  for (auto _ : state) {
    Block block = miner.build_block(pool);
    benchmark::DoNotOptimize(block);
  }
  const parallel::ValidationStats after = ctx.stats();
  const auto builds = static_cast<double>(state.iterations());
  state.counters["cache_hits"] =
      static_cast<double>(after.cache_hits - before.cache_hits) / builds;
  state.counters["checks_executed"] =
      static_cast<double>(after.checks_executed - before.checks_executed) /
      builds;
  state.counters["txs"] = static_cast<double>(k);
}
BENCHMARK(BM_BuildBlock)->Arg(8)->Arg(32)->Arg(128)->Unit(
    benchmark::kMillisecond);

void BM_EpochFinalizationSweep(benchmark::State& state) {
  // Cost of the per-block epoch bookkeeping as sidechain count grows.
  std::size_t n_sc = static_cast<std::size_t>(state.range(0));
  auto miner_key = key_of("miner");
  Blockchain chain{ChainParams{}};
  Miner miner(chain, miner_key.address());
  Mempool pool;
  for (std::size_t i = 0; i < n_sc; ++i) {
    SidechainParams p;
    p.ledger_id =
        crypto::Hasher(crypto::Domain::kGeneric).write_u64(i).finalize();
    p.start_block = 2;
    p.epoch_len = 4;
    p.submit_len = 2;
    // Null wcert key: they will all cease, exercising the sweep fully.
    pool.sidechain_creations.push_back(p);
  }
  Block out;
  auto r = miner.mine_and_submit(pool, &out);
  if (!r.accepted()) state.SkipWithError("setup failed");
  Block next = miner.build_block({});
  for (auto _ : state) {
    ChainState s = chain.state();
    std::string err = s.connect_block(next);
    benchmark::DoNotOptimize(err);
  }
  state.counters["sidechains"] = static_cast<double>(n_sc);
}
BENCHMARK(BM_EpochFinalizationSweep)->RangeMultiplier(4)->Range(1, 256);

void BM_PowMining(benchmark::State& state) {
  auto miner_key = key_of("miner");
  Blockchain chain{ChainParams{}};
  Miner miner(chain, miner_key.address());
  Block block = miner.build_block({});
  std::uint64_t salt = 0;
  for (auto _ : state) {
    // Vary the coinbase so every iteration mines a different block.
    block.transactions[0].coinbase_height = 1;
    block.transactions[0].outputs[0].amount = 1'000'000 + (salt++ % 1000);
    block.header.tx_merkle_root = block.compute_tx_merkle_root();
    Miner::solve_pow(block, chain.params().pow_target);
    benchmark::DoNotOptimize(block.header.nonce);
  }
}
BENCHMARK(BM_PowMining);

}  // namespace

ZENDOO_BENCH_MAIN("mainchain");
