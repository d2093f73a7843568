// Parallel validation pipeline: blocks/sec of ChainState::connect_block on
// proof-heavy blocks as a function of verification threads and per-block
// check count, plus the dry_run→connect dedup the shared verified-check
// cache buys (the mempool-probe-then-connect flow).
//
// Thread argument T = total verifying threads (the control thread joins
// the pool, so T maps to worker_threads = T-1); T=1 runs the batch on the
// caller alone. The cache is disabled for the raw sweeps so repeated
// iterations re-verify every check.
#include "bench_json.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mainchain/chain.hpp"

namespace {

using namespace zendoo;
using namespace zendoo::mainchain;

constexpr std::uint64_t kSegmentBlocks = 8;
constexpr std::uint64_t kCswsPerBlock = 4;
constexpr Amount kFtAmount = 10'000'000;

/// A deterministic chain whose tail is `kSegmentBlocks` proof-heavy
/// blocks: `sigs` single-input payments (one signature check each), one
/// withdrawal certificate (SNARK check) for a live sidechain and
/// `kCswsPerBlock` CSWs (SNARK checks) against a ceased one. Blocks are
/// connected via ChainState, which does not check PoW, so no mining.
struct ProofHeavySetup {
  ChainParams params;
  std::vector<Block> blocks;       ///< genesis first
  std::size_t segment_begin = 0;   ///< index of the first proof-heavy block
  std::size_t checks_per_block = 0;

  static const ProofHeavySetup& with_sigs(std::uint64_t sigs) {
    static std::map<std::uint64_t, ProofHeavySetup> cache;
    auto it = cache.find(sigs);
    if (it == cache.end()) it = cache.emplace(sigs, ProofHeavySetup(sigs)).first;
    return it->second;
  }

  /// Replays the non-timed part of the chain into a fresh state.
  [[nodiscard]] ChainState make_prefix_state(
      const parallel::ValidationConfig& config) const {
    ChainParams p = params;
    p.validation = config;
    ChainState state(p);
    for (std::size_t i = 0; i < segment_begin; ++i) {
      if (std::string err = state.connect_block(blocks[i]); !err.empty()) {
        throw std::logic_error("bench: prefix replay failed: " + err);
      }
    }
    return state;
  }

 private:
  explicit ProofHeavySetup(std::uint64_t sigs) { build(sigs); }

  static Block begin_block(const ChainState& st, const Address& addr,
                           Amount subsidy) {
    Block b;
    b.header.prev_hash = st.tip_hash();
    b.header.height = st.height() + 1;
    Transaction cb;
    cb.is_coinbase = true;
    cb.coinbase_height = b.header.height;
    cb.outputs.push_back(TxOutput{addr, subsidy});
    b.transactions.push_back(std::move(cb));
    return b;
  }

  void seal(ChainState& st, Block& b) {
    b.header.tx_merkle_root = b.compute_tx_merkle_root();
    b.header.sc_txs_commitment = b.build_commitment_tree().root();
    if (std::string err = st.connect_block(b); !err.empty()) {
      throw std::logic_error("bench: setup block rejected: " + err);
    }
    blocks.push_back(b);
  }

  void build(std::uint64_t sigs) {
    auto key = crypto::KeyPair::from_seed(
        crypto::hash_str(crypto::Domain::kGeneric, "bench-validation-key"));
    auto always_true = [](const snark::Statement&, const snark::Witness&) {
      return true;
    };
    auto [wcert_pk, wcert_vk] =
        snark::PredicateSnark::setup(always_true, "bench-validation-wcert");
    auto [csw_pk, csw_vk] =
        snark::PredicateSnark::setup(always_true, "bench-validation-csw");

    // Live sidechain: 2-block epochs, a full submission window — every
    // segment height falls in some epoch's window, so each block carries
    // one certificate. CSW sidechain: never certifies, so it ceases when
    // its first window closes at height 6, just before the segment.
    SidechainParams live_sc;
    live_sc.ledger_id =
        crypto::hash_str(crypto::Domain::kGeneric, "bench-live-sc");
    live_sc.start_block = 4;
    live_sc.epoch_len = 2;
    live_sc.submit_len = 2;
    live_sc.wcert_vk = wcert_vk;

    SidechainParams csw_sc;
    csw_sc.ledger_id =
        crypto::hash_str(crypto::Domain::kGeneric, "bench-csw-sc");
    csw_sc.start_block = 2;
    csw_sc.epoch_len = 2;
    csw_sc.submit_len = 2;
    csw_sc.csw_vk = csw_vk;

    ChainState builder(params);

    Block genesis;
    genesis.header.height = 0;
    genesis.header.tx_merkle_root = genesis.compute_tx_merkle_root();
    genesis.header.sc_txs_commitment = genesis.build_commitment_tree().root();
    if (std::string err = builder.connect_block(genesis); !err.empty()) {
      throw std::logic_error("bench: genesis rejected: " + err);
    }
    blocks.push_back(genesis);

    // h1: register both sidechains; coinbase funds the fan-out.
    Block b1 = begin_block(builder, key.address(), params.block_subsidy);
    b1.sidechain_creations = {live_sc, csw_sc};
    seal(builder, b1);

    // h2: fan the h1 coinbase out into `sigs` equal outputs and forward
    // kFtAmount to the CSW sidechain while it is still active.
    Amount out_amount = (params.block_subsidy - kFtAmount) / sigs;
    Transaction fanout;
    fanout.inputs.push_back(
        TxInput{OutPoint{b1.transactions[0].id(), 0}, {}, {}});
    for (std::uint64_t j = 0; j < sigs; ++j) {
      fanout.outputs.push_back(TxOutput{key.address(), out_amount});
    }
    fanout.forward_transfers.push_back(
        ForwardTransferOutput{csw_sc.ledger_id,
                              {key.address(), key.address()},
                              kFtAmount});
    fanout = sign_all_inputs(std::move(fanout), key);
    Digest fanout_id = fanout.id();
    Block b2 = begin_block(builder, key.address(), params.block_subsidy);
    b2.transactions.push_back(std::move(fanout));
    seal(builder, b2);

    // h3..h5: empty blocks until the CSW sidechain's first window closes.
    for (std::uint64_t h = 3; h <= 5; ++h) {
      Block b = begin_block(builder, key.address(), params.block_subsidy);
      seal(builder, b);
    }
    segment_begin = blocks.size();

    // h6..: proof-heavy segment. Each block respends the previous
    // generation of outputs (sigs signature checks), carries the epoch's
    // certificate and kCswsPerBlock withdrawals from the ceased chain.
    std::vector<Digest> prev_txids(sigs, fanout_id);
    bool fanout_generation = true;
    for (std::uint64_t s = 0; s < kSegmentBlocks; ++s) {
      Block b = begin_block(builder, key.address(), params.block_subsidy);
      std::uint64_t h = b.header.height;
      for (std::uint64_t j = 0; j < sigs; ++j) {
        Transaction t;
        std::uint32_t out_index =
            fanout_generation ? static_cast<std::uint32_t>(j) : 0;
        t.inputs.push_back(TxInput{OutPoint{prev_txids[j], out_index}, {}, {}});
        t.outputs.push_back(TxOutput{key.address(), out_amount});
        t = sign_all_inputs(std::move(t), key);
        prev_txids[j] = t.id();
        b.transactions.push_back(std::move(t));
      }
      fanout_generation = false;

      WithdrawalCertificate cert;
      cert.ledger_id = live_sc.ledger_id;
      cert.epoch_id = (h - 6) / 2;
      cert.quality = h;
      auto [prev_last, last] =
          builder.epoch_boundary_hashes(live_sc, cert.epoch_id);
      snark::Statement st = wcert_statement_for(cert, prev_last, last);
      cert.proof = *snark::PredicateSnark::prove(wcert_pk, st, snark::Witness{});
      b.certificates.push_back(std::move(cert));

      for (std::uint64_t j = 0; j < kCswsPerBlock; ++j) {
        CeasedSidechainWithdrawal csw;
        csw.ledger_id = csw_sc.ledger_id;
        csw.receiver = key.address();
        csw.amount = 1;
        csw.nullifier = crypto::Hasher(crypto::Domain::kGeneric)
                            .write_u64(h)
                            .write_u64(j)
                            .finalize();
        snark::Statement st_csw =
            csw_statement(Digest{}, csw.nullifier, csw.receiver, csw.amount,
                          csw.proofdata_root());
        csw.proof =
            *snark::PredicateSnark::prove(csw_pk, st_csw, snark::Witness{});
        b.csws.push_back(std::move(csw));
      }
      seal(builder, b);
    }
    checks_per_block = sigs + 1 + kCswsPerBlock;
  }
};

/// `threads` >= 1 total verifying threads: the caller plus threads-1
/// workers.
parallel::ValidationConfig config_for_threads(std::int64_t threads,
                                              std::size_t cache_capacity) {
  return {static_cast<unsigned>(threads - 1), cache_capacity};
}

/// Raw connect throughput: Args = {total verifying threads, signature
/// checks per block}. Cache disabled.
void BM_ConnectProofHeavy(benchmark::State& state) {
  const auto& setup =
      ProofHeavySetup::with_sigs(static_cast<std::uint64_t>(state.range(1)));
  auto config = config_for_threads(state.range(0), /*cache_capacity=*/0);
  std::uint64_t blocks_connected = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ChainState chain_state = setup.make_prefix_state(config);
    state.ResumeTiming();
    for (std::size_t i = setup.segment_begin; i < setup.blocks.size(); ++i) {
      if (std::string err = chain_state.connect_block(setup.blocks[i]);
          !err.empty()) {
        throw std::logic_error("bench: segment block rejected: " + err);
      }
    }
    blocks_connected += kSegmentBlocks;
    benchmark::DoNotOptimize(chain_state.height());
  }
  state.counters["blocks_per_sec"] = benchmark::Counter(
      static_cast<double>(blocks_connected), benchmark::Counter::kIsRate);
  state.counters["checks_per_sec"] = benchmark::Counter(
      static_cast<double>(blocks_connected * setup.checks_per_block),
      benchmark::Counter::kIsRate);
  state.counters["checks_per_block"] =
      benchmark::Counter(static_cast<double>(setup.checks_per_block));
}
BENCHMARK(BM_ConnectProofHeavy)
    ->ArgNames({"threads", "sigs"})
    // Thread sweep at a fixed proof load.
    ->Args({1, 24})
    ->Args({2, 24})
    ->Args({4, 24})
    ->Args({8, 24})
    // Proof-count sweep at a fixed thread count.
    ->Args({4, 8})
    ->Args({4, 48})
    // Wall-clock rates: worker threads burn the CPU time, so a
    // CPU-time-based rate would overstate multi-thread throughput.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The probe-then-connect flow: dry_run each block, then connect it. With
/// the shared verified-check cache (Arg 1) the connect re-verifies
/// nothing; without it (Arg 0) every check is paid twice.
void BM_DryRunThenConnect(benchmark::State& state) {
  const auto& setup = ProofHeavySetup::with_sigs(24);
  bool cached = state.range(0) != 0;
  auto config =
      config_for_threads(/*threads=*/1, cached ? (std::size_t{1} << 16) : 0);
  std::uint64_t blocks_connected = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ChainState chain_state = setup.make_prefix_state(config);
    state.ResumeTiming();
    for (std::size_t i = setup.segment_begin; i < setup.blocks.size(); ++i) {
      if (std::string err = chain_state.dry_run(setup.blocks[i]);
          !err.empty()) {
        throw std::logic_error("bench: dry_run rejected: " + err);
      }
      if (std::string err = chain_state.connect_block(setup.blocks[i]);
          !err.empty()) {
        throw std::logic_error("bench: connect rejected: " + err);
      }
    }
    blocks_connected += kSegmentBlocks;
    benchmark::DoNotOptimize(chain_state.height());
  }
  state.counters["blocks_per_sec"] = benchmark::Counter(
      static_cast<double>(blocks_connected), benchmark::Counter::kIsRate);
  state.SetLabel(cached ? "shared_cache" : "no_cache");
}
BENCHMARK(BM_DryRunThenConnect)
    ->ArgNames({"cache"})
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

ZENDOO_BENCH_MAIN("validation");
