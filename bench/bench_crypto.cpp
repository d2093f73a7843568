// Crypto kernel costs: the secp256k1 field arithmetic and the Schnorr
// operations that every movement of value pays for — MC transaction
// inputs, Latus payments and backward transfers (§5.3), the BTR/CSW
// ownership checks (§5.5.3.2/.3) and their re-execution inside the Base
// SNARK prover (Def 2.4) — and the SHA-256 under every authenticated
// structure.
//
// Series: one Fp::mul, one Fp::sqr and one Fp::add (each a dependent
// chain, so it measures latency as the point formulas see it), one
// signature, one verification, one
// crypto::verify_batch over k signatures (BM_SchnorrVerifyBatch/k, with
// its cost per signature as the counter `seconds_per_signature`), one
// verification answered by a warm SignatureMemo (what a Latus node pays to
// re-check a signature it already verified), one keypair derivation, one
// SHA-256 compression through the kernel this process selected (the JSON
// header names it), and one 65-byte Merkle node hash (`hash_pair`, two
// compressions; the unit of every MST and MHT path update).
// Inputs rotate over a seeded pool of 64.
#include "bench_json.hpp"

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/ecc.hpp"
#include "crypto/hash.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature_memo.hpp"

namespace {

using namespace zendoo;
using crypto::Digest;
using crypto::KeyPair;
using crypto::Signature;

constexpr std::size_t kPool = 64;

std::vector<Digest> digests(std::uint64_t seed) {
  crypto::Rng rng(seed);
  std::vector<Digest> out;
  out.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) out.push_back(rng.next_digest());
  return out;
}

std::vector<KeyPair> keys() {
  std::vector<KeyPair> out;
  out.reserve(kPool);
  for (const Digest& seed : digests(1)) out.push_back(KeyPair::from_seed(seed));
  return out;
}

std::vector<crypto::Fp> field_elements() {
  crypto::Rng rng(4);
  std::vector<crypto::Fp> xs;
  xs.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    xs.push_back(crypto::Fp::from(rng.next_u256()));
  }
  return xs;
}

void BM_FpMul(benchmark::State& state) {
  const std::vector<crypto::Fp> xs = field_elements();
  crypto::Fp acc = xs[0];
  std::size_t i = 0;
  for (auto _ : state) {
    acc = acc.mul(xs[i++ % kPool]);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpSqr(benchmark::State& state) {
  crypto::Fp acc = field_elements()[0];
  for (auto _ : state) {
    acc = acc.sqr();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FpSqr);

void BM_FpAdd(benchmark::State& state) {
  const std::vector<crypto::Fp> xs = field_elements();
  crypto::Fp acc = xs[0];
  std::size_t i = 0;
  for (auto _ : state) {
    acc = acc.add(xs[i++ % kPool]);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FpAdd);

void BM_SchnorrSign(benchmark::State& state) {
  const std::vector<KeyPair> ks = keys();
  const std::vector<Digest> msgs = digests(2);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % kPool;
    Signature sig = ks[k].sign(msgs[k]);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_SchnorrSign);

std::vector<Signature> signatures(const std::vector<KeyPair>& ks,
                                  const std::vector<Digest>& msgs) {
  std::vector<Signature> out;
  out.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) out.push_back(ks[i].sign(msgs[i]));
  return out;
}

void BM_SchnorrVerify(benchmark::State& state) {
  const std::vector<KeyPair> ks = keys();
  const std::vector<Digest> msgs = digests(2);
  const std::vector<Signature> sigs = signatures(ks, msgs);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % kPool;
    bool ok = crypto::verify_signature(ks[k].public_key(), msgs[k], sigs[k]);
    benchmark::DoNotOptimize(ok);
    if (!ok) {
      state.SkipWithError("valid signature rejected");
      break;
    }
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_SchnorrVerifyBatch(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::vector<KeyPair> ks = keys();
  const std::vector<Digest> msgs = digests(2);
  const std::vector<Signature> sigs = signatures(ks, msgs);
  std::vector<crypto::SignatureCheck> pool;
  pool.reserve(2 * kPool);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < kPool; ++i) {
      pool.push_back({ks[i].public_key(), msgs[i], sigs[i]});
    }
  }
  // Batches of k consecutive signatures, starting one further each time.
  std::size_t i = 0;
  for (auto _ : state) {
    bool ok = crypto::verify_batch(
        std::span<const crypto::SignatureCheck>(&pool[i++ % kPool], k));
    benchmark::DoNotOptimize(ok);
    if (!ok) {
      state.SkipWithError("valid batch rejected");
      break;
    }
  }
  state.counters["seconds_per_signature"] = benchmark::Counter(
      static_cast<double>(state.iterations() * k),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SchnorrVerifyBatch)->Arg(2)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SchnorrVerifyMemoHit(benchmark::State& state) {
  const std::vector<KeyPair> ks = keys();
  const std::vector<Digest> msgs = digests(2);
  const std::vector<Signature> sigs = signatures(ks, msgs);
  crypto::SignatureMemo memo;
  for (std::size_t k = 0; k < kPool; ++k) {
    if (!memo.verify(ks[k].public_key(), msgs[k], sigs[k])) {
      state.SkipWithError("valid signature rejected");
      return;
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % kPool;
    bool ok = memo.verify(ks[k].public_key(), msgs[k], sigs[k]);
    benchmark::DoNotOptimize(ok);
  }
  if (memo.stats().executed != kPool) {
    state.SkipWithError("a warm memo ran a verification");
  }
}
BENCHMARK(BM_SchnorrVerifyMemoHit);

void BM_KeyFromSeed(benchmark::State& state) {
  const std::vector<Digest> seeds = digests(3);
  std::size_t i = 0;
  for (auto _ : state) {
    KeyPair kp = KeyPair::from_seed(seeds[i++ % kPool]);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_KeyFromSeed);

// A 64-byte update on an empty buffer is exactly one compression; the state
// carries from block to block.
void BM_Sha256Block(benchmark::State& state) {
  crypto::Rng rng(5);
  std::vector<std::uint8_t> blocks(kPool * 64);
  for (std::uint8_t& b : blocks) b = static_cast<std::uint8_t>(rng.next_u64());
  crypto::Sha256 sha;
  std::size_t i = 0;
  for (auto _ : state) {
    sha.update(std::span<const std::uint8_t>(&blocks[64 * (i++ % kPool)], 64));
    benchmark::DoNotOptimize(sha);
  }
}
BENCHMARK(BM_Sha256Block);

// A dependent chain, as a path rehash runs.
void BM_HashPair(benchmark::State& state) {
  const std::vector<Digest> siblings = digests(6);
  Digest acc = siblings[0];
  std::size_t i = 0;
  for (auto _ : state) {
    acc = crypto::hash_pair(crypto::Domain::kMerkleNode, acc,
                            siblings[i++ % kPool]);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HashPair);

}  // namespace

ZENDOO_BENCH_MAIN("crypto");
