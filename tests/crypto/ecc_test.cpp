#include "crypto/ecc.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/rng.hpp"

namespace zendoo::crypto {
namespace {

TEST(Fp, AddSubInverse) {
  Fp a = Fp::from(u256{123456789});
  Fp b = Fp::from(u256{987654321});
  EXPECT_EQ(a.add(b).sub(b), a);
  EXPECT_EQ(a.sub(b).add(b), a);
}

TEST(Fp, MulByInverseIsOne) {
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    Fp a = Fp::from(rng.next_u256());
    if (a.is_zero()) continue;
    EXPECT_EQ(a.mul(a.inv()), Fp::one());
  }
}

TEST(Fp, NegIsAdditiveInverse) {
  Fp a = Fp::from(u256{42});
  EXPECT_TRUE(a.add(a.neg()).is_zero());
  EXPECT_TRUE(Fp::zero().neg().is_zero());
}

TEST(Fp, InvZeroThrows) {
  EXPECT_THROW((void)Fp::zero().inv(), std::invalid_argument);
}

TEST(Fp, FastReductionMatchesGenericMulmod) {
  Rng rng(37);
  for (int i = 0; i < 20; ++i) {
    u256 a = rng.next_u256().mod(secp256k1::kP);
    u256 b = rng.next_u256().mod(secp256k1::kP);
    EXPECT_EQ(Fp{a}.mul(Fp{b}).v, u256::mulmod(a, b, secp256k1::kP));
  }
  // Edge values, p = 2^256 - kC: near-p operands fold a carry limb close
  // to kC a second time and wrap past 2^256, which random operands almost
  // never do.
  const u256& p = secp256k1::kP;
  const u256 kc{0x1000003D1ULL};
  const u256 edges[] = {u256{},           u256{1},
                        u256{2},          p - u256{1},
                        p - u256{2},      kc,
                        p - kc,           u256{1} << 255,
                        kc - u256{1}};  // (2^256 - 1) mod p
  for (const u256& a : edges) {
    for (const u256& b : edges) {
      EXPECT_EQ(Fp{a}.mul(Fp{b}).v, u256::mulmod(a, b, p))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST(Fp, FromReducesModP) {
  const u256& p = secp256k1::kP;
  Rng rng(41);
  std::vector<u256> values{u256{}, u256{1}, p - u256{1}, p, p + u256{1},
                           u256{} - u256{1}};
  for (int i = 0; i < 100; ++i) values.push_back(rng.next_u256());
  for (const u256& x : values) {
    EXPECT_EQ(Fp::from(x).v, x.mod(p)) << x.to_hex();
  }
}

TEST(Fp, InvMatchesFermatPowmod) {
  // The addition chain computes v^(p-2), the value of square-and-multiply.
  const u256& p = secp256k1::kP;
  const u256 kc{0x1000003D1ULL};
  std::vector<u256> values{u256{1}, u256{2}, p - u256{1}, p - u256{2}, kc,
                           u256{1} << 255};
  Rng rng(43);
  while (values.size() < 1'006) {
    u256 v = Fp::from(rng.next_u256()).v;
    if (!v.is_zero()) values.push_back(v);
  }
  const u256 exponent = p - u256{2};
  for (const u256& v : values) {
    EXPECT_EQ(Fp{v}.inv().v, u256::powmod(v, exponent, p)) << v.to_hex();
  }
}

// ---- The field kernel against the generic u256 arithmetic ----

/// Operands at the edges of the kernel's carries: among their pairs are
/// sums equal to p, one past it and equal to 2^256 - 1, and differences
/// that borrow.
std::vector<u256> field_edges() {
  const u256& p = secp256k1::kP;
  const u256 one{1};
  const u256 kc{0x1000003D1ULL};
  return {u256{},           one,
          u256{2},          kc - one,
          kc,               u256{~0ULL},
          (one << 128) - one, (one << 255) - one,
          one << 255,       p - (one << 64),
          p - kc,           p - u256{2},
          p - one};
}

/// add, sub, mul, sqr and neg on (a, b) against addmod, submod and mulmod.
void expect_kernel_matches_generic(const u256& a, const u256& b) {
  const u256& p = secp256k1::kP;
  const Fp fa{a}, fb{b};
  SCOPED_TRACE(a.to_hex() + ", " + b.to_hex());
  ASSERT_EQ(fa.add(fb).v, u256::addmod(a, b, p));
  ASSERT_EQ(fa.sub(fb).v, u256::submod(a, b, p));
  ASSERT_EQ(fa.mul(fb).v, u256::mulmod(a, b, p));
  ASSERT_EQ(fa.sqr().v, u256::mulmod(a, a, p));
  ASSERT_EQ(fa.sqr(), fa.mul(fa));
  ASSERT_TRUE(fa.add(fa.neg()).is_zero());
  ASSERT_EQ(fa.neg().v, u256::submod(u256{}, a, p));
}

TEST(Fp, KernelMatchesGenericArithmeticOnSeededPairs) {
  Rng rng(67);
  for (int i = 0; i < 10'000; ++i) {
    const u256 a = Fp::from(rng.next_u256()).v;
    const u256 b = Fp::from(rng.next_u256()).v;
    expect_kernel_matches_generic(a, b);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Fp, KernelMatchesGenericArithmeticOnEdgePairs) {
  const std::vector<u256> edges = field_edges();
  for (const u256& a : edges) {
    for (const u256& b : edges) {
      expect_kernel_matches_generic(a, b);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ECPoint, GeneratorOnCurve) {
  EXPECT_TRUE(ECPoint::generator().on_curve());
}

TEST(ECPoint, GeneratorTimesOrderIsInfinity) {
  ECPoint g = ECPoint::generator();
  // n*G = infinity; implemented mod n so pass n-1 and add once.
  ECPoint n_minus_1 = g.mul(secp256k1::kN - u256{1});
  ECPoint sum = n_minus_1.add(g);
  EXPECT_TRUE(sum.is_infinity());
}

TEST(ECPoint, DoubleEqualsAddSelf) {
  ECPoint g = ECPoint::generator();
  EXPECT_TRUE(g.dbl().equals(g.add(g)));
  EXPECT_TRUE(g.dbl().on_curve());
}

TEST(ECPoint, AdditionCommutes) {
  ECPoint g = ECPoint::generator();
  ECPoint a = g.mul(u256{5});
  ECPoint b = g.mul(u256{11});
  EXPECT_TRUE(a.add(b).equals(b.add(a)));
}

TEST(ECPoint, ScalarMulDistributes) {
  // (a+b)G == aG + bG
  ECPoint g = ECPoint::generator();
  u256 a{123456};
  u256 b{654321};
  ECPoint lhs = g.mul(a + b);
  ECPoint rhs = g.mul(a).add(g.mul(b));
  EXPECT_TRUE(lhs.equals(rhs));
}

TEST(ECPoint, MulByZeroIsInfinity) {
  EXPECT_TRUE(ECPoint::generator().mul(u256{}).is_infinity());
}

TEST(ECPoint, InfinityIsIdentity) {
  ECPoint g = ECPoint::generator();
  EXPECT_TRUE(g.add(ECPoint::infinity()).equals(g));
  EXPECT_TRUE(ECPoint::infinity().add(g).equals(g));
}

TEST(ECPoint, AddInverseGivesInfinity) {
  ECPoint g = ECPoint::generator();
  auto [x, y] = g.to_affine();
  ECPoint neg = ECPoint::from_affine(x, (secp256k1::kP - y));
  EXPECT_TRUE(g.add(neg).is_infinity());
}

TEST(ECPoint, AffineRoundTrip) {
  ECPoint p = ECPoint::generator().mul(u256{77});
  auto [x, y] = p.to_affine();
  EXPECT_TRUE(ECPoint::from_affine(x, y).equals(p));
  EXPECT_THROW((void)ECPoint::infinity().to_affine(), std::invalid_argument);
}

TEST(Schnorr, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  Digest msg = hash_str(Domain::kGeneric, "pay bob 5 coins");
  Signature sig = kp.sign(msg);
  EXPECT_TRUE(verify_signature(kp.public_key(), msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  KeyPair kp = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  Signature sig = kp.sign(hash_str(Domain::kGeneric, "msg1"));
  EXPECT_FALSE(verify_signature(kp.public_key(),
                                hash_str(Domain::kGeneric, "msg2"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  KeyPair alice = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  KeyPair bob = KeyPair::from_seed(hash_str(Domain::kGeneric, "bob"));
  Digest msg = hash_str(Domain::kGeneric, "msg");
  Signature sig = alice.sign(msg);
  EXPECT_FALSE(verify_signature(bob.public_key(), msg, sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  KeyPair kp = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  Digest msg = hash_str(Domain::kGeneric, "msg");
  Signature sig = kp.sign(msg);
  Signature bad = sig;
  bad.s = u256::addmod(bad.s, u256{1}, secp256k1::kN);
  EXPECT_FALSE(verify_signature(kp.public_key(), msg, bad));
  Signature bad2 = sig;
  bad2.rx = u256::addmod(bad2.rx, u256{1}, secp256k1::kP);
  EXPECT_FALSE(verify_signature(kp.public_key(), msg, bad2));
}

TEST(Schnorr, RejectsOutOfRangeS) {
  KeyPair kp = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  Digest msg = hash_str(Domain::kGeneric, "msg");
  Signature sig = kp.sign(msg);
  sig.s = secp256k1::kN;  // == n, invalid
  EXPECT_FALSE(verify_signature(kp.public_key(), msg, sig));
  sig.s = u256{};
  EXPECT_FALSE(verify_signature(kp.public_key(), msg, sig));
}

TEST(Schnorr, DeterministicSignatures) {
  KeyPair kp = KeyPair::from_seed(hash_str(Domain::kGeneric, "alice"));
  Digest msg = hash_str(Domain::kGeneric, "msg");
  EXPECT_EQ(kp.sign(msg), kp.sign(msg));
}

TEST(Schnorr, DistinctSeedsDistinctAddresses) {
  KeyPair a = KeyPair::from_seed(hash_str(Domain::kGeneric, "a"));
  KeyPair b = KeyPair::from_seed(hash_str(Domain::kGeneric, "b"));
  EXPECT_NE(a.address(), b.address());
  EXPECT_EQ(a.address(), address_of(a.public_key()));
}

class SchnorrSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrSweep, ManyKeysRoundTrip) {
  int i = GetParam();
  KeyPair kp = KeyPair::from_seed(
      Hasher(Domain::kGeneric).write_u64(static_cast<std::uint64_t>(i)).finalize());
  EXPECT_TRUE(
      ECPoint::from_affine(kp.public_key().first, kp.public_key().second)
          .on_curve());
  Digest msg =
      Hasher(Domain::kGeneric).write_u64(static_cast<std::uint64_t>(i * 31)).finalize();
  EXPECT_TRUE(verify_signature(kp.public_key(), msg, kp.sign(msg)));
}

INSTANTIATE_TEST_SUITE_P(Keys, SchnorrSweep, ::testing::Range(0, 8));

// The Schnorr scheme written out with the plain ECPoint operations: the
// double-and-add ECPoint::mul, ECPoint::add and the to_affine-based
// ECPoint::on_curve. verify_signature and sign must agree with it exactly.
u256 scalar_of(const Digest& d) {
  u256 v = d.as_u256().mod(secp256k1::kN);
  return v.is_zero() ? u256{1} : v;
}

u256 reference_challenge(const u256& rx, const u256& ry,
                         const std::pair<u256, u256>& pk, const Digest& msg) {
  return scalar_of(Hasher(Domain::kSignature)
                       .write(rx)
                       .write(ry)
                       .write(pk.first)
                       .write(pk.second)
                       .write(msg)
                       .finalize());
}

bool reference_verify(const std::pair<u256, u256>& pk, const Digest& msg,
                      const Signature& sig) {
  if (sig.s.is_zero() || !(sig.s < secp256k1::kN)) return false;
  ECPoint r = ECPoint::from_affine(sig.rx, sig.ry);
  ECPoint p = ECPoint::from_affine(pk.first, pk.second);
  if (!r.on_curve() || !p.on_curve()) return false;
  u256 e = reference_challenge(sig.rx, sig.ry, pk, msg);
  return ECPoint::generator().mul(sig.s).equals(r.add(p.mul(e)));
}

/// Signs with a chosen secret and nonce, so tests reach keys and nonce
/// points that seeded keys never produce (P = +-G, R = +-P).
Signature reference_sign(const u256& sk, const u256& k, const Digest& msg) {
  auto pk = ECPoint::generator().mul(sk).to_affine();
  auto [rx, ry] = ECPoint::generator().mul(k).to_affine();
  u256 e = reference_challenge(rx, ry, pk, msg);
  return {rx, ry,
          u256::addmod(k, u256::mulmod(e, sk, secp256k1::kN), secp256k1::kN)};
}

/// Runs verify_signature and the reference on (pk, msg, sig); returns the
/// shared verdict.
bool verify_both(const std::pair<u256, u256>& pk, const Digest& msg,
                 const Signature& sig) {
  bool fast = verify_signature(pk, msg, sig);
  bool ref = reference_verify(pk, msg, sig);
  EXPECT_EQ(fast, ref) << "pk.x=" << pk.first.to_hex()
                       << " msg=" << msg.as_u256().to_hex()
                       << " rx=" << sig.rx.to_hex() << " s=" << sig.s.to_hex();
  return ref;
}

TEST(SchnorrDifferential, TableScalarMulMatchesDoubleAndAdd) {
  for (std::uint64_t i = 0; i < 200; ++i) {
    KeyPair kp = KeyPair::from_seed(
        Hasher(Domain::kGeneric).write_u64(i).finalize());
    EXPECT_EQ(kp.public_key(),
              ECPoint::generator().mul(kp.secret()).to_affine());
    Digest msg = Hasher(Domain::kGeneric).write_u64(~i).finalize();
    u256 k = scalar_of(Hasher(Domain::kSignatureNonce)
                           .write(kp.secret())
                           .write(msg)
                           .finalize());
    EXPECT_EQ(kp.sign(msg), reference_sign(kp.secret(), k, msg));
  }
}

TEST(SchnorrDifferential, VerifyMatchesReferenceOnTamperedSignatures) {
  const u256& n = secp256k1::kN;
  const u256& p = secp256k1::kP;
  Rng rng(53);
  int accepted = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    KeyPair kp = KeyPair::from_seed(
        Hasher(Domain::kGeneric).write_u64(i).write_u64(1).finalize());
    const auto& pk = kp.public_key();
    Digest msg = rng.next_digest();
    const Signature sig = kp.sign(msg);
    accepted += verify_both(pk, msg, sig);

    for (const u256& s : {u256{}, u256{1}, n - u256{1}, n,
                          u256::addmod(sig.s, u256{1}, n)}) {
      Signature t = sig;
      t.s = s;
      accepted += verify_both(pk, msg, t);
    }
    Signature t = sig;
    t.rx = sig.rx + u256{1};
    accepted += verify_both(pk, msg, t);
    t.rx = sig.rx + p;  // wraps mod 2^256 unless rx < 2^32 + 977
    accepted += verify_both(pk, msg, t);
    t = sig;
    t.ry = p - sig.ry;  // -R
    accepted += verify_both(pk, msg, t);
    t = sig;
    t.rx = pk.first;  // R = P
    t.ry = pk.second;
    accepted += verify_both(pk, msg, t);
    accepted += verify_both({pk.first, p - pk.second}, msg, sig);  // -P
    accepted += verify_both({pk.first, pk.second + u256{1}}, msg, sig);
    accepted += verify_both(pk, rng.next_digest(), sig);
    accepted += verify_both(
        {rng.next_u256(), rng.next_u256()}, msg,
        Signature{rng.next_u256(), rng.next_u256(), rng.next_u256()});
  }
  EXPECT_EQ(accepted, 200);  // exactly the untampered signatures
}

TEST(SchnorrDifferential, VerifyMatchesReferenceOnDegenerateKeys) {
  // P = +-G and small multiples share the generator's table, so the joint
  // pass meets equal and opposite points; R = +-P likewise.
  const u256& n = secp256k1::kN;
  Rng rng(59);
  int accepted = 0, cases = 0;
  for (const u256& sk : {u256{1}, u256{2}, u256{3}, n - u256{1}, n - u256{2}}) {
    auto pk = ECPoint::generator().mul(sk).to_affine();
    for (int m = 0; m < 8; ++m) {
      Digest msg = rng.next_digest();
      for (const u256& k : {sk, n - sk, u256{1}, n - u256{1},
                            rng.next_u256().mod(n)}) {
        if (k.is_zero()) continue;
        Signature sig = reference_sign(sk, k, msg);
        accepted += verify_both(pk, msg, sig);
        Signature bad = sig;
        bad.s = u256::addmod(sig.s, u256{1}, n);
        accepted += verify_both(pk, msg, bad);
        cases += 1;
      }
    }
  }
  EXPECT_EQ(accepted, cases);
}

TEST(Scalar, MulModNMatchesGenericMulmod) {
  const u256& n = secp256k1::kN;
  Rng rng(61);
  for (int i = 0; i < 10'000; ++i) {
    const u256 a = rng.next_u256();
    const u256 b = rng.next_u256();
    ASSERT_EQ(mul_mod_n(a, b), u256::mulmod(a, b, n))
        << a.to_hex() << " * " << b.to_hex();
  }
  // Edge values: operands at and past n, and the product whose high half
  // is largest, which takes the most folds.
  const u256 edges[] = {u256{}, u256{1}, n - u256{1}, n, u256{} - u256{1}};
  for (const u256& a : edges) {
    for (const u256& b : edges) {
      EXPECT_EQ(mul_mod_n(a, b), u256::mulmod(a, b, n))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

// ---- Batch verification ----

constexpr std::size_t kBatchSizes[] = {1, 2, 3, 8, 16, 31, 64};

/// `count` seeded checks, each signed by its own key.
std::vector<SignatureCheck> seeded_batch(std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SignatureCheck> batch;
  for (std::size_t i = 0; i < count; ++i) {
    KeyPair kp = KeyPair::from_seed(rng.next_digest());
    Digest msg = rng.next_digest();
    batch.push_back({kp.public_key(), msg, kp.sign(msg)});
  }
  return batch;
}

/// The ways tamper() spoils a check, by `kind`: s, s = 0, s >= n, R, P,
/// the message, R off the curve, P off the curve.
constexpr int kTamperKinds = 8;

void tamper(SignatureCheck& c, int kind, Rng& rng) {
  const u256& n = secp256k1::kN;
  const u256& p = secp256k1::kP;
  switch (kind) {
    case 0:
      c.sig.s = u256::addmod(c.sig.s, u256{1}, n);
      break;
    case 1:
      c.sig.s = u256{};
      break;
    case 2:
      c.sig.s = n;
      break;
    case 3:  // -R, still on the curve
      c.sig.ry = p - c.sig.ry;
      break;
    case 4:  // another key
      c.pubkey = KeyPair::from_seed(rng.next_digest()).public_key();
      break;
    case 5:
      c.msg = rng.next_digest();
      break;
    case 6:
      c.sig.ry = c.sig.ry + u256{1};
      break;
    case 7:
      c.pubkey.second = c.pubkey.second + u256{1};
      break;
  }
}

/// The index the one-by-one fallback names: the first check that fails
/// verify_signature, or the batch size.
std::size_t first_failure(const std::vector<SignatureCheck>& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SignatureCheck& c = batch[i];
    if (!verify_signature(c.pubkey, c.msg, c.sig)) return i;
  }
  return batch.size();
}

TEST(SchnorrBatch, ValidBatchesPass) {
  EXPECT_TRUE(verify_batch({}));
  for (std::size_t size : kBatchSizes) {
    SCOPED_TRACE("size " + std::to_string(size));
    const auto batch = seeded_batch(size, 100 + size);
    EXPECT_TRUE(verify_batch(batch));
    // A repeated check is just another term.
    auto doubled = batch;
    doubled.insert(doubled.end(), batch.begin(), batch.end());
    EXPECT_TRUE(verify_batch(doubled));
  }
}

TEST(SchnorrBatch, OneTamperedCheckFailsTheBatchAtEveryIndex) {
  Rng rng(67);
  for (std::size_t size : kBatchSizes) {
    const auto batch = seeded_batch(size, 200 + size);
    for (std::size_t i = 0; i < size; ++i) {
      // Every kind at every index up to 31 checks; at 64, each index gets
      // one kind in turn, so each kind still meets eight indices.
      for (int kind = 0; kind < kTamperKinds; ++kind) {
        if (size == 64 && kind != static_cast<int>(i % kTamperKinds)) {
          continue;
        }
        SCOPED_TRACE("size " + std::to_string(size) + ", index " +
                     std::to_string(i) + ", kind " + std::to_string(kind));
        auto bad = batch;
        tamper(bad[i], kind, rng);
        EXPECT_FALSE(verify_batch(bad));
        EXPECT_EQ(first_failure(bad), i);
      }
    }
  }
}

TEST(SchnorrBatch, DegenerateKeysAndNoncesMatchOneByOne) {
  // P = +-G and small multiples, nonces R = +-P and +-G: the shared chain
  // and the odd-multiple tables meet equal and opposite points.
  const u256& n = secp256k1::kN;
  Rng rng(71);
  std::vector<SignatureCheck> batch;
  for (const u256& sk : {u256{1}, u256{2}, u256{3}, n - u256{1}, n - u256{2}}) {
    auto pk = ECPoint::generator().mul(sk).to_affine();
    for (const u256& k : {sk, n - sk, u256{1}, n - u256{1}}) {
      Digest msg = rng.next_digest();
      batch.push_back({pk, msg, reference_sign(sk, k, msg)});
    }
  }
  EXPECT_TRUE(verify_batch(batch));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto bad = batch;
    bad[i].sig.s = u256::addmod(bad[i].sig.s, u256{1}, n);
    EXPECT_FALSE(verify_batch(bad)) << "index " << i;
  }
}

TEST(SchnorrBatch, WeightsAreAPureFunctionOfTheBatch) {
  const u256 two128 = u256{1} << 128;
  EXPECT_TRUE(batch_weights({}).empty());
  for (std::size_t size : kBatchSizes) {
    SCOPED_TRACE("size " + std::to_string(size));
    const auto batch = seeded_batch(size, 300 + size);
    const std::vector<u256> weights = batch_weights(batch);
    ASSERT_EQ(weights.size(), size);
    EXPECT_EQ(batch_weights(seeded_batch(size, 300 + size)), weights);
    EXPECT_EQ(weights[0], u256{1});
    for (std::size_t i = 1; i < size; ++i) {
      EXPECT_FALSE(weights[i].is_zero());
      EXPECT_LT(weights[i], two128);
    }
    if (size > 1) {
      // Any change to the batch draws new weights.
      auto changed = batch;
      changed.back().sig.s = changed.back().sig.s + u256{1};
      EXPECT_NE(batch_weights(changed)[1], weights[1]);
    }
  }
}

}  // namespace
}  // namespace zendoo::crypto
