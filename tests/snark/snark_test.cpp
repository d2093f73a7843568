#include "snark/snark.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace zendoo::snark {
namespace {

using crypto::Domain;
using crypto::hash_str;

Predicate sum_circuit() {
  // Statement: [H(a+b)] ; witness: pair<uint64,uint64> (a, b).
  return [](const Statement& st, const Witness& w) {
    const auto* pair = std::any_cast<std::pair<std::uint64_t, std::uint64_t>>(&w);
    if (pair == nullptr || st.size() != 1) return false;
    return statement_u64(pair->first + pair->second) == st[0];
  };
}

TEST(PredicateSnark, CompletenessAndSoundness) {
  auto [pk, vk] = PredicateSnark::setup(sum_circuit(), "sum-test");
  Statement st{statement_u64(7)};
  auto proof = PredicateSnark::prove(pk, st, std::pair<std::uint64_t, std::uint64_t>{3, 4});
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(PredicateSnark::verify(vk, st, *proof));

  // Unsatisfying witness -> prover refuses (soundness).
  EXPECT_FALSE(
      PredicateSnark::prove(pk, st, std::pair<std::uint64_t, std::uint64_t>{3, 5}).has_value());
}

TEST(PredicateSnark, ProofBindsToStatement) {
  auto [pk, vk] = PredicateSnark::setup(sum_circuit(), "bind-test");
  Statement st7{statement_u64(7)};
  Statement st8{statement_u64(8)};
  auto proof = PredicateSnark::prove(pk, st7, std::pair<std::uint64_t, std::uint64_t>{3, 4});
  ASSERT_TRUE(proof.has_value());
  // A proof for statement 7 must not verify statement 8.
  EXPECT_FALSE(PredicateSnark::verify(vk, st8, *proof));
}

TEST(PredicateSnark, ProofBoundToCircuit) {
  auto [pk1, vk1] = PredicateSnark::setup(sum_circuit(), "circuit-A");
  auto [pk2, vk2] = PredicateSnark::setup(sum_circuit(), "circuit-B");
  Statement st{statement_u64(7)};
  auto proof = PredicateSnark::prove(pk1, st, std::pair<std::uint64_t, std::uint64_t>{3, 4});
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(PredicateSnark::verify(vk1, st, *proof));
  // Same circuit logic but an independent setup: proof must not transfer.
  EXPECT_FALSE(PredicateSnark::verify(vk2, st, *proof));
}

TEST(PredicateSnark, TamperedProofRejected) {
  auto [pk, vk] = PredicateSnark::setup(sum_circuit(), "tamper-test");
  Statement st{statement_u64(7)};
  auto proof = PredicateSnark::prove(pk, st, std::pair<std::uint64_t, std::uint64_t>{3, 4});
  ASSERT_TRUE(proof.has_value());
  Proof bad = *proof;
  bad.binding.bytes[0] ^= 1;
  EXPECT_FALSE(PredicateSnark::verify(vk, st, bad));
}

TEST(PredicateSnark, NullKeyVerifiesNothing) {
  auto [pk, vk] = PredicateSnark::setup(sum_circuit(), "null-test");
  Statement st{statement_u64(7)};
  auto proof = PredicateSnark::prove(pk, st, std::pair<std::uint64_t, std::uint64_t>{3, 4});
  ASSERT_TRUE(proof.has_value());
  EXPECT_FALSE(PredicateSnark::verify(VerifyingKey::null(), st, *proof));
  EXPECT_TRUE(VerifyingKey::null().is_null());
  EXPECT_FALSE(vk.is_null());
}

TEST(PredicateSnark, UnknownKeysRejected) {
  Statement st{statement_u64(1)};
  ProvingKey bogus{hash_str(Domain::kGeneric, "bogus")};
  EXPECT_THROW((void)PredicateSnark::prove(bogus, st, 0), std::invalid_argument);
  VerifyingKey bogus_vk{hash_str(Domain::kGeneric, "bogus")};
  EXPECT_FALSE(PredicateSnark::verify(bogus_vk, st, Proof{}));
}

TEST(PredicateSnark, NullCircuitRejected) {
  EXPECT_THROW(PredicateSnark::setup(nullptr, "x"), std::invalid_argument);
}

TEST(PredicateSnark, ProofIsConstantSize) {
  // Succinctness: the proof is one digest regardless of witness size.
  auto circuit = [](const Statement&, const Witness& w) {
    return std::any_cast<std::vector<int>>(&w) != nullptr;
  };
  auto [pk, vk] = PredicateSnark::setup(circuit, "size-test");
  auto small = PredicateSnark::prove(pk, {}, std::vector<int>(1));
  auto large = PredicateSnark::prove(pk, {}, std::vector<int>(100000));
  ASSERT_TRUE(small && large);
  EXPECT_EQ(sizeof(small->binding), 32u);
  EXPECT_EQ(sizeof(*small), sizeof(*large));
}

TEST(PredicateSnark, DeterministicSetupPerLabel) {
  auto [pk1, vk1] = PredicateSnark::setup(sum_circuit(), "det-label");
  auto [pk2, vk2] = PredicateSnark::setup(sum_circuit(), "det-label");
  EXPECT_EQ(vk1, vk2);
}

TEST(PredicateSnark, EachSetupProvesWithItsOwnCircuit) {
  // Two setups of one label share their keys, but each proving key runs
  // the circuit its own setup compiled, not the latest one registered.
  auto accepts = [](int wanted) -> Predicate {
    return [wanted](const Statement&, const Witness& w) {
      const auto* v = std::any_cast<int>(&w);
      return v != nullptr && *v == wanted;
    };
  };
  auto [pk1, vk1] = PredicateSnark::setup(accepts(1), "per-setup-label");
  auto [pk2, vk2] = PredicateSnark::setup(accepts(2), "per-setup-label");
  ASSERT_EQ(vk1, vk2);
  Statement st{statement_u64(0)};
  EXPECT_TRUE(PredicateSnark::prove(pk1, st, 1).has_value());
  EXPECT_FALSE(PredicateSnark::prove(pk1, st, 2).has_value());
  auto proof = PredicateSnark::prove(pk2, st, 2);
  ASSERT_TRUE(proof.has_value());
  EXPECT_FALSE(PredicateSnark::prove(pk2, st, 1).has_value());
  EXPECT_TRUE(PredicateSnark::verify(vk1, st, *proof));
}

TEST(R1csSnarkTest, ProveVerifyRoundTrip) {
  auto cs = std::make_shared<ConstraintSystem>();
  std::uint32_t out = cs->allocate_public();
  std::uint32_t x = cs->allocate_witness();
  std::uint32_t x2 = cs->mul(x, x);
  cs->enforce_equal(x2, out);

  auto [pk, vk] = R1csSnark::setup(cs, "square");
  // x=6, out=36; witness order: x, x2.
  auto proof = R1csSnark::prove(pk, {u256{36}}, {u256{6}, u256{36}});
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(R1csSnark::verify(vk, {u256{36}}, *proof));
  EXPECT_FALSE(R1csSnark::verify(vk, {u256{35}}, *proof));
}

TEST(R1csSnarkTest, UnsatisfiedWitnessYieldsNoProof) {
  auto cs = std::make_shared<ConstraintSystem>();
  std::uint32_t out = cs->allocate_public();
  std::uint32_t x = cs->allocate_witness();
  std::uint32_t x2 = cs->mul(x, x);
  cs->enforce_equal(x2, out);
  auto [pk, vk] = R1csSnark::setup(cs, "square2");
  EXPECT_FALSE(R1csSnark::prove(pk, {u256{36}}, {u256{5}, u256{25}}));
}

TEST(R1csSnarkTest, NullCircuitRejected) {
  EXPECT_THROW(R1csSnark::setup(nullptr, "x"), std::invalid_argument);
}

TEST(StatementHelpers, Distinct) {
  EXPECT_NE(statement_u64(1), statement_u64(2));
  EXPECT_NE(statement_field(u256{1}), statement_u64(1));
  EXPECT_EQ(statement_u64(1), statement_u64(1));
}

}  // namespace
}  // namespace zendoo::snark
