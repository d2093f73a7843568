// SignatureMemo and the BoundedDigestSet under it: only successful
// verifications are remembered, every byte of the triple is part of the
// key, and the set's generation dump keeps it bounded.
#include "crypto/signature_memo.hpp"

#include <gtest/gtest.h>

namespace zendoo::crypto {
namespace {

Digest d(std::string_view s) { return hash_str(Domain::kGeneric, s); }

TEST(BoundedDigestSet, GenerationDumpAtCapacity) {
  BoundedDigestSet set(2);
  set.insert(d("a"));
  set.insert(d("b"));
  EXPECT_TRUE(set.contains(d("a")));
  EXPECT_TRUE(set.contains(d("b")));
  set.insert(d("c"));  // full: the old generation goes
  EXPECT_FALSE(set.contains(d("a")));
  EXPECT_FALSE(set.contains(d("b")));
  EXPECT_TRUE(set.contains(d("c")));
}

TEST(BoundedDigestSet, ZeroCapacityKeepsNothing) {
  BoundedDigestSet set(0);
  set.insert(d("a"));
  EXPECT_FALSE(set.contains(d("a")));
}

class SignatureMemoTest : public ::testing::Test {
 protected:
  SignatureMemoTest()
      : key_(KeyPair::from_seed(d("memo-key"))),
        msg_(d("memo-msg")),
        sig_(key_.sign(msg_)) {}

  KeyPair key_;
  Digest msg_;
  Signature sig_;
  SignatureMemo memo_;
};

TEST_F(SignatureMemoTest, SuccessVerifiedOnceThenHit) {
  EXPECT_TRUE(memo_.verify(key_.public_key(), msg_, sig_));
  EXPECT_TRUE(memo_.verify(key_.public_key(), msg_, sig_));
  EXPECT_EQ(memo_.stats().executed, 1u);
  EXPECT_EQ(memo_.stats().hits, 1u);
}

TEST_F(SignatureMemoTest, FailureIsNotMemoized) {
  Signature bad = sig_;
  bad.s = u256::addmod(bad.s, u256{1}, secp256k1::kN);
  EXPECT_FALSE(memo_.verify(key_.public_key(), msg_, bad));
  EXPECT_FALSE(memo_.verify(key_.public_key(), msg_, bad));
  EXPECT_EQ(memo_.stats().executed, 2u);
  EXPECT_EQ(memo_.stats().hits, 0u);
}

TEST_F(SignatureMemoTest, EveryFieldOfTheTripleIsKeyed) {
  ASSERT_TRUE(memo_.verify(key_.public_key(), msg_, sig_));
  // Variants of a memoized triple, each differing in one field: each
  // misses, is verified in full, and is rejected.
  KeyPair other = KeyPair::from_seed(d("other-key"));
  Signature r_changed = sig_;
  r_changed.rx = u256::addmod(r_changed.rx, u256{1}, secp256k1::kP);
  Signature ry_changed = sig_;
  ry_changed.ry = u256::addmod(ry_changed.ry, u256{1}, secp256k1::kP);
  Signature s_changed = sig_;
  s_changed.s = u256::addmod(s_changed.s, u256{1}, secp256k1::kN);
  EXPECT_FALSE(memo_.verify(other.public_key(), msg_, sig_));
  EXPECT_FALSE(memo_.verify(key_.public_key(), d("other-msg"), sig_));
  EXPECT_FALSE(memo_.verify(key_.public_key(), msg_, r_changed));
  EXPECT_FALSE(memo_.verify(key_.public_key(), msg_, ry_changed));
  EXPECT_FALSE(memo_.verify(key_.public_key(), msg_, s_changed));
  EXPECT_EQ(memo_.stats().executed, 6u);
  EXPECT_EQ(memo_.stats().hits, 0u);
}

}  // namespace
}  // namespace zendoo::crypto
