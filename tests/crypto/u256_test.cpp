#include "crypto/u256.hpp"

#include <gtest/gtest.h>

#include <array>

#include "crypto/rng.hpp"

namespace zendoo::crypto {
namespace {

TEST(U256, ZeroAndOne) {
  u256 z;
  EXPECT_TRUE(z.is_zero());
  u256 one{1};
  EXPECT_FALSE(one.is_zero());
  EXPECT_EQ(one.highest_bit(), 0);
  EXPECT_EQ(z.highest_bit(), -1);
}

TEST(U256, AdditionCarriesAcrossLimbs) {
  u256 a{~0ULL, 0, 0, 0};
  u256 b{1};
  u256 r = a + b;
  EXPECT_EQ(r, (u256{0, 1, 0, 0}));
}

TEST(U256, AdditionOverflowWraps) {
  u256 max{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  u256 r;
  bool carry = u256::add_with_carry(max, u256{1}, r);
  EXPECT_TRUE(carry);
  EXPECT_TRUE(r.is_zero());
}

TEST(U256, SubtractionBorrow) {
  u256 r;
  bool borrow = u256::sub_with_borrow(u256{0}, u256{1}, r);
  EXPECT_TRUE(borrow);
  EXPECT_EQ(r, (u256{~0ULL, ~0ULL, ~0ULL, ~0ULL}));
}

TEST(U256, Comparison) {
  u256 a{5};
  u256 b{0, 1, 0, 0};  // 2^64
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, (u256{5}));
}

TEST(U256, ShiftLeftRightInverse) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    u256 v = rng.next_u256();
    unsigned n = static_cast<unsigned>(rng.next_below(256));
    u256 masked = (v << n) >> n;
    // Shifting left then right must preserve the low 256-n bits.
    u256 expected = n == 0 ? v : (v << n) >> n;
    EXPECT_EQ(masked, expected);
    if (n > 0) {
      EXPECT_EQ((v >> (256 - n)), (v >> (256 - n)));
    }
  }
}

TEST(U256, ShiftByZeroIsIdentity) {
  u256 v{0x1234, 0x5678, 0x9abc, 0xdef0};
  EXPECT_EQ(v << 0, v);
  EXPECT_EQ(v >> 0, v);
}

TEST(U256, ShiftBy256IsZero) {
  u256 v{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  EXPECT_TRUE((v << 256).is_zero());
  EXPECT_TRUE((v >> 256).is_zero());
}

TEST(U256, MulWideSmall) {
  auto [hi, lo] = u256::mul_wide(u256{3}, u256{4});
  EXPECT_TRUE(hi.is_zero());
  EXPECT_EQ(lo, u256{12});
}

TEST(U256, MulWideMaxTimesMax) {
  // (2^256-1)^2 = 2^512 - 2^257 + 1 -> hi = 2^256 - 2, lo = 1.
  u256 max{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  auto [hi, lo] = u256::mul_wide(max, max);
  EXPECT_EQ(lo, u256{1});
  EXPECT_EQ(hi, (u256{~0ULL - 1, ~0ULL, ~0ULL, ~0ULL}));
}

TEST(U256, ModBasics) {
  EXPECT_EQ(u256{17}.mod(u256{5}), u256{2});
  EXPECT_EQ(u256{4}.mod(u256{5}), u256{4});
  EXPECT_EQ(u256{0}.mod(u256{5}), u256{0});
  EXPECT_THROW((void)u256{1}.mod(u256{0}), std::invalid_argument);
}

TEST(U256, ModMatchesNativeForSmallValues) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::uint64_t a = rng.next_u64();
    std::uint64_t m = rng.next_u64() | 1;
    EXPECT_EQ(u256{a}.mod(u256{m}), u256{a % m});
  }
}

TEST(U256, MulmodAgainstNative128) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t a = rng.next_u64();
    std::uint64_t b = rng.next_u64();
    std::uint64_t m = rng.next_u64() | 1;
    unsigned __int128 expect =
        (static_cast<unsigned __int128>(a) * b) % m;
    u256 got = u256::mulmod(u256{a}, u256{b}, u256{m});
    EXPECT_EQ(got, (u256{static_cast<std::uint64_t>(expect),
                         static_cast<std::uint64_t>(expect >> 64), 0, 0}));
  }
}

TEST(U256, AddmodSubmodRoundTrip) {
  Rng rng(17);
  u256 m = u256::from_hex(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  for (int i = 0; i < 100; ++i) {
    u256 a = rng.next_u256().mod(m);
    u256 b = rng.next_u256().mod(m);
    u256 sum = u256::addmod(a, b, m);
    EXPECT_EQ(u256::submod(sum, b, m), a);
    EXPECT_EQ(u256::submod(sum, a, m), b);
  }
}

TEST(U256, PowmodFermat) {
  // 2^(p-1) = 1 mod p for prime p.
  u256 p{1000003};
  EXPECT_EQ(u256::powmod(u256{2}, p - u256{1}, p), u256{1});
  EXPECT_EQ(u256::powmod(u256{0}, u256{5}, p), u256{0});
  EXPECT_EQ(u256::powmod(u256{5}, u256{0}, p), u256{1});
}

TEST(U256, HexRoundTrip) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    u256 v = rng.next_u256();
    EXPECT_EQ(u256::from_hex(v.to_hex()), v);
  }
  EXPECT_EQ(u256::from_hex("0x01"), u256{1});
  EXPECT_EQ(u256::from_hex("ff"), u256{255});
  EXPECT_THROW(u256::from_hex(""), std::invalid_argument);
  EXPECT_THROW(u256::from_hex("zz"), std::invalid_argument);
}

TEST(U256, BytesRoundTrip) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    u256 v = rng.next_u256();
    auto b = v.to_bytes_be();
    EXPECT_EQ(u256::from_bytes_be(b.data()), v);
  }
}

TEST(U256, BytesAreBigEndian) {
  // A round trip alone passes when both directions mirror the same limb or
  // byte order; a fixed vector pins the order itself.
  std::array<std::uint8_t, 32> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i + 1);
  }
  const u256 v = u256::from_hex(
      "0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
  EXPECT_EQ(v, (u256{0x191a1b1c1d1e1f20ULL, 0x1112131415161718ULL,
                     0x090a0b0c0d0e0f10ULL, 0x0102030405060708ULL}));
  EXPECT_EQ(v.to_bytes_be(), bytes);
  EXPECT_EQ(u256::from_bytes_be(bytes.data()), v);
}

TEST(U256, ModWideAgainstSquareIdentity) {
  // (a mod m)^2 mod m == a^2 mod m via mod_wide.
  Rng rng(29);
  u256 m = u256::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  for (int i = 0; i < 20; ++i) {
    u256 a = rng.next_u256();
    auto [hi, lo] = u256::mul_wide(a, a);
    u256 direct = u256::mod_wide(hi, lo, m);
    u256 via = u256::mulmod(a.mod(m), a.mod(m), m);
    EXPECT_EQ(direct, via);
  }
}

class U256PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U256PropertyTest, MulmodCommutesAndAssociates) {
  Rng rng(GetParam());
  u256 m = u256::from_hex(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  u256 a = rng.next_u256().mod(m);
  u256 b = rng.next_u256().mod(m);
  u256 c = rng.next_u256().mod(m);
  EXPECT_EQ(u256::mulmod(a, b, m), u256::mulmod(b, a, m));
  EXPECT_EQ(u256::mulmod(u256::mulmod(a, b, m), c, m),
            u256::mulmod(a, u256::mulmod(b, c, m), m));
  // Distributivity over addmod.
  EXPECT_EQ(u256::mulmod(a, u256::addmod(b, c, m), m),
            u256::addmod(u256::mulmod(a, b, m), u256::mulmod(a, c, m), m));
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace zendoo::crypto
