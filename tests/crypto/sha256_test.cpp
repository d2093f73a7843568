#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "crypto/hash.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256_kernel.hpp"

namespace zendoo::crypto {
namespace {

std::string hex_of(const std::array<std::uint8_t, 32>& d) {
  Digest dd;
  dd.bytes = d;
  return dd.to_hex();
}

// NIST / well-known test vectors.
TEST(Sha256, EmptyString) {
  Sha256 h;
  EXPECT_EQ(hex_of(h.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  Sha256 h;
  h.update("abc");
  EXPECT_EQ(hex_of(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  Sha256 h;
  h.update("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_of(h.finalize()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 one;
  one.update(msg);
  auto d1 = one.finalize();
  // Feed byte-by-byte.
  Sha256 two;
  for (char c : msg) {
    two.update(std::string_view(&c, 1));
  }
  EXPECT_EQ(hex_of(two.finalize()), hex_of(d1));
}

// 'a' x n against Python's hashlib.sha256, at the lengths where padding
// changes shape: the 0x80 byte and the 8-byte length fit behind the data up
// to 55 bytes into a block, need a second block from 56 to 63, and 64
// fills a block exactly. Each message is fed in one update, in two at
// every split point, and byte by byte.
TEST(Sha256, BoundaryLengths) {
  const std::pair<std::size_t, std::string_view> kCases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {1000,
       "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"},
  };
  for (const auto& [n, hex] : kCases) {
    const std::string msg(n, 'a');
    const std::string_view view(msg);
    Sha256 one;
    one.update(view);
    EXPECT_EQ(hex_of(one.finalize()), hex) << "n=" << n << ", one update";
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 two;
      two.update(view.substr(0, split));
      two.update(view.substr(split));
      EXPECT_EQ(hex_of(two.finalize()), hex)
          << "n=" << n << ", split " << split;
    }
    Sha256 bytes;
    for (std::size_t i = 0; i < n; ++i) bytes.update(view.substr(i, 1));
    EXPECT_EQ(hex_of(bytes.finalize()), hex) << "n=" << n << ", byte by byte";
  }
}

TEST(Sha256Kernel, SelectsShaExtensionsWhenPresent) {
  EXPECT_EQ(sha256_kernel_name(),
            sha256_kernel::x86_sha() != nullptr ? "x86-sha" : "portable");
}

// The SHA-extensions kernel against the portable rounds on seeded random
// (state, block) pairs, led by all-zero and all-one states and blocks.
TEST(Sha256Kernel, X86ShaMatchesPortable) {
  const sha256_kernel::Transform sha = sha256_kernel::x86_sha();
  if (sha == nullptr) {
    GTEST_SKIP() << "no x86 SHA-extensions kernel on this host; only the "
                    "portable kernel runs here";
  }
  Rng rng(256);
  for (int pair = 0; pair < 10000; ++pair) {
    std::array<std::uint32_t, 8> state{};
    std::array<std::uint8_t, 64> block{};
    if (pair < 4) {
      state.fill((pair & 1) != 0 ? 0xffffffffu : 0u);
      block.fill((pair & 2) != 0 ? 0xff : 0);
    } else {
      for (auto& word : state) {
        word = static_cast<std::uint32_t>(rng.next_u64());
      }
      for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    std::array<std::uint32_t, 8> expected = state;
    sha256_kernel::transform_portable(expected.data(), block.data());
    std::array<std::uint32_t, 8> actual = state;
    sha(actual.data(), block.data());
    ASSERT_EQ(actual, expected) << "pair " << pair;
  }
}

TEST(HashDomain, DomainsProduceDistinctDigests) {
  Digest a = hash_str(Domain::kMerkleLeaf, "payload");
  Digest b = hash_str(Domain::kMerkleNode, "payload");
  Digest c = hash_str(Domain::kTxId, "payload");
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

TEST(HashDomain, LengthPrefixPreventsConcatenationCollision) {
  // ("ab","c") and ("a","bc") must hash differently.
  Digest d1 =
      Hasher(Domain::kGeneric).write_str("ab").write_str("c").finalize();
  Digest d2 =
      Hasher(Domain::kGeneric).write_str("a").write_str("bc").finalize();
  EXPECT_NE(d1, d2);
}

TEST(HashDomain, DigestHexRoundTrip) {
  Digest d = hash_str(Domain::kGeneric, "round trip me");
  EXPECT_EQ(Digest::from_hex(d.to_hex()), d);
  EXPECT_THROW(Digest::from_hex("abcd"), std::invalid_argument);
}

TEST(HashDomain, U256RoundTripThroughDigest) {
  u256 v = u256::from_hex("deadbeef");
  Digest d = Digest::from_u256(v);
  EXPECT_EQ(d.as_u256(), v);
}

TEST(HashDomain, ZeroDigestDetected) {
  Digest d;
  EXPECT_TRUE(d.is_zero());
  d.bytes[31] = 1;
  EXPECT_FALSE(d.is_zero());
}

}  // namespace
}  // namespace zendoo::crypto
