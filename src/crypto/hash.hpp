// Domain-separated hashing utilities.
//
// Every hash use in the system (leaf vs interior Merkle nodes, tx ids,
// block hashes, nullifiers, proof bindings, ...) is tagged with a domain
// byte so that a digest computed in one context can never be replayed as a
// digest of another context (e.g. the classic second-preimage attack that
// passes an interior Merkle node off as a leaf).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"

namespace zendoo::crypto {

/// 32-byte hash digest value type.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend constexpr bool operator==(const Digest&, const Digest&) = default;
  friend constexpr auto operator<=>(const Digest&, const Digest&) = default;

  [[nodiscard]] bool is_zero() const {
    for (auto b : bytes) {
      if (b != 0) return false;
    }
    return true;
  }

  /// Interpret the digest as a big-endian 256-bit integer (e.g. for PoW
  /// target comparison or reduction into a field).
  [[nodiscard]] u256 as_u256() const { return u256::from_bytes_be(bytes.data()); }

  [[nodiscard]] std::string to_hex() const;
  static Digest from_hex(std::string_view hex);
  static Digest from_u256(const u256& v) {
    Digest d;
    d.bytes = v.to_bytes_be();
    return d;
  }
};

/// std::hash support so Digest can key unordered containers.
struct DigestHash {
  std::size_t operator()(const Digest& d) const {
    std::size_t h;
    static_assert(sizeof(h) <= 32);
    std::memcpy(&h, d.bytes.data(), sizeof(h));
    return h;
  }
};

/// Hash domains. One byte, prepended to every hash input.
enum class Domain : std::uint8_t {
  kMerkleLeaf = 0x00,
  kMerkleNode = 0x01,
  kMerkleEmpty = 0x02,
  kTxId = 0x10,
  kBlockHeader = 0x11,
  kUtxo = 0x12,
  kNullifier = 0x13,
  kAddress = 0x14,
  kScBlock = 0x20,
  kStateCommitment = 0x21,
  kEpochRandomness = 0x22,
  kSlotLeader = 0x23,
  kSnarkKey = 0x30,
  kSnarkProof = 0x31,
  kSnarkStatement = 0x32,
  kSignature = 0x40,
  kSignatureNonce = 0x41,
  kCertificate = 0x50,
  kCommitmentTree = 0x51,
  kGeneric = 0xFF,
};

/// Incremental, domain-separated hash builder.
///
/// Integers are absorbed in fixed-width little-endian form; variable-length
/// byte strings are length-prefixed so that concatenation ambiguity cannot
/// produce collisions between structurally different inputs.
class Hasher {
 public:
  explicit Hasher(Domain domain) {
    std::uint8_t tag = static_cast<std::uint8_t>(domain);
    sha_.update(std::span<const std::uint8_t>(&tag, 1));
  }

  Hasher& write_u8(std::uint8_t v) {
    sha_.update(std::span<const std::uint8_t>(&v, 1));
    return *this;
  }

  Hasher& write_u64(std::uint64_t v) {
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    sha_.update(std::span<const std::uint8_t>(buf, 8));
    return *this;
  }

  Hasher& write(const Digest& d) {
    sha_.update(std::span<const std::uint8_t>(d.bytes.data(), 32));
    return *this;
  }

  Hasher& write(const u256& v) {
    auto b = v.to_bytes_be();
    sha_.update(std::span<const std::uint8_t>(b.data(), 32));
    return *this;
  }

  Hasher& write_bytes(std::span<const std::uint8_t> data) {
    write_u64(data.size());
    sha_.update(data);
    return *this;
  }

  Hasher& write_str(std::string_view s) {
    write_u64(s.size());
    sha_.update(s);
    return *this;
  }

  [[nodiscard]] Digest finalize() {
    Digest d;
    d.bytes = sha_.finalize();
    return d;
  }

 private:
  Sha256 sha_;
};

/// Hash of two digests under a domain (Merkle interior nodes etc.).
inline Digest hash_pair(Domain domain, const Digest& left,
                        const Digest& right) {
  return Hasher(domain).write(left).write(right).finalize();
}

inline Digest hash_str(Domain domain, std::string_view s) {
  return Hasher(domain).write_str(s).finalize();
}

}  // namespace zendoo::crypto
