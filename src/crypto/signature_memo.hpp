// Memo of successful Schnorr verifications (the CSignatureCache of Bitcoin
// Core and zen).
//
// A Latus node checks every spend signature twice: when it forges the
// transaction, and again inside the base-transition circuit when the epoch
// is folded into the recursive proof (§5.4). A two-input payment also
// carries one signature copied into both inputs. The memo answers every
// repeat of a triple that already verified, so each distinct signature
// costs one verification per node.
//
// A node that is about to check many signatures primes the memo first:
// prime() verifies every triple the memo does not hold yet with one
// crypto::verify_batch, which shares one doubling chain across them, and
// remembers them all if the batch passes. The checks that follow are hits.
// A batch holding a bad triple remembers nothing, so each check then
// verifies its own triple and the bad one is rejected where it is met.
//
// Why a hit is sound: the key is a SHA-256 digest of the whole triple —
// both public-key coordinates, the signing digest and all three signature
// fields — so a hit means this exact triple passed verify_signature
// before. Verification is a pure function of the triple, so it would pass
// again. Only successes enter; a bad triple misses and is verified, and
// rejected, every time it is checked. Callers recompute the signing digest
// from the transaction at every check, so changing any signed field of a
// transaction changes the key.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "crypto/digest_set.hpp"
#include "crypto/ecc.hpp"

namespace zendoo::crypto {

/// Counters exposed for tests and benchmarks.
struct SignatureMemoStats {
  /// Triples verified: by verify_signature, or once each in a prime batch.
  std::uint64_t executed = 0;
  std::uint64_t hits = 0;  ///< checks answered from the memo
};

/// One node's memo. Not thread-safe: a node forges and proves on one
/// thread. Copies hold their own entries; copies of a node share one memo
/// through a pointer (see latus::LatusProofSystem).
class SignatureMemo {
 public:
  /// Entries kept before a generation dump (see BoundedDigestSet), about
  /// 1 MiB. A signature only has to survive from forging to the end of its
  /// epoch's proof, and an epoch of 100 spends fills 1/160 of the memo.
  static constexpr std::size_t kCapacity = 1 << 14;

  /// The key of one (public key, signing digest, signature) check; also
  /// the mainchain's verified-check cache key for signature checks.
  [[nodiscard]] static Digest key(const std::pair<u256, u256>& pubkey,
                                  const Digest& msg, const Signature& sig);

  /// verify_signature(pubkey, msg, sig), answered from the memo when this
  /// exact triple verified before.
  [[nodiscard]] bool verify(const std::pair<u256, u256>& pubkey,
                            const Digest& msg, const Signature& sig);

  /// Verifies the distinct triples of `checks` that the memo does not
  /// hold yet with one crypto::verify_batch, and remembers them all if it
  /// passes; a failed batch remembers nothing.
  void prime(std::span<const SignatureCheck> checks);

  [[nodiscard]] SignatureMemoStats stats() const { return stats_; }

 private:
  BoundedDigestSet verified_{kCapacity};
  SignatureMemoStats stats_;
};

}  // namespace zendoo::crypto
