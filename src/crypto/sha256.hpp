// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the collision-resistant hash (Def 2.1 of the paper) underlying
// every authenticated structure in the system: transaction ids, block
// hashes, Merkle trees, nullifiers and SNARK proof binding.
//
// Each 64-byte block goes through one of two compression kernels
// (`crypto/sha256_kernel.hpp`), picked once per process from CPUID:
//   - "x86-sha": the x86-64 SHA extensions (sha256rnds2, sha256msg1/2),
//     on CPUs that report SHA, SSSE3 and SSE4.1. About six times faster
//     per block.
//   - "portable": plain C++ rounds, on every other host. It also stays as
//     the reference the SHA kernel is tested against.
// Both compute FIPS 180-4 exactly, so every digest, and with it every id,
// root, proof and certificate, is the same whichever kernel ran.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string_view>

namespace zendoo::crypto {

/// The compression kernel this process uses: "x86-sha" or "portable".
std::string_view sha256_kernel_name();

/// Incremental SHA-256 hasher.
///
/// Usage: construct, call update() any number of times, then finalize().
/// finalize() may only be called once per instance.
class Sha256 {
 public:
  Sha256();

  /// Absorb `data` into the hash state.
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  }

  /// Complete padding and return the 32-byte digest.
  std::array<std::uint8_t, 32> finalize();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace zendoo::crypto
