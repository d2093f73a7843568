// The SHA-256 compression kernels behind `Sha256`.
//
// `Sha256` runs every 64-byte block through `x86_sha()` when there is one,
// else through `transform_portable`, and `sha256_kernel_name()` says which.
// The declarations live here, apart from `sha256.hpp`, so tests can run
// each kernel on its own; no other code needs them.
#pragma once

#include <cstdint>

namespace zendoo::crypto::sha256_kernel {

/// One SHA-256 compression: folds the 64-byte `block` into the eight-word
/// `state` (FIPS 180-4 §6.2.2, words in host order).
using Transform = void (*)(std::uint32_t* state, const std::uint8_t* block);

/// The portable C++ rounds. Runs on every host, and is the reference the
/// other kernel is tested against.
void transform_portable(std::uint32_t* state, const std::uint8_t* block);

/// The x86-64 SHA-extensions kernel, or nullptr when this process runs on
/// a CPU without SHA, SSSE3 and SSE4.1, or was built for another
/// architecture. CPUID is read on the first call only.
Transform x86_sha();

}  // namespace zendoo::crypto::sha256_kernel
