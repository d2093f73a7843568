#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_kernel.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace zendoo::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return std::rotr(x, static_cast<int>(n));
}

#if defined(__x86_64__)

// The SHA instructions keep the state as two vectors, ABEF and CDGH (a in
// the top lane), and take message words as four-word vectors W[0..15].
// The functions below are compiled for the extensions whatever the build
// flags say; x86_sha() calls them only once CPUID has reported them.

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return ssse3_sse41 && (ebx & bit_SHA);
}

// Rounds 4i..4i+3 on message words `w` = W[i], with k = &K[4i].
__attribute__((target("sha,sse4.1"))) inline void quad_round(
    __m128i& abef, __m128i& cdgh, __m128i w, const std::uint32_t* k) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[i+1] from W[i-3] (already through sha256msg1 with W[i-2]), W[i-1] and
// W[i].
__attribute__((target("sha,sse4.1"))) inline __m128i next_words(
    __m128i w_im3, __m128i w_im1, __m128i w_i) {
  return _mm_sha256msg2_epu32(
      _mm_add_epi32(w_im3, _mm_alignr_epi8(w_i, w_im1, 4)), w_i);
}

__attribute__((target("sha,sse4.1"))) void transform_x86_sha(
    std::uint32_t* state, const std::uint8_t* block) {
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // Big-endian bytes to host-order words.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // w[i % 4] holds W[i] at step i: loaded from the block for i < 4, derived
  // at step i - 1 after that. The step derives W[i+1] into the slot of
  // W[i-3], then runs sha256msg1 on W[i-1], which W[i+1] no longer needs
  // and W[i+3] will.
  __m128i w[4] = {};
#pragma GCC unroll 16
  for (std::size_t i = 0; i < 16; ++i) {
    if (i < 4) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          byte_swap);
    }
    quad_round(abef, cdgh, w[i % 4], &kRoundConstants[4 * i]);
    if (i >= 3 && i < 15) {
      w[(i + 1) % 4] = next_words(w[(i + 1) % 4], w[(i + 3) % 4], w[i % 4]);
    }
    if (i >= 1 && i < 13) {
      w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
    }
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // defined(__x86_64__)

}  // namespace

namespace sha256_kernel {

void transform_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

Transform x86_sha() {
#if defined(__x86_64__)
  // A function-local static, not a namespace-scope one, so that static
  // initializers in other translation units that hash find it set.
  static const Transform kernel =
      cpu_has_sha_extensions() ? transform_x86_sha : nullptr;
  return kernel;
#else
  return nullptr;
#endif
}

}  // namespace sha256_kernel

namespace {

sha256_kernel::Transform selected_kernel() {
  const sha256_kernel::Transform sha = sha256_kernel::x86_sha();
  return sha != nullptr ? sha : sha256_kernel::transform_portable;
}

}  // namespace

std::string_view sha256_kernel_name() {
  return selected_kernel() == sha256_kernel::transform_portable ? "portable"
                                                                : "x86-sha";
}

Sha256::Sha256() : state_(kInitState) {}

void Sha256::process_block(const std::uint8_t* block) {
  selected_kernel()(state_.data(), block);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ != 0) {
    std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

std::array<std::uint8_t, 32> Sha256::finalize() {
  // update() leaves fewer than 64 bytes buffered. Pad in place: 0x80, zeros,
  // and the 64-bit big-endian bit length in the last eight bytes, which
  // takes a second block when the 0x80 lands past byte 55.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_] = 0x80;
  std::memset(buffer_.data() + buffer_len_ + 1, 0, 63 - buffer_len_);
  if (buffer_len_ >= 56) {
    process_block(buffer_.data());
    buffer_.fill(0);
  }
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  process_block(buffer_.data());

  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

}  // namespace zendoo::crypto
