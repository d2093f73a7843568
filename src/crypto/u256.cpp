#include "crypto/u256.hpp"

#include <bit>
#include <stdexcept>

namespace zendoo::crypto {

int u256::highest_bit() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0) return i * 64 + (63 - std::countl_zero(limb[i]));
  }
  return -1;
}

bool u256::add_with_carry(const u256& a, const u256& b, u256& out) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 s = static_cast<unsigned __int128>(a.limb[i]) +
                          b.limb[i] + carry;
    out.limb[i] = static_cast<std::uint64_t>(s);
    carry = s >> 64;
  }
  return carry != 0;
}

bool u256::sub_with_borrow(const u256& a, const u256& b, u256& out) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 d = static_cast<unsigned __int128>(a.limb[i]) -
                          b.limb[i] - borrow;
    out.limb[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  return borrow != 0;
}

std::pair<u256, u256> u256::mul_wide(const u256& a, const u256& b) {
  std::uint64_t prod[8] = {};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      unsigned __int128 cur = static_cast<unsigned __int128>(a.limb[i]) *
                                  b.limb[j] +
                              prod[i + j] + carry;
      prod[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    prod[i + 4] = static_cast<std::uint64_t>(carry);
  }
  u256 lo{prod[0], prod[1], prod[2], prod[3]};
  u256 hi{prod[4], prod[5], prod[6], prod[7]};
  return {hi, lo};
}

u256 u256::operator<<(unsigned n) const {
  if (n >= 256) return {};
  u256 r;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 3; i >= 0; --i) {
    std::uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = limb[src] << bit_shift;
      if (bit_shift != 0 && src - 1 >= 0) {
        v |= limb[src - 1] >> (64 - bit_shift);
      }
    }
    r.limb[i] = v;
  }
  return r;
}

u256 u256::operator>>(unsigned n) const {
  if (n >= 256) return {};
  u256 r;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    unsigned src = i + limb_shift;
    if (src < 4) {
      v = limb[src] >> bit_shift;
      if (bit_shift != 0 && src + 1 < 4) {
        v |= limb[src + 1] << (64 - bit_shift);
      }
    }
    r.limb[i] = v;
  }
  return r;
}

u256 u256::mod(const u256& m) const {
  if (m.is_zero()) throw std::invalid_argument("u256::mod by zero");
  if (*this < m) return *this;
  // Binary long division: align m with the dividend's highest bit and
  // conditionally subtract while shifting back down.
  int shift = highest_bit() - m.highest_bit();
  u256 rem = *this;
  u256 d = m << static_cast<unsigned>(shift);
  for (int i = shift; i >= 0; --i) {
    if (!(rem < d)) rem = rem - d;
    d = d >> 1;
  }
  return rem;
}

u256 u256::mod_wide(const u256& hi, const u256& lo, const u256& m) {
  if (m.is_zero()) throw std::invalid_argument("u256::mod_wide by zero");
  // Process the 512-bit value bit by bit from the top, maintaining
  // rem < m as an invariant. 512 iterations of shift + conditional subtract.
  u256 rem;
  auto feed = [&](const u256& word) {
    for (int i = 255; i >= 0; --i) {
      bool top = rem.bit(255);
      rem = rem << 1;
      if (word.bit(static_cast<unsigned>(i))) rem.limb[0] |= 1;
      if (top || !(rem < m)) rem = rem - m;
    }
  };
  feed(hi);
  feed(lo);
  return rem;
}

u256 u256::mulmod(const u256& a, const u256& b, const u256& m) {
  auto [hi, lo] = mul_wide(a, b);
  return mod_wide(hi, lo, m);
}

u256 u256::addmod(const u256& a, const u256& b, const u256& m) {
  u256 r;
  bool carry = add_with_carry(a, b, r);
  if (carry || !(r < m)) r = r - m;
  return r;
}

u256 u256::submod(const u256& a, const u256& b, const u256& m) {
  u256 r;
  if (sub_with_borrow(a, b, r)) r = r + m;
  return r;
}

u256 u256::powmod(const u256& a, const u256& e, const u256& m) {
  u256 result{1};
  u256 base = a.mod(m);
  int top = e.highest_bit();
  for (int i = 0; i <= top; ++i) {
    if (e.bit(static_cast<unsigned>(i))) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
  }
  return result;
}

namespace {
int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("u256::from_hex: bad hex digit");
}
}  // namespace

u256 u256::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty() || hex.size() > 64) {
    throw std::invalid_argument("u256::from_hex: bad length");
  }
  u256 r;
  for (char c : hex) {
    r = r << 4;
    r.limb[0] |= static_cast<std::uint64_t>(hex_digit(c));
  }
  return r;
}

std::string u256::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s(64, '0');
  for (int i = 0; i < 64; ++i) {
    unsigned nibble_index = static_cast<unsigned>(63 - i) * 4;
    std::uint64_t nib = (limb[nibble_index / 64] >> (nibble_index % 64)) & 0xF;
    s[static_cast<std::size_t>(i)] = digits[nib];
  }
  return s;
}

namespace {
// The eight bytes of a big-endian word, spelled out so that the compiler
// turns each function into one 64-bit access and a byte swap.
inline std::uint64_t load_be64(const std::uint8_t* in) {
  return std::uint64_t{in[0]} << 56 | std::uint64_t{in[1]} << 48 |
         std::uint64_t{in[2]} << 40 | std::uint64_t{in[3]} << 32 |
         std::uint64_t{in[4]} << 24 | std::uint64_t{in[5]} << 16 |
         std::uint64_t{in[6]} << 8 | std::uint64_t{in[7]};
}

inline void store_be64(std::uint8_t* out, std::uint64_t word) {
  out[0] = static_cast<std::uint8_t>(word >> 56);
  out[1] = static_cast<std::uint8_t>(word >> 48);
  out[2] = static_cast<std::uint8_t>(word >> 40);
  out[3] = static_cast<std::uint8_t>(word >> 32);
  out[4] = static_cast<std::uint8_t>(word >> 24);
  out[5] = static_cast<std::uint8_t>(word >> 16);
  out[6] = static_cast<std::uint8_t>(word >> 8);
  out[7] = static_cast<std::uint8_t>(word);
}
}  // namespace

std::array<std::uint8_t, 32> u256::to_bytes_be() const {
  // The most significant limb first.
  std::array<std::uint8_t, 32> out{};
  store_be64(&out[0], limb[3]);
  store_be64(&out[8], limb[2]);
  store_be64(&out[16], limb[1]);
  store_be64(&out[24], limb[0]);
  return out;
}

u256 u256::from_bytes_be(const std::uint8_t* data) {
  return {load_be64(data + 24), load_be64(data + 16), load_be64(data + 8),
          load_be64(data)};
}

}  // namespace zendoo::crypto
