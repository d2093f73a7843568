// Rank-1 Constraint Systems (paper §2.1 Def 2.3).
//
// The paper defines a SNARK over "a set of polynomials over a finite field F
// in variables (x1..xr, y1..ys)". We implement the standard R1CS form used
// by practical SNARKs: constraints <A,z> * <B,z> = <C,z> over
// z = (1, public..., witness...), with field F = GF(n) for the secp256k1
// group order n (a 256-bit prime).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/u256.hpp"

namespace zendoo::snark {

using crypto::Digest;
using crypto::u256;

/// The SNARK field modulus (secp256k1 group order; prime).
extern const u256 kFieldModulus;

/// Field helpers over GF(kFieldModulus).
u256 fadd(const u256& a, const u256& b);
u256 fsub(const u256& a, const u256& b);
u256 fmul(const u256& a, const u256& b);
u256 freduce(const u256& a);

/// One term of a linear combination: coeff * variable.
struct LinearTerm {
  std::uint32_t var = 0;
  u256 coeff{1};
};

/// A linear combination over the variable vector z.
using LinComb = std::vector<LinearTerm>;

/// One R1CS constraint: <a, z> * <b, z> = <c, z>.
struct Constraint {
  LinComb a, b, c;
};

/// An arithmetic constraint system.
///
/// Variable 0 is the constant ONE. Public inputs are allocated first,
/// witness variables after; assignments are passed as two separate vectors
/// matching allocation order, mirroring the paper's (a, w) split.
class ConstraintSystem {
 public:
  /// Variable index of the constant 1.
  static constexpr std::uint32_t kOne = 0;

  /// Allocate the next public-input variable; returns its index.
  std::uint32_t allocate_public();
  /// Allocate the next witness variable; returns its index.
  std::uint32_t allocate_witness();

  /// Add the constraint <a,z>*<b,z> = <c,z>.
  void add_constraint(LinComb a, LinComb b, LinComb c);

  // -- Gadget helpers (each allocates witness vars / constraints) --

  /// w = x * y.
  std::uint32_t mul(std::uint32_t x, std::uint32_t y);
  /// w = x + y (as the constraint (x + y) * 1 = w).
  std::uint32_t add(std::uint32_t x, std::uint32_t y);
  /// w = x + constant.
  std::uint32_t add_const(std::uint32_t x, const u256& k);
  /// Enforce x == y.
  void enforce_equal(std::uint32_t x, std::uint32_t y);
  /// Enforce x ∈ {0, 1} via x * (x - 1) = 0.
  void enforce_boolean(std::uint32_t x);
  /// Enforce x == constant k.
  void enforce_const(std::uint32_t x, const u256& k);

  [[nodiscard]] std::size_t num_constraints() const {
    return constraints_.size();
  }
  [[nodiscard]] std::uint32_t num_public() const { return num_public_; }
  [[nodiscard]] std::uint32_t num_witness() const { return num_witness_; }
  [[nodiscard]] std::uint32_t num_variables() const {
    return 1 + num_public_ + num_witness_;
  }

  /// True iff (public_vals, witness_vals) is a satisfying assignment.
  /// Vector sizes must match the allocation counts.
  [[nodiscard]] bool is_satisfied(const std::vector<u256>& public_vals,
                                  const std::vector<u256>& witness_vals) const;

  /// Structural digest of the circuit: any change to constraints or
  /// variable counts changes the id. Used as the SNARK circuit identity.
  [[nodiscard]] Digest structure_hash() const;

 private:
  // Public vars occupy [1, num_public_]; witness [num_public_+1, ...].
  // Witness allocation is only legal after its index space is stable, so
  // we track both counters and map at evaluation time.
  std::uint32_t num_public_ = 0;
  std::uint32_t num_witness_ = 0;
  bool witness_allocated_ = false;
  std::vector<Constraint> constraints_;

  [[nodiscard]] u256 eval_lc(const LinComb& lc,
                             const std::vector<u256>& z) const;
};

}  // namespace zendoo::snark
