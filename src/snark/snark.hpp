// Simulated SNARK proving systems (paper §2.1 Def 2.3).
//
// Two provers share one verification interface:
//
//   * R1csSnark      — proves satisfiability of an explicit R1CS circuit;
//                      used where circuits are small enough to express
//                      directly (bench_snark, demo circuits).
//   * PredicateSnark — the "compiled circuit" simulation: the circuit is an
//                      arbitrary C++ predicate over (statement, witness).
//                      This stands in for the sidechain-defined SNARKs the
//                      paper registers at sidechain creation (wcert_vk,
//                      btr_vk, csw_vk), whose circuits are far too large to
//                      hand-write as R1CS.
//
// Simulation model: Setup deposits a secret in a process-global oracle
// keyed by the key id; Prove checks that the witness actually satisfies the
// circuit and only then emits the 32-byte binding proof
// = H(secret ‖ circuit ‖ statement); Verify recomputes it. A predicate
// circuit travels in the proving key its setup returns, not in the oracle,
// so every prover runs the circuit instance it set up (two nodes of one
// sidechain share keys, but each circuit captures its own node's state).
// Completeness, knowledge-soundness (no path constructs a valid proof
// without a satisfying witness, short of guessing a 256-bit MAC) and
// succinctness (constant proof size, O(|statement|) verification) all hold.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hash.hpp"
#include "snark/r1cs.hpp"

namespace zendoo::snark {

/// Constant-size (32-byte) proof, as Def 2.3's succinctness requires.
struct Proof {
  Digest binding;

  friend bool operator==(const Proof&, const Proof&) = default;

  /// Digest of the proof itself (for inclusion in tx/certificate hashes).
  [[nodiscard]] Digest hash() const {
    return crypto::Hasher(crypto::Domain::kSnarkProof)
        .write(binding)
        .finalize();
  }
};

/// Opaque verification-key handle, registered with the mainchain at
/// sidechain creation (paper §4.2). A null key disables the operation
/// (paper §4.1.2.1: "by setting vkBTR and vkCSW to NULL").
struct VerifyingKey {
  Digest id;

  [[nodiscard]] bool is_null() const { return id.is_zero(); }
  static VerifyingKey null() { return VerifyingKey{}; }

  friend bool operator==(const VerifyingKey&, const VerifyingKey&) = default;
};

/// Public input: an ordered list of digests (the paper passes
/// (wcert_sysdata, MH(proofdata)) — all digests/integers, which callers
/// encode as digests).
using Statement = std::vector<Digest>;

/// Type-erased witness for predicate circuits.
using Witness = std::any;

/// A "compiled circuit": decides whether witness satisfies the relation
/// for the given statement.
using Predicate = std::function<bool(const Statement&, const Witness&)>;

/// Opaque proving-key handle. Only the holder can produce proofs. A
/// PredicateSnark key also holds the circuit its setup compiled, which
/// only setup can put there; copies of the key share that circuit.
class ProvingKey {
 public:
  ProvingKey() = default;
  explicit ProvingKey(const Digest& key_id) : id(key_id) {}

  Digest id;

 private:
  friend class PredicateSnark;
  std::shared_ptr<const Predicate> circuit_;
};

/// SNARK over an arbitrary predicate circuit.
class PredicateSnark {
 public:
  /// Bootstrap the proving system for `circuit`. `label` seeds the key
  /// material so setups are deterministic per label (and distinct across
  /// labels).
  static std::pair<ProvingKey, VerifyingKey> setup(Predicate circuit,
                                                   std::string label);

  /// Produce a proof, or nullopt if (statement, witness) does not satisfy
  /// the circuit — the simulated equivalent of "no valid proof exists".
  static std::optional<Proof> prove(const ProvingKey& pk,
                                    const Statement& statement,
                                    const Witness& witness);

  /// The unified verifier interface used by the mainchain (§4.1.2):
  /// constant-time in circuit size. A null key verifies nothing.
  static bool verify(const VerifyingKey& vk, const Statement& statement,
                     const Proof& proof);
};

/// SNARK over an explicit R1CS constraint system.
class R1csSnark {
 public:
  /// Bootstrap for circuit `cs` (Def 2.3's Setup(C, 1^λ)).
  static std::pair<ProvingKey, VerifyingKey> setup(
      std::shared_ptr<const ConstraintSystem> cs, std::string label);

  /// π ← Prove(pk, a, w); nullopt when (a, w) does not satisfy C.
  static std::optional<Proof> prove(const ProvingKey& pk,
                                    const std::vector<u256>& public_input,
                                    const std::vector<u256>& witness);

  /// true/false ← Verify(vk, a, π).
  static bool verify(const VerifyingKey& vk,
                     const std::vector<u256>& public_input,
                     const Proof& proof);
};

/// Statement helpers: encode common protocol values as statement digests.
Digest statement_u64(std::uint64_t v);
Digest statement_field(const u256& v);

}  // namespace zendoo::snark
