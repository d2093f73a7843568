// Baseline: the certifiers model of the authors' previous design
// ([12] Garoffolo & Viglione, "Sidechains: Decoupled Consensus Between
// Chains", 2018), which Zendoo §1.1/§3.1 explicitly positions itself
// against.
//
// In that model a committee of n registered certifiers endorses each
// withdrawal certificate; the mainchain accepts a certificate carrying at
// least `threshold` valid certifier signatures. Mainchain verification
// cost is therefore Θ(threshold) signature checks — versus Zendoo's single
// constant-time SNARK verification. bench_wcert regenerates exactly this
// comparison.
#pragma once

#include <vector>

#include "mainchain/wcert.hpp"

namespace zendoo::core::baseline {

using crypto::Digest;
using crypto::KeyPair;
using crypto::Signature;

/// A certificate endorsement: certifier index plus their signature over
/// the certificate digest.
struct Endorsement {
  std::size_t certifier = 0;
  Signature sig;
};

/// An m-of-n certifier committee.
class CertifierScheme {
 public:
  /// Deterministically creates `n` certifier keypairs from `seed`;
  /// `threshold` endorsements are required for acceptance.
  CertifierScheme(std::size_t n, std::size_t threshold, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return certifiers_.size(); }

  /// Digest the certifiers sign: binds the same fields the Zendoo SNARK
  /// statement binds (quality, BT list, epoch boundary hashes).
  [[nodiscard]] static Digest certificate_digest(
      const mainchain::WithdrawalCertificate& cert,
      const Digest& prev_epoch_last_block, const Digest& epoch_last_block);

  /// Collect endorsements from the first `threshold` certifiers (the
  /// honest-majority happy path).
  [[nodiscard]] std::vector<Endorsement> endorse(
      const mainchain::WithdrawalCertificate& cert,
      const Digest& prev_epoch_last_block,
      const Digest& epoch_last_block) const;

  /// Mainchain-side verification in the baseline model: checks threshold,
  /// uniqueness and every signature — Θ(threshold) signature checks.
  [[nodiscard]] bool verify(const mainchain::WithdrawalCertificate& cert,
                            const Digest& prev_epoch_last_block,
                            const Digest& epoch_last_block,
                            const std::vector<Endorsement>& sigs) const;

 private:
  std::vector<KeyPair> certifiers_;
  std::size_t threshold_;
};

}  // namespace zendoo::core::baseline
