// Independent sidechain block validation — the "receiving node" role.
//
// A ScValidator replays a Latus chain block by block, independently
// re-deriving everything a forger asserts: slot-leader schedule and
// signature (§5.1), MC-reference consistency against MC headers (§5.5.1,
// including reference ordering), body commitments, and the state
// commitment reached by re-executing every transition (§5.3). A LatusNode
// produces blocks; a ScValidator is how every *other* participant checks
// them.
#pragma once

#include "latus/block.hpp"
#include "latus/consensus.hpp"

namespace zendoo::latus {

class ScValidator {
 public:
  /// `bootstrap_forger` is the address allowed to forge while the stake
  /// distribution is empty (the pre-funding phase), mirroring LatusNode.
  /// `start_block`/`epoch_len` are the withdrawal-epoch geometry from the
  /// sidechain's MC registration — needed to mirror the per-epoch reset of
  /// the transient state (§5.2.1).
  ScValidator(const SidechainId& ledger_id, unsigned mst_depth,
              std::uint64_t slots_per_epoch, const Address& bootstrap_forger,
              std::uint64_t start_block, std::uint64_t epoch_len);

  /// Validate `block` as the next block of the chain and apply it.
  /// Returns "" on success; on failure the validator state is unchanged.
  [[nodiscard]] std::string accept(const ScBlock& block);

  [[nodiscard]] const LatusState& state() const { return state_; }
  [[nodiscard]] std::uint64_t height() const { return hashes_.size(); }
  [[nodiscard]] const Digest& tip_hash() const {
    static const Digest zero{};
    return hashes_.empty() ? zero : hashes_.back();
  }

 private:
  [[nodiscard]] Address expected_leader(std::uint64_t new_height);

  SidechainId ledger_id_;
  std::uint64_t slots_per_epoch_;
  Address bootstrap_forger_;
  std::uint64_t start_block_;
  std::uint64_t epoch_len_;
  std::uint64_t current_we_ = 0;
  LatusState state_;
  /// This validator's own verified-signature memo (a block's two-input
  /// payments verify their copied signature once).
  crypto::SignatureMemo signature_memo_;
  std::vector<Digest> hashes_;
  /// Hash of the previously referenced MC block (reference ordering rule).
  std::optional<Digest> last_mc_ref_;
  // Consensus-epoch snapshot cache (rebuilt on epoch change).
  std::uint64_t cached_epoch_ = ~0ULL;
  StakeDistribution epoch_stake_;
  Digest epoch_rand_;
};

}  // namespace zendoo::latus
