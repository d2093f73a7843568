// Latus block rules, written once: the slot leader of a height (§5.1), the
// MC reference closing a withdrawal epoch, which ends its block and keeps
// SC transactions out of it (§5.1.1), and a block item applied through the
// §5.3 update functions, optionally recorded as a transition step for the
// epoch prover. A LatusNode forges through them and a ScValidator checks
// against them, so the two agree by construction.
//
// A ScValidator replays a Latus chain block by block, independently
// re-deriving everything a forger asserts: slot-leader schedule and
// signature (§5.1), MC-reference consistency against MC headers (§5.5.1,
// including reference ordering), body commitments, and the state
// commitment reached by re-executing every transition (§5.3). A LatusNode
// produces blocks; a ScValidator is how every *other* participant checks
// them.
#pragma once

#include "latus/consensus.hpp"
#include "latus/proofs.hpp"
#include "mainchain/params.hpp"

namespace zendoo::latus {

/// The slot-leader schedule (§5.1) and its consensus-epoch cache.
struct SlotLeaders {
  /// Leader of the SC block at `height` (the first block is 1), in
  /// consensus epochs of `slots_per_epoch` slots. The first query in an
  /// epoch fixes its stake snapshot from `state`, the state before the
  /// block, and its randomness from the previous epoch's last block, whose
  /// hash `block_hash(h)` gives for its height h < `height`. While the
  /// snapshot holds no stake, `bootstrap` leads.
  template <class BlockHash>
  [[nodiscard]] Address leader(std::uint64_t height,
                               std::uint64_t slots_per_epoch,
                               const LatusState& state,
                               const Address& bootstrap,
                               BlockHash&& block_hash) {
    const std::uint64_t epoch = (height - 1) / slots_per_epoch;
    if (epoch != cached_epoch) {
      cached_epoch = epoch;
      stake = StakeDistribution(state.stake_snapshot());
      rand = epoch_randomness(
          epoch == 0 ? crypto::hash_str(Domain::kEpochRandomness, "genesis")
                     : block_hash(epoch * slots_per_epoch),
          epoch);
    }
    if (stake.empty()) return bootstrap;
    return select_slot_leader(stake, rand, epoch,
                              (height - 1) % slots_per_epoch);
  }

  std::uint64_t cached_epoch = ~0ULL;
  StakeDistribution stake;
  Digest rand;
};

/// Whether the MC block at `mc_height` is the last of withdrawal epoch
/// `epoch` of the sidechain registered with `params`.
[[nodiscard]] inline bool closes_epoch(
    const mainchain::SidechainParams& params, std::uint64_t epoch,
    std::uint64_t mc_height) {
  return mc_height >= params.start_block &&
         mc_height == params.epoch_end(epoch);
}

/// Applies one block item to `state` with `apply(state)`. With `steps`, a
/// successful application is also appended there as a transition step:
/// the pre-state and `tx`, read after `apply` filled its derived fields,
/// are its witness.
template <class Tx, class Apply>
[[nodiscard]] std::string apply_step(LatusState& state, const Tx& tx,
                                     std::vector<snark::TransitionStep>* steps,
                                     Apply&& apply) {
  if (steps == nullptr) return apply(state);
  Digest before = state.commitment();
  LatusState pre = state;
  if (std::string err = apply(state); !err.empty()) return err;
  steps->push_back(make_transition_step(
      before, state.commitment(), TransitionWitness{std::move(pre), tx}));
  return "";
}

/// Applies `ref`'s FTTx, then its BTRTx, filling their derived fields
/// (apply_step per transaction). Returns "" or the first error.
[[nodiscard]] std::string apply_mc_reference(
    LatusState& state, McBlockReference& ref,
    std::vector<snark::TransitionStep>* steps = nullptr);

class ScValidator {
 public:
  /// `params` is the sidechain's MC registration: its ledger id and
  /// withdrawal-epoch geometry. `bootstrap_forger` is the address allowed
  /// to forge while the stake distribution is empty (the pre-funding
  /// phase), mirroring LatusNode.
  ScValidator(const mainchain::SidechainParams& params, unsigned mst_depth,
              std::uint64_t slots_per_epoch, const Address& bootstrap_forger);

  /// Validate `block` as the next block of the chain and apply it.
  /// Returns "" on success; on failure the validator state is unchanged.
  [[nodiscard]] std::string accept(const ScBlock& block);

  [[nodiscard]] const LatusState& state() const { return state_; }
  [[nodiscard]] std::uint64_t height() const { return hashes_.size(); }

 private:
  mainchain::SidechainParams params_;
  std::uint64_t slots_per_epoch_;
  Address bootstrap_forger_;
  std::uint64_t current_we_ = 0;
  LatusState state_;
  /// This validator's own verified-signature memo: a block's spend
  /// signatures are verified in one batch into it, and a two-input
  /// payment's copied signature is verified once.
  crypto::SignatureMemo signature_memo_;
  std::vector<Digest> hashes_;
  /// Hash of the previously referenced MC block (reference ordering rule).
  std::optional<Digest> last_mc_ref_;
  SlotLeaders leaders_;
};

}  // namespace zendoo::latus
