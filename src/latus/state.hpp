// Latus accounting model and system state (paper §5.2).
//
// The state is a fixed-depth Merkle State Tree of UTXO slots plus the
// transient list of backward transfers initiated in the current withdrawal
// epoch: state_t = (MST_t, backward_transfers_t). The state commitment
// s = H(state) feeds the recursive transition proofs of §5.4.
#pragma once

#include <optional>
#include <vector>

#include "crypto/ecc.hpp"
#include "mainchain/wcert.hpp"
#include "merkle/mst.hpp"

namespace zendoo::latus {

using crypto::Digest;
using crypto::Domain;
using mainchain::Address;
using mainchain::Amount;

/// An unspent output in the Latus ledger: (addr, amount, nonce) per §5.2.
/// A LatusState keeps each one in its MST leaf, as the leaf's payload, so
/// the slot's digest (hash()) and its UTXO are one record.
struct Utxo {
  Address addr;
  Amount amount = 0;
  /// Unique identifier; also determines the MST slot.
  Digest nonce;

  friend bool operator==(const Utxo&, const Utxo&) = default;

  /// Leaf digest stored in the MST.
  [[nodiscard]] Digest hash() const {
    return crypto::Hasher(Domain::kUtxo)
        .write(addr)
        .write_u64(amount)
        .write(nonce)
        .finalize();
  }

  /// Nullifier for mainchain-managed withdrawals (Defs 4.5/4.6: "nullifier
  /// is the hash of the utxo").
  [[nodiscard]] Digest nullifier() const {
    return crypto::Hasher(Domain::kNullifier).write(hash()).finalize();
  }
};

/// MST_Position (§5.2): deterministic, state-independent slot of a UTXO.
[[nodiscard]] std::uint64_t mst_position(const Utxo& utxo, unsigned depth);

/// The Latus system state.
///
/// Mutating operations are all-or-nothing per transaction: on failure the
/// state is unchanged and a diagnostic is returned. Every slot mutation is
/// recorded in the current mst_delta (Appendix A).
///
/// The MST is the only store of the UTXO set: each occupied leaf carries its
/// UTXO, a lookup walks the slot's path and the whole-set reads walk the
/// occupied leaves. A copy therefore shares every UTXO with its source and
/// duplicates only the epoch's BT list and the dense mst_delta.
class LatusState {
 public:
  explicit LatusState(unsigned mst_depth);

  [[nodiscard]] unsigned depth() const { return mst_.depth(); }
  [[nodiscard]] const merkle::MerkleStateTree& mst() const { return mst_; }
  [[nodiscard]] const std::vector<mainchain::BackwardTransfer>&
  backward_transfers() const {
    return backward_transfers_;
  }
  [[nodiscard]] const merkle::MstDelta& delta() const { return delta_; }

  /// s = H(state) = H(mst_root ‖ MH(backward_transfers)); the digest the
  /// recursive SNARKs range over (§5.4).
  [[nodiscard]] Digest commitment() const;

  /// MH(backward_transfers): Merkle root over the current BT list — equals
  /// WithdrawalCertificate::bt_list_root() for the same list.
  [[nodiscard]] Digest bt_list_root() const;

  /// Look up the full UTXO occupying `pos`, if any.
  [[nodiscard]] std::optional<Utxo> utxo_at(std::uint64_t pos) const;
  /// True iff `utxo` is currently in the state (slot occupied by its hash).
  [[nodiscard]] bool contains(const Utxo& utxo) const;
  /// Total coins in the MST.
  [[nodiscard]] Amount total_supply() const;
  /// Coins owned by `addr` (stake snapshot source for consensus).
  [[nodiscard]] Amount balance_of(const Address& addr) const;
  /// All UTXOs owned by `addr`.
  [[nodiscard]] std::vector<Utxo> utxos_of(const Address& addr) const;
  /// All (address, balance) pairs — the stake distribution snapshot.
  [[nodiscard]] std::vector<std::pair<Address, Amount>> stake_snapshot()
      const;

  // ---- Raw slot operations (used by tx application) ----

  /// Insert `utxo` at its deterministic position. Fails on slot collision
  /// (§5.3.2: a collision is a forward-transfer failure mode).
  [[nodiscard]] bool insert_utxo(const Utxo& utxo);
  /// Remove `utxo` (must match the occupant exactly).
  [[nodiscard]] bool remove_utxo(const Utxo& utxo);
  /// Append a backward transfer to the epoch's transient list.
  void push_backward_transfer(const mainchain::BackwardTransfer& bt);

  /// New withdrawal epoch (§5.2.1): clears backward_transfers and returns
  /// the epoch's final mst_delta, resetting it.
  merkle::MstDelta begin_withdrawal_epoch();

 private:
  merkle::MerkleStateTree mst_;
  std::vector<mainchain::BackwardTransfer> backward_transfers_;
  merkle::MstDelta delta_;
};

}  // namespace zendoo::latus
