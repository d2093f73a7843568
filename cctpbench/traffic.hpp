// Client-side traffic generation: the users' view of their coins, and the
// transactions they build from it. Everything here runs outside the step
// stopwatch; the program only sees the finished transactions.
//
// The generator is self-consistent, so that per-block load stays level for
// the whole run:
//  - a coin is spent at most once per block and only once confirmed;
//  - every output is placed on an MST slot that is free when the sidechain
//    applies it (positions depend only on the output nonce, which the
//    client knows before submitting), so payments and forward transfers do
//    not fail on slot collisions;
//  - the input pair of a payment the sidechain dropped is never re-picked,
//    because its outputs would be rebuilt identically.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "crypto/rng.hpp"
#include "latus/transactions.hpp"
#include "mainchain/miner.hpp"

namespace cctpbench {

namespace latus = zendoo::latus;
namespace mainchain = zendoo::mainchain;
namespace crypto = zendoo::crypto;

/// MST slots occupied when the next SC block is applied: the node's state
/// plus the effect of everything the client already queued for it.
class SlotPlan {
 public:
  explicit SlotPlan(const latus::LatusState& state) : state_(state) {}
  [[nodiscard]] bool occupied(std::uint64_t pos) const;
  void take(std::uint64_t pos) {
    freed_.erase(pos);
    taken_.insert(pos);
  }
  void free(std::uint64_t pos) {
    taken_.erase(pos);
    freed_.insert(pos);
  }
  [[nodiscard]] unsigned depth() const { return state_.depth(); }

 private:
  const latus::LatusState& state_;
  std::unordered_set<std::uint64_t> taken_, freed_;
};

/// MST slot the sidechain gives the `index`-th forward transfer of MC
/// transaction `txid` (mirrors the FT output nonce of
/// latus::apply_forward_transfers).
[[nodiscard]] std::uint64_t ft_slot(const mainchain::ForwardTransferOutput& ft,
                                    const Digest& txid, std::uint32_t index,
                                    unsigned depth);

/// Reserves the slots of every FT in `tx` bound for `ledger`; false (and
/// nothing reserved) when one would collide.
bool reserve_ft_slots(const mainchain::Transaction& tx,
                      const mainchain::SidechainId& ledger, SlotPlan& plan);

/// Builds one signed MC transaction carrying `specs` as forward transfers
/// from `wallet` to `ledger`, whose SC outputs all land on free slots:
/// on a predicted collision the first amount is bumped by one unit (which
/// changes the txid and so every slot) and the transaction rebuilt.
/// Returns nullopt when the wallet lacks funds.
std::optional<mainchain::Transaction> build_ft_tx(
    const mainchain::Wallet& wallet, const mainchain::ChainState& state,
    const mainchain::SidechainId& ledger,
    std::vector<mainchain::Wallet::FtSpec> specs, SlotPlan& plan,
    std::uint64_t* signatures);

/// The users of one Latus sidechain and their confirmed coins.
class ScWallet {
 public:
  explicit ScWallet(std::vector<crypto::KeyPair> users);

  [[nodiscard]] const std::vector<crypto::KeyPair>& users() const {
    return users_;
  }

  /// Re-reads every confirmed coin from the node's state.
  void sync(const latus::LatusState& state);

  /// Builds up to `n` two-in/two-out payments between random users, each
  /// from coins no earlier transaction of this batch spends, with outputs
  /// on slots free in `plan` (which they then reserve).
  std::vector<latus::PaymentTx> payments(std::size_t n, crypto::Rng& rng,
                                         SlotPlan& plan);
  /// Builds `n` backward transfers, each burning one whole coin of a random
  /// user to that user's MC address. Call before payments(): the coins it
  /// burns are then no longer offered to payments.
  std::vector<latus::BackwardTransferTx> backward_transfers(std::size_t n,
                                                            crypto::Rng& rng);

  /// Marks a payment the sidechain did not apply: its input pair is never
  /// picked again.
  void note_dropped(const latus::PaymentTx& tx);

  /// Signatures made so far (client side).
  [[nodiscard]] std::uint64_t signatures() const { return signatures_; }

 private:
  /// A random user holding at least `min_coins` unspent coins this batch.
  const crypto::KeyPair* pick_user(crypto::Rng& rng, std::size_t min_coins);
  [[nodiscard]] static Digest pair_key(const latus::Utxo& a,
                                       const latus::Utxo& b);

  std::vector<crypto::KeyPair> users_;
  std::unordered_map<Digest, std::size_t, crypto::DigestHash> index_of_;
  /// Per user: coins confirmed in the state and not yet spent this batch.
  std::vector<std::vector<latus::Utxo>> coins_;
  std::unordered_set<Digest, crypto::DigestHash> dropped_pairs_;
  std::uint64_t signatures_ = 0;
};

/// MC wallets of a user population: confirmed coins per user, spent two
/// at a time, at most once per block.
class McWallets {
 public:
  explicit McWallets(std::vector<crypto::KeyPair> users);

  [[nodiscard]] const std::vector<crypto::KeyPair>& users() const {
    return users_;
  }
  /// Re-reads every user's confirmed coins (sorted by outpoint).
  void sync(const mainchain::ChainState& state);

  /// Two-in/two-out payment: `receiver` gets a random share, the payer the
  /// change. Nullopt when the payer has no coins left this block.
  std::optional<mainchain::Transaction> payment(
      std::size_t payer, const mainchain::Address& receiver,
      crypto::Rng& rng);
  /// Two-in forward transfer to `ledger` (change back to the payer) whose
  /// SC output lands on a slot free in `plan`.
  std::optional<mainchain::Transaction> forward_transfer(
      std::size_t payer, const mainchain::SidechainId& ledger,
      const mainchain::Address& sc_receiver, SlotPlan& plan,
      crypto::Rng& rng);

  [[nodiscard]] std::uint64_t signatures() const { return signatures_; }

 private:
  /// Removes up to two random coins of `user` from this block's pool.
  std::vector<std::pair<mainchain::OutPoint, mainchain::TxOutput>>
  take_inputs(std::size_t user, crypto::Rng& rng);
  mainchain::Transaction sign(std::size_t user, mainchain::Transaction tx);

  std::vector<crypto::KeyPair> users_;
  std::vector<std::vector<std::pair<mainchain::OutPoint, mainchain::TxOutput>>>
      coins_;
  std::uint64_t signatures_ = 0;
};

}  // namespace cctpbench
