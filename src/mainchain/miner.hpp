// Block assembly and proof-of-work mining, plus a minimal wallet used by
// examples and tests to build signed payment / forward-transfer
// transactions.
#pragma once

#include <functional>

#include "mainchain/chain.hpp"

namespace zendoo::mainchain {

/// Pending items awaiting inclusion in a block. Assembly offers them in
/// apply_block's category order (creations, transactions, certificates,
/// BTRs, CSWs) and, within a category, in vector order; an item that does
/// not validate after the ones kept before it is left out (mempool
/// policy).
struct Mempool {
  std::vector<Transaction> transactions;
  std::vector<SidechainParams> sidechain_creations;
  std::vector<WithdrawalCertificate> certificates;
  std::vector<BtrRequest> btrs;
  std::vector<CeasedSidechainWithdrawal> csws;

  void clear() {
    transactions.clear();
    sidechain_creations.clear();
    certificates.clear();
    btrs.clear();
    csws.clear();
  }

  [[nodiscard]] bool empty() const {
    return transactions.empty() && sidechain_creations.empty() &&
           certificates.empty() && btrs.empty() && csws.empty();
  }
};

/// Builds and mines blocks on top of a Blockchain's active tip.
class Miner {
 public:
  Miner(Blockchain& chain, Address coinbase_address)
      : chain_(chain), coinbase_address_(coinbase_address) {}

  /// Assemble a valid block from `pool` on the current tip in one pass,
  /// the shape of Bitcoin Core's BlockAssembler. The input signatures of
  /// every mempool transaction are verified first, in one batch that
  /// primes the verified-check cache. Epochs are finalized once into a
  /// block overlay. Each item is applied with apply_block's per-item rules
  /// into a nested overlay, with its own proof batch, and kept iff it
  /// validates; its signatures are cache hits. A second certificate for
  /// one sidechain is skipped, and so is a BTR against a certificate in
  /// this block. Then the coinbase claims subsidy + the fees of the kept
  /// transactions, both header commitments are computed, and the nonce is
  /// mined. A final dry_run of the finished block plays TestBlockValidity:
  /// it throws std::logic_error if the block is invalid, which is a bug.
  [[nodiscard]] Block build_block(const Mempool& pool) const;

  /// Build from `pool`, mine, and submit. Returns the submit result and,
  /// via `out`, the block (useful for driving sidechain sync).
  Blockchain::SubmitResult mine_and_submit(const Mempool& pool,
                                           Block* out = nullptr);

  /// Convenience: mine `n` empty blocks.
  void mine_empty(std::size_t n);

  /// Brute-force the header nonce until the hash meets `target`.
  static void solve_pow(Block& block, const crypto::u256& target);

 private:
  Blockchain& chain_;
  Address coinbase_address_;
};

/// Minimal key-bound wallet over the chain state: tracks nothing, just
/// queries the UTXO set for spendable outputs of its address.
class Wallet {
 public:
  explicit Wallet(crypto::KeyPair key) : key_(std::move(key)) {}

  [[nodiscard]] const crypto::KeyPair& key() const { return key_; }
  [[nodiscard]] Address address() const { return key_.address(); }
  [[nodiscard]] Amount balance(const ChainState& state) const {
    return state.balance_of(address());
  }

  /// Build a signed payment of `amount` to `to`, change back to self.
  /// Returns nullopt when funds are insufficient.
  [[nodiscard]] std::optional<Transaction> pay(const ChainState& state,
                                               const Address& to,
                                               Amount amount,
                                               Amount fee = 0) const;

  /// Build a signed forward transfer of `amount` to sidechain `ledger_id`
  /// (§4.1.1), change back to self.
  [[nodiscard]] std::optional<Transaction> forward_transfer(
      const ChainState& state, const SidechainId& ledger_id,
      std::vector<Digest> receiver_metadata, Amount amount,
      Amount fee = 0) const;

  /// Build one signed transaction carrying several forward transfers (all
  /// to the same sidechain), e.g. a funding round for many receivers.
  struct FtSpec {
    std::vector<Digest> receiver_metadata;
    Amount amount = 0;
  };
  [[nodiscard]] std::optional<Transaction> forward_transfer_many(
      const ChainState& state, const SidechainId& ledger_id,
      const std::vector<FtSpec>& transfers, Amount fee = 0) const;

 private:
  [[nodiscard]] std::optional<Transaction> spend(
      const ChainState& state, Amount amount, Amount fee,
      const std::function<void(Transaction&)>& add_payload) const;

  crypto::KeyPair key_;
};

}  // namespace zendoo::mainchain
