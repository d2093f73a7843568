#include "mainchain/miner.hpp"

#include <optional>
#include <set>
#include <stdexcept>

namespace zendoo::mainchain {

namespace {

/// Applies one mempool item (`apply(view, batch)`, a per-item rule of
/// view.hpp) into an overlay over `block_view`, verifies its batched
/// checks, and flushes it into `block_view` iff both pass. An item that
/// fails leaves `block_view` untouched; one that fails a stateful rule
/// never has its checks verified.
template <typename Apply>
bool apply_item(CacheView& block_view, parallel::ValidationContext& vctx,
                Apply apply) {
  CacheView item_view(block_view);
  parallel::BatchProofVerifier batch(vctx);
  std::string err = apply(item_view, batch);
  if (err.empty()) err = batch.run();
  if (!err.empty()) return false;
  item_view.flush_into(block_view);
  return true;
}

}  // namespace

Block Miner::build_block(const Mempool& pool) const {
  const ChainState& state = chain_.state();
  const std::uint64_t height = state.height() + 1;
  parallel::ValidationContext& vctx = *state.validation_context();

  Block block;
  block.header.prev_hash = state.tip_hash();
  block.header.height = height;
  block.transactions.emplace_back();  // the coinbase, once fees are known

  // Every mempool signature in one batch first: the per-item batches and
  // the final dry_run then find them in the verified-check cache. A batch
  // holding a bad signature caches nothing, and each item verifies its own.
  // Without a cache the batch would only verify every signature once more.
  if (chain_.params().validation.cache_capacity != 0) {
    parallel::BatchProofVerifier signatures(vctx);
    for (const Transaction& tx : pool.transactions) {
      const Digest signing = tx.signing_digest();
      for (const TxInput& in : tx.inputs) {
        signatures.add_signature(in.pubkey, signing, in.sig, "");
      }
    }
    (void)signatures.run();
  }

  CacheView block_view(state);
  if (std::string err = finalize_epochs(block_view, height); !err.empty()) {
    throw std::logic_error("build_block: " + err);
  }

  for (const SidechainParams& sc : pool.sidechain_creations) {
    if (apply_item(block_view, vctx, [&](CacheView& v, auto&) {
          return apply_creation(v, sc, height);
        })) {
      block.sidechain_creations.push_back(sc);
    }
  }
  Amount fees = 0;
  for (const Transaction& tx : pool.transactions) {
    Amount tx_fee = 0;
    if (apply_item(block_view, vctx, [&](CacheView& v, auto& batch) {
          return apply_transaction(v, tx, &tx_fee, batch);
        })) {
      block.transactions.push_back(tx);
      fees += tx_fee;
    }
  }
  // The block's hash is not known until its body is final, so
  // certificates record a zero H(B_w) here. Only the BTR and CSW
  // statements below read it, and neither applies to a sidechain
  // certified in this block: BTRs against one are skipped, and a CSW needs
  // a ceased sidechain, which cannot be certified.
  std::set<SidechainId> certified;
  for (const WithdrawalCertificate& cert : pool.certificates) {
    // One certificate per sidechain per block (§4.1.3).
    if (certified.contains(cert.ledger_id)) continue;
    if (apply_item(block_view, vctx, [&](CacheView& v, auto& batch) {
          return apply_certificate(v, cert, height, Digest{}, batch);
        })) {
      certified.insert(cert.ledger_id);
      block.certificates.push_back(cert);
    }
  }
  for (const BtrRequest& btr : pool.btrs) {
    // Against a certificate in this block a BTR's statement reads this
    // block's hash, which commits to the BTR itself: it can never verify.
    if (certified.contains(btr.ledger_id)) continue;
    if (apply_item(block_view, vctx, [&](CacheView& v, auto& batch) {
          return apply_btr(v, btr, batch);
        })) {
      block.btrs.push_back(btr);
    }
  }
  for (const CeasedSidechainWithdrawal& csw : pool.csws) {
    if (apply_item(block_view, vctx, [&](CacheView& v, auto& batch) {
          return apply_csw(v, csw, batch);
        })) {
      block.csws.push_back(csw);
    }
  }

  Transaction& coinbase = block.transactions[0];
  coinbase.is_coinbase = true;
  coinbase.coinbase_height = height;
  coinbase.outputs.push_back(
      TxOutput{coinbase_address_, chain_.params().block_subsidy + fees});
  block.header.tx_merkle_root = block.compute_tx_merkle_root();
  block.header.sc_txs_commitment = block.build_commitment_tree().root();
  solve_pow(block, chain_.params().pow_target);

  // The TestBlockValidity check: every rule again, over the whole block.
  if (std::string err = state.dry_run(block); !err.empty()) {
    throw std::logic_error("build_block: assembled an invalid block: " + err);
  }
  return block;
}

void Miner::solve_pow(Block& block, const crypto::u256& target) {
  block.header.nonce = 0;
  while (!(block.hash().as_u256() < target)) {
    ++block.header.nonce;
  }
}

Blockchain::SubmitResult Miner::mine_and_submit(const Mempool& pool,
                                                Block* out) {
  Block block = build_block(pool);
  auto result = chain_.submit_block(block);
  if (out != nullptr) *out = std::move(block);
  return result;
}

void Miner::mine_empty(std::size_t n) {
  Mempool empty;
  for (std::size_t i = 0; i < n; ++i) {
    auto result = mine_and_submit(empty);
    if (!result.accepted()) {
      throw std::logic_error("mine_empty: submit failed: " + result.error);
    }
  }
}

std::optional<Transaction> Wallet::spend(
    const ChainState& state, Amount amount, Amount fee,
    const std::function<void(Transaction&)>& add_payload) const {
  auto coins = state.utxos_of(address());
  Transaction tx;
  Amount gathered = 0;
  Amount needed = amount + fee;
  for (const auto& [op, out] : coins) {
    if (gathered >= needed) break;
    TxInput in;
    in.prevout = op;
    tx.inputs.push_back(in);
    gathered += out.amount;
  }
  if (gathered < needed) return std::nullopt;
  add_payload(tx);
  if (gathered > needed) {
    tx.outputs.push_back(TxOutput{address(), gathered - needed});
  }
  return sign_all_inputs(std::move(tx), key_);
}

std::optional<Transaction> Wallet::pay(const ChainState& state,
                                       const Address& to, Amount amount,
                                       Amount fee) const {
  return spend(state, amount, fee, [&](Transaction& tx) {
    tx.outputs.push_back(TxOutput{to, amount});
  });
}

std::optional<Transaction> Wallet::forward_transfer(
    const ChainState& state, const SidechainId& ledger_id,
    std::vector<Digest> receiver_metadata, Amount amount, Amount fee) const {
  return spend(state, amount, fee, [&](Transaction& tx) {
    tx.forward_transfers.push_back(ForwardTransferOutput{
        ledger_id, std::move(receiver_metadata), amount});
  });
}

std::optional<Transaction> Wallet::forward_transfer_many(
    const ChainState& state, const SidechainId& ledger_id,
    const std::vector<FtSpec>& transfers, Amount fee) const {
  Amount total = 0;
  for (const FtSpec& t : transfers) total += t.amount;
  return spend(state, total, fee, [&](Transaction& tx) {
    for (const FtSpec& t : transfers) {
      tx.forward_transfers.push_back(
          ForwardTransferOutput{ledger_id, t.receiver_metadata, t.amount});
    }
  });
}

}  // namespace zendoo::mainchain
