#include "latus/transactions.hpp"

#include <unordered_set>

namespace zendoo::latus {

namespace {

using crypto::Hasher;

void write_inputs(Hasher& h, const std::vector<SignedInput>& inputs,
                  bool with_signatures) {
  h.write_u64(inputs.size());
  for (const SignedInput& in : inputs) {
    h.write(in.utxo.hash());
    h.write(in.pubkey.first).write(in.pubkey.second);
    if (with_signatures) {
      h.write(in.sig.rx).write(in.sig.ry).write(in.sig.s);
    }
  }
}

void write_utxos(Hasher& h, const std::vector<Utxo>& utxos) {
  h.write_u64(utxos.size());
  for (const Utxo& u : utxos) h.write(u.hash());
}

void write_bts(Hasher& h,
               const std::vector<mainchain::BackwardTransfer>& bts) {
  h.write_u64(bts.size());
  for (const auto& bt : bts) h.write(bt.receiver).write_u64(bt.amount);
}

/// Shared validation for signature-authorized spends (PaymentTx / BTTx).
/// Inputs that carry one copied signature verify it once: the second input
/// hits the memo.
std::string validate_spend(const LatusState& state,
                           const std::vector<SignedInput>& inputs,
                           const Digest& signing_digest,
                           unsigned __int128 total_out,
                           crypto::SignatureMemo& memo) {
  if (inputs.empty()) return "transaction has no inputs";
  std::unordered_set<std::uint64_t> spent_slots;
  unsigned __int128 total_in = 0;
  for (const SignedInput& in : inputs) {
    std::uint64_t pos = mst_position(in.utxo, state.depth());
    if (!spent_slots.insert(pos).second) return "duplicate input";
    if (!state.contains(in.utxo)) return "input not in the MST";
    if (crypto::address_of(in.pubkey) != in.utxo.addr) {
      return "input public key does not match UTXO address";
    }
    if (!memo.verify(in.pubkey, signing_digest, in.sig)) {
      return "invalid input signature";
    }
    total_in += in.utxo.amount;
  }
  if (total_in < total_out) return "transaction spends more than its inputs";
  return "";
}

}  // namespace

Digest PaymentTx::signing_digest() const {
  Hasher h(Domain::kTxId);
  h.write_str("latus-payment");
  write_inputs(h, inputs, /*with_signatures=*/false);
  write_utxos(h, outputs);
  return h.finalize();
}

Digest PaymentTx::id() const {
  Hasher h(Domain::kTxId);
  h.write_str("latus-payment");
  write_inputs(h, inputs, /*with_signatures=*/true);
  write_utxos(h, outputs);
  return h.finalize();
}

Digest ForwardTransfersTx::id() const {
  Hasher h(Domain::kTxId);
  h.write_str("latus-ft");
  h.write(mc_block_id);
  h.write_u64(fts.size());
  for (const SyncedForwardTransfer& s : fts) h.write(s.leaf());
  return h.finalize();
}

Digest BackwardTransferTx::signing_digest() const {
  Hasher h(Domain::kTxId);
  h.write_str("latus-bt");
  write_inputs(h, inputs, /*with_signatures=*/false);
  write_bts(h, backward_transfers);
  return h.finalize();
}

Digest BackwardTransferTx::id() const {
  Hasher h(Domain::kTxId);
  h.write_str("latus-bt");
  write_inputs(h, inputs, /*with_signatures=*/true);
  write_bts(h, backward_transfers);
  return h.finalize();
}

Digest BtrTx::id() const {
  Hasher h(Domain::kTxId);
  h.write_str("latus-btr");
  h.write(mc_block_id);
  h.write_u64(requests.size());
  for (const auto& r : requests) h.write(r.hash());
  return h.finalize();
}

Digest tx_id(const TxVariant& tx) {
  return std::visit([](const auto& t) { return t.id(); }, tx);
}

std::string apply_payment(LatusState& state, const PaymentTx& tx,
                          crypto::SignatureMemo& memo) {
  unsigned __int128 total_out = 0;
  for (const Utxo& o : tx.outputs) total_out += o.amount;
  if (std::string err = validate_spend(state, tx.inputs, tx.signing_digest(),
                                       total_out, memo);
      !err.empty()) {
    return err;
  }
  // Output slots must be free once inputs are removed; work on a copy so
  // failure leaves the state untouched.
  LatusState tmp = state;
  for (const SignedInput& in : tx.inputs) {
    if (!tmp.remove_utxo(in.utxo)) return "input vanished during apply";
  }
  for (const Utxo& o : tx.outputs) {
    if (!tmp.insert_utxo(o)) {
      return "output position collision in the MST";
    }
  }
  state = std::move(tmp);
  return "";
}

std::string apply_forward_transfers(LatusState& state,
                                    ForwardTransfersTx& tx) {
  // FTTx never fails as a whole: each FT either credits a new UTXO or is
  // refunded via a backward transfer (§5.3.2).
  tx.outputs.clear();
  tx.rejected_transfers.clear();
  for (const SyncedForwardTransfer& synced : tx.fts) {
    const auto& meta = synced.ft.receiver_metadata;
    bool well_formed = meta.size() == 2;  // [receiverAddr, paybackAddr]
    bool credited = false;
    if (well_formed) {
      Utxo utxo;
      utxo.addr = meta[0];
      utxo.amount = synced.ft.amount;
      // Nonce derives from the commitment leaf: globally unique per FT.
      utxo.nonce = crypto::Hasher(Domain::kUtxo)
                       .write_str("ft-output")
                       .write(synced.leaf())
                       .finalize();
      if (state.insert_utxo(utxo)) {  // may fail on slot collision
        tx.outputs.push_back(utxo);
        credited = true;
      }
    }
    if (!credited) {
      // Refund to the payback address (fall back to any metadata entry; a
      // completely empty metadata leaves the coins stranded in the SC
      // balance — the documented cost of a malformed transfer).
      if (!meta.empty()) {
        mainchain::BackwardTransfer refund{meta.size() == 2 ? meta[1]
                                                            : meta[0],
                                           synced.ft.amount};
        tx.rejected_transfers.push_back(refund);
        state.push_backward_transfer(refund);
      }
    }
  }
  return "";
}

std::string apply_backward_transfer(LatusState& state,
                                    const BackwardTransferTx& tx,
                                    crypto::SignatureMemo& memo) {
  if (tx.backward_transfers.empty()) {
    return "backward transfer transaction with no transfers";
  }
  unsigned __int128 total_out = 0;
  for (const auto& bt : tx.backward_transfers) total_out += bt.amount;
  if (std::string err = validate_spend(state, tx.inputs, tx.signing_digest(),
                                       total_out, memo);
      !err.empty()) {
    return err;
  }
  for (const SignedInput& in : tx.inputs) {
    if (!state.remove_utxo(in.utxo)) return "input vanished during apply";
  }
  for (const auto& bt : tx.backward_transfers) {
    state.push_backward_transfer(bt);
  }
  return "";
}

std::string apply_btr(LatusState& state, BtrTx& tx) {
  // Invalid BTRs are rejected without failing the whole transaction
  // (§5.3.4: "Such BTRs are rejected by the sidechain").
  tx.consumed_inputs.clear();
  tx.backward_transfers.clear();
  for (const mainchain::BtrRequest& req : tx.requests) {
    auto utxo = decode_utxo_proofdata(req.proofdata);
    if (!utxo) continue;                           // malformed proofdata
    if (!state.contains(*utxo)) continue;          // already spent (double spend)
    if (utxo->amount != req.amount) continue;      // amount mismatch
    if (utxo->nullifier() != req.nullifier) continue;
    if (!state.remove_utxo(*utxo)) continue;
    mainchain::BackwardTransfer bt{req.receiver, req.amount};
    state.push_backward_transfer(bt);
    tx.consumed_inputs.push_back(*utxo);
    tx.backward_transfers.push_back(bt);
  }
  return "";
}

std::string apply_transaction(LatusState& state, TxVariant& tx,
                              crypto::SignatureMemo& memo) {
  return std::visit(
      [&](auto& t) -> std::string {
        using T = std::decay_t<decltype(t)>;
        if constexpr (std::is_same_v<T, PaymentTx>) {
          return apply_payment(state, t, memo);
        } else if constexpr (std::is_same_v<T, ForwardTransfersTx>) {
          return apply_forward_transfers(state, t);
        } else if constexpr (std::is_same_v<T, BackwardTransferTx>) {
          return apply_backward_transfer(state, t, memo);
        } else {
          return apply_btr(state, t);
        }
      },
      tx);
}

void prime_spend_signatures(std::span<const PaymentTx> payments,
                            std::span<const BackwardTransferTx> bts,
                            crypto::SignatureMemo& memo) {
  std::vector<crypto::SignatureCheck> checks;
  auto add = [&](const std::vector<SignedInput>& inputs,
                 const Digest& signing_digest) {
    for (const SignedInput& in : inputs) {
      checks.push_back({in.pubkey, signing_digest, in.sig});
    }
  };
  for (const PaymentTx& tx : payments) add(tx.inputs, tx.signing_digest());
  for (const BackwardTransferTx& tx : bts) add(tx.inputs, tx.signing_digest());
  memo.prime(checks);
}

namespace {

/// Unique, deterministic nonces for newly created outputs: derived from the
/// spent inputs (which can never be spent again) and the output index.
Digest output_nonce(const std::vector<Utxo>& inputs, std::size_t index) {
  Hasher h(Domain::kUtxo);
  h.write_str("payment-output");
  h.write_u64(inputs.size());
  for (const Utxo& in : inputs) h.write(in.hash());
  h.write_u64(index);
  return h.finalize();
}

}  // namespace

PaymentTx build_payment(const std::vector<Utxo>& inputs,
                        const crypto::KeyPair& key,
                        const std::vector<OutputSpec>& outputs) {
  PaymentTx tx;
  for (const Utxo& in : inputs) {
    tx.inputs.push_back(SignedInput{in, key.public_key(), {}});
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    tx.outputs.push_back(
        Utxo{outputs[i].addr, outputs[i].amount, output_nonce(inputs, i)});
  }
  Digest msg = tx.signing_digest();
  crypto::Signature sig = key.sign(msg);
  for (SignedInput& in : tx.inputs) in.sig = sig;
  return tx;
}

BackwardTransferTx build_backward_transfer(
    const std::vector<Utxo>& inputs, const crypto::KeyPair& key,
    const std::vector<mainchain::BackwardTransfer>& bts) {
  BackwardTransferTx tx;
  for (const Utxo& in : inputs) {
    tx.inputs.push_back(SignedInput{in, key.public_key(), {}});
  }
  tx.backward_transfers = bts;
  Digest msg = tx.signing_digest();
  crypto::Signature sig = key.sign(msg);
  for (SignedInput& in : tx.inputs) in.sig = sig;
  return tx;
}

std::vector<Digest> encode_utxo_proofdata(const Utxo& utxo) {
  return {utxo.addr, Digest::from_u256(crypto::u256{utxo.amount}),
          utxo.nonce};
}

std::optional<Utxo> decode_utxo_proofdata(
    const std::vector<Digest>& proofdata) {
  if (proofdata.size() != 3) return std::nullopt;
  crypto::u256 amount = proofdata[1].as_u256();
  if (amount.limb[1] != 0 || amount.limb[2] != 0 || amount.limb[3] != 0) {
    return std::nullopt;
  }
  return Utxo{proofdata[0], amount.limb[0], proofdata[2]};
}

}  // namespace zendoo::latus
