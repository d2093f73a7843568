// Latus transactional model (paper §5.3): the four logical transaction
// types and their state-transition (`update`) functions.
//
//   PaymentTx            — §5.3.1, SC-defined, signature-authorized
//   ForwardTransfersTx   — §5.3.2, MC-defined, credits synced FTs (failed
//                          transfers spawn refund backward transfers)
//   BackwardTransferTx   — §5.3.3, SC-defined, burns inputs into BTs
//   BtrTx                — §5.3.4, MC-defined, processes synced BTRs
//
// Application is transactional: on any validation failure the state is
// unchanged and a diagnostic is returned.
//
// Spend signatures are checked through a crypto::SignatureMemo, a required
// argument: a LatusNode passes its proof system's memo, a ScValidator its
// own. A memo hit is sound: the memo holds only (public key, signing
// digest, signature) triples that verify_signature accepted, keyed by all
// of their bytes, and the signing digest is recomputed from the
// transaction at every check. A tampered signature, or any changed signed
// field, misses the memo and is verified, and rejected, in full. Before a
// run of transactions, prime_spend_signatures verifies all of their
// signatures in one batch into the memo.
#pragma once

#include <span>
#include <string>
#include <variant>

#include "crypto/signature_memo.hpp"
#include "latus/state.hpp"
#include "mainchain/types.hpp"

namespace zendoo::latus {

/// An input being spent: the full UTXO plus its spending authorization.
struct SignedInput {
  Utxo utxo;
  std::pair<crypto::u256, crypto::u256> pubkey;
  crypto::Signature sig;
};

/// Desired output of a payment (nonce assigned at build time).
struct OutputSpec {
  Address addr;
  Amount amount = 0;
};

/// Regular multi-input multi-output payment (§5.3.1).
struct PaymentTx {
  std::vector<SignedInput> inputs;
  std::vector<Utxo> outputs;

  [[nodiscard]] Digest id() const;
  [[nodiscard]] Digest signing_digest() const;
};

/// One forward transfer as synced from a referenced MC block: the FT output
/// plus its provenance (containing MC tx and output index), enough to
/// recompute the SCTxsCommitment leaf.
struct SyncedForwardTransfer {
  mainchain::ForwardTransferOutput ft;
  Digest mc_txid;
  std::uint32_t index = 0;

  [[nodiscard]] Digest leaf() const { return ft.leaf_hash(mc_txid, index); }
};

/// ForwardTransfers transaction (§5.3.2): "a coinbase transaction
/// authorized by the mainchain". `outputs` and `rejected_transfers` are
/// derived deterministically from the pre-state during application.
struct ForwardTransfersTx {
  Digest mc_block_id;
  std::vector<SyncedForwardTransfer> fts;
  // Derived during application:
  std::vector<Utxo> outputs;
  std::vector<mainchain::BackwardTransfer> rejected_transfers;

  [[nodiscard]] Digest id() const;
};

/// Backward transfer transaction (§5.3.3): spends inputs, all "outputs"
/// are backward transfers claimable on the MC via the next certificate.
struct BackwardTransferTx {
  std::vector<SignedInput> inputs;
  std::vector<mainchain::BackwardTransfer> backward_transfers;

  [[nodiscard]] Digest id() const;
  [[nodiscard]] Digest signing_digest() const;
};

/// BackwardTransferRequests transaction (§5.3.4): processes BTRs synced
/// from a referenced MC block. Invalid requests are rejected without
/// affecting the state (they spawn no BT).
struct BtrTx {
  Digest mc_block_id;
  std::vector<mainchain::BtrRequest> requests;
  // Derived during application:
  std::vector<Utxo> consumed_inputs;
  std::vector<mainchain::BackwardTransfer> backward_transfers;

  [[nodiscard]] Digest id() const;
};

/// Any Latus transaction — the transition alphabet of the state-transition
/// system (§5.4).
using TxVariant =
    std::variant<PaymentTx, ForwardTransfersTx, BackwardTransferTx, BtrTx>;

[[nodiscard]] Digest tx_id(const TxVariant& tx);

// ---- update functions (§5.3.x) ----
// Each returns "" on success; on failure the state is untouched. FTTx and
// BtrTx fill their derived fields. Signature checks go through `memo`.

[[nodiscard]] std::string apply_payment(LatusState& state,
                                        const PaymentTx& tx,
                                        crypto::SignatureMemo& memo);
[[nodiscard]] std::string apply_forward_transfers(LatusState& state,
                                                  ForwardTransfersTx& tx);
[[nodiscard]] std::string apply_backward_transfer(
    LatusState& state, const BackwardTransferTx& tx,
    crypto::SignatureMemo& memo);
[[nodiscard]] std::string apply_btr(LatusState& state, BtrTx& tx);

/// Dispatch over TxVariant.
[[nodiscard]] std::string apply_transaction(LatusState& state, TxVariant& tx,
                                            crypto::SignatureMemo& memo);

/// Verifies the spend signatures of `payments` and `bts` in one batch into
/// `memo` (SignatureMemo::prime), so that applying the transactions
/// afterwards finds each valid one there. LatusNode::forge_block primes
/// with its mempool, ScValidator::accept with a block's transactions.
void prime_spend_signatures(std::span<const PaymentTx> payments,
                            std::span<const BackwardTransferTx> bts,
                            crypto::SignatureMemo& memo);

// ---- builders ----

/// Builds and signs a payment spending `inputs` (all owned by `key`) into
/// `outputs`; output nonces are derived from the input set so they are
/// unique and deterministic. Total input value must cover outputs.
[[nodiscard]] PaymentTx build_payment(const std::vector<Utxo>& inputs,
                                      const crypto::KeyPair& key,
                                      const std::vector<OutputSpec>& outputs);

/// Builds and signs a backward-transfer transaction burning `inputs` into
/// `bts` (§5.3.3).
[[nodiscard]] BackwardTransferTx build_backward_transfer(
    const std::vector<Utxo>& inputs, const crypto::KeyPair& key,
    const std::vector<mainchain::BackwardTransfer>& bts);

/// Latus BTR proofdata layout (§5.5.3.2): [addr, amount, nonce] — enough
/// for the sidechain to reconstruct the claimed UTXO.
[[nodiscard]] std::vector<Digest> encode_utxo_proofdata(const Utxo& utxo);
[[nodiscard]] std::optional<Utxo> decode_utxo_proofdata(
    const std::vector<Digest>& proofdata);

}  // namespace zendoo::latus
