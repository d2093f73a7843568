#include "latus/block.hpp"

namespace zendoo::latus {

namespace {

Digest ft_subtree_root(const std::optional<ForwardTransfersTx>& fttx) {
  std::vector<Digest> leaves;
  if (fttx) {
    leaves.reserve(fttx->fts.size());
    for (const SyncedForwardTransfer& s : fttx->fts) leaves.push_back(s.leaf());
  }
  return merkle::merkle_root(leaves);
}

Digest btr_subtree_root(const std::optional<BtrTx>& btrtx) {
  std::vector<Digest> leaves;
  if (btrtx) {
    leaves.reserve(btrtx->requests.size());
    for (const auto& r : btrtx->requests) leaves.push_back(r.hash());
  }
  return merkle::merkle_root(leaves);
}

}  // namespace

std::string McBlockReference::verify(const SidechainId& id) const {
  bool has_sync =
      forward_transfers.has_value() || bt_requests.has_value() ||
      wcert.has_value();

  if (mproof && proof_of_no_data) {
    return "reference carries both membership and absence proofs";
  }

  if (proof_of_no_data) {
    if (has_sync) {
      return "absence proof but sidechain transactions are synced";
    }
    if (!merkle::ScTxCommitmentTree::verify_absence(
            header.sc_txs_commitment, id, *proof_of_no_data)) {
      return "proof-of-no-data does not verify";
    }
    return "";
  }

  if (!mproof) return "reference carries no commitment proof";

  // Recompute TxsHash = MerkleNode(FTHash, BTRHash) from the synced lists
  // (Fig. 12) and check it against the proof's committed subtree.
  Digest txs =
      crypto::hash_pair(Domain::kMerkleNode, ft_subtree_root(forward_transfers),
                        btr_subtree_root(bt_requests));
  if (txs != mproof->txs_hash) {
    return "synced transactions do not match committed TxsHash";
  }
  Digest wcert_leaf =
      wcert ? wcert->hash() : merkle::MerkleTree::empty_root();
  if (wcert_leaf != mproof->wcert_leaf) {
    return "synced certificate does not match committed WCertHash";
  }
  if (!merkle::ScTxCommitmentTree::verify_membership(header.sc_txs_commitment,
                                                     id, *mproof)) {
    return "membership proof does not verify against the MC header";
  }
  // Synced transactions must name the referenced MC block.
  Digest mc_hash = header.hash();
  if (forward_transfers && forward_transfers->mc_block_id != mc_hash) {
    return "FTTx references a different MC block";
  }
  if (bt_requests && bt_requests->mc_block_id != mc_hash) {
    return "BTRTx references a different MC block";
  }
  if (wcert && wcert->ledger_id != id) {
    return "certificate for a different sidechain";
  }
  return "";
}

Digest McBlockReference::hash() const {
  crypto::Hasher h(Domain::kScBlock);
  h.write_str("mc-ref");
  h.write(header.hash());
  h.write_u8(forward_transfers.has_value() ? 1 : 0);
  if (forward_transfers) h.write(forward_transfers->id());
  h.write_u8(bt_requests.has_value() ? 1 : 0);
  if (bt_requests) h.write(bt_requests->id());
  h.write_u8(wcert.has_value() ? 1 : 0);
  if (wcert) h.write(wcert->hash());
  return h.finalize();
}

Digest ScBlockHeader::signing_digest() const {
  return crypto::Hasher(Domain::kScBlock)
      .write_str("header")
      .write(prev_hash)
      .write_u64(height)
      .write_u64(epoch)
      .write_u64(slot)
      .write(forger)
      .write(forger_pubkey.first)
      .write(forger_pubkey.second)
      .write(body_root)
      .write(state_commitment)
      .finalize();
}

Digest ScBlockHeader::hash() const {
  return crypto::Hasher(Domain::kScBlock)
      .write_str("header-full")
      .write(signing_digest())
      .write(forger_sig.rx)
      .write(forger_sig.ry)
      .write(forger_sig.s)
      .finalize();
}

Digest ScBlock::compute_body_root() const {
  std::vector<Digest> leaves;
  leaves.reserve(mc_refs.size() + payments.size() + bt_txs.size());
  for (const McBlockReference& r : mc_refs) leaves.push_back(r.hash());
  for (const PaymentTx& p : payments) leaves.push_back(p.id());
  for (const BackwardTransferTx& b : bt_txs) leaves.push_back(b.id());
  return merkle::merkle_root(leaves);
}

}  // namespace zendoo::latus
