#include "merkle/commitment.hpp"

#include <stdexcept>

namespace zendoo::merkle {

Digest SidechainCommitmentData::txs_hash() const {
  Digest ft_root = merkle_root(ft_hashes);
  Digest btr_root = merkle_root(btr_hashes);
  return crypto::hash_pair(Domain::kMerkleNode, ft_root, btr_root);
}

Digest SidechainCommitmentData::wcert_leaf() const {
  if (wcert_hash) return *wcert_hash;
  return MerkleTree::empty_root();
}

Digest SidechainCommitmentData::sc_hash(const SidechainId& id) const {
  return crypto::Hasher(Domain::kCommitmentTree)
      .write(txs_hash())
      .write(wcert_leaf())
      .write(id)
      .finalize();
}

void ScTxCommitmentTree::add_forward_transfer(const SidechainId& id,
                                              const Digest& tx_hash) {
  sidechains_[id].ft_hashes.push_back(tx_hash);
}

void ScTxCommitmentTree::add_btr(const SidechainId& id,
                                 const Digest& tx_hash) {
  sidechains_[id].btr_hashes.push_back(tx_hash);
}

void ScTxCommitmentTree::set_wcert(const SidechainId& id,
                                   const Digest& cert_hash) {
  auto& entry = sidechains_[id];
  if (entry.wcert_hash) {
    throw std::logic_error(
        "ScTxCommitmentTree: only one withdrawal certificate per sidechain "
        "per block");
  }
  entry.wcert_hash = cert_hash;
}

MerkleTree ScTxCommitmentTree::build_top_tree() const {
  std::vector<Digest> leaves;
  leaves.reserve(sidechains_.size());
  for (const auto& [id, data] : sidechains_) {
    leaves.push_back(data.sc_hash(id));
  }
  return MerkleTree(std::move(leaves));
}

Digest ScTxCommitmentTree::final_root(const Digest& tree_root,
                                      std::uint64_t count) {
  return crypto::Hasher(Domain::kCommitmentTree)
      .write(tree_root)
      .write_u64(count)
      .finalize();
}

Digest ScTxCommitmentTree::root() const {
  return final_root(build_top_tree().root(), sidechains_.size());
}

CommitmentMembershipProof ScTxCommitmentTree::prove_membership(
    const SidechainId& id) const {
  auto it = sidechains_.find(id);
  if (it == sidechains_.end()) {
    throw std::invalid_argument(
        "ScTxCommitmentTree::prove_membership: sidechain not in block");
  }
  CommitmentMembershipProof out;
  out.txs_hash = it->second.txs_hash();
  out.wcert_leaf = it->second.wcert_leaf();
  out.leaf_count = sidechains_.size();
  std::uint64_t index =
      static_cast<std::uint64_t>(std::distance(sidechains_.begin(), it));
  out.proof = build_top_tree().prove(index);
  return out;
}

bool ScTxCommitmentTree::verify_membership(
    const Digest& root, const SidechainId& id,
    const CommitmentMembershipProof& proof) {
  Digest leaf = crypto::Hasher(Domain::kCommitmentTree)
                    .write(proof.txs_hash)
                    .write(proof.wcert_leaf)
                    .write(id)
                    .finalize();
  Digest tree_root = MerkleTree::root_from_proof(leaf, proof.proof);
  return final_root(tree_root, proof.leaf_count) == root &&
         proof.proof.leaf_index < proof.leaf_count;
}

AbsenceProof ScTxCommitmentTree::prove_absence(const SidechainId& id) const {
  if (sidechains_.contains(id)) {
    throw std::invalid_argument(
        "ScTxCommitmentTree::prove_absence: sidechain IS in block");
  }
  AbsenceProof out;
  out.leaf_count = sidechains_.size();
  if (sidechains_.empty()) return out;

  MerkleTree tree = build_top_tree();
  auto make_witness = [&](std::map<SidechainId,
                                   SidechainCommitmentData>::const_iterator
                              it) {
    NeighborWitness w;
    w.sc_id = it->first;
    w.txs_hash = it->second.txs_hash();
    w.wcert_leaf = it->second.wcert_leaf();
    w.proof = tree.prove(static_cast<std::uint64_t>(
        std::distance(sidechains_.begin(), it)));
    return w;
  };

  auto upper = sidechains_.upper_bound(id);  // first leaf with id > target
  if (upper != sidechains_.begin()) {
    out.left = make_witness(std::prev(upper));
  }
  if (upper != sidechains_.end()) {
    out.right = make_witness(upper);
  }
  return out;
}

namespace {
Digest witness_leaf(const NeighborWitness& w) {
  return crypto::Hasher(Domain::kCommitmentTree)
      .write(w.txs_hash)
      .write(w.wcert_leaf)
      .write(w.sc_id)
      .finalize();
}
}  // namespace

bool ScTxCommitmentTree::verify_absence(const Digest& root,
                                        const SidechainId& id,
                                        const AbsenceProof& proof) {
  if (proof.leaf_count == 0) {
    // An empty block commits to the canonical empty root with count 0.
    return final_root(MerkleTree::empty_root(), 0) == root && !proof.left &&
           !proof.right;
  }
  // Both witnesses (when present) must verify against the same tree root.
  std::optional<Digest> tree_root;
  auto check_witness = [&](const NeighborWitness& w) {
    Digest r = MerkleTree::root_from_proof(witness_leaf(w), w.proof);
    if (tree_root && !(*tree_root == r)) return false;
    tree_root = r;
    return final_root(r, proof.leaf_count) == root;
  };

  if (proof.left) {
    if (!(proof.left->sc_id < id)) return false;
    if (!check_witness(*proof.left)) return false;
  }
  if (proof.right) {
    if (!(id < proof.right->sc_id)) return false;
    if (!check_witness(*proof.right)) return false;
  }

  if (proof.left && proof.right) {
    // Must be adjacent leaves.
    return proof.right->proof.leaf_index == proof.left->proof.leaf_index + 1;
  }
  if (proof.left && !proof.right) {
    // Left must be the last real leaf.
    return proof.left->proof.leaf_index == proof.leaf_count - 1;
  }
  if (proof.right && !proof.left) {
    // Right must be the first leaf.
    return proof.right->proof.leaf_index == 0;
  }
  return false;  // non-empty tree but no witnesses
}

}  // namespace zendoo::merkle
