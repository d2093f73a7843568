// Sidechain Transactions Commitment tree (paper §4.1.3 & §5.5.1,
// Figs. 4 and 12).
//
// Every mainchain block header commits to all sidechain-related actions it
// contains via SCTxsCommitment: per sidechain, a subtree over the block's
// forward transfers (FTHash), backward transfer requests (BTRHash) and the
// withdrawal certificate (WCertHash); the per-sidechain roots, ordered by
// sidechain id, form the top-level tree.
//
// Two proof forms are produced, matching the MCBlockReference fields:
//   - mproof:         the sidechain's subtree root IS in the commitment,
//                     letting SC nodes verify synced transactions without
//                     the MC block body;
//   - proofOfNoData:  the sidechain id is NOT in the commitment (the block
//                     carries nothing for this sidechain).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "crypto/hash.hpp"
#include "merkle/mht.hpp"

namespace zendoo::merkle {

using SidechainId = crypto::Digest;

/// The per-sidechain data that feeds one leaf of the commitment tree.
struct SidechainCommitmentData {
  std::vector<Digest> ft_hashes;   ///< tx ids of forward transfers, in order
  std::vector<Digest> btr_hashes;  ///< tx ids of backward transfer requests
  std::optional<Digest> wcert_hash;  ///< withdrawal certificate hash, if any

  /// TxsHash = MerkleNode(FTHash, BTRHash) as in Fig. 12.
  [[nodiscard]] Digest txs_hash() const;
  /// WCertHash leaf value (canonical empty digest when absent).
  [[nodiscard]] Digest wcert_leaf() const;
  /// SCHash = H(TxsHash || WCertHash || sidechain id).
  [[nodiscard]] Digest sc_hash(const SidechainId& id) const;
};

/// Proof that a sidechain's subtree root is included in a commitment root.
struct CommitmentMembershipProof {
  Digest txs_hash;       ///< subtree component (reconstructible by verifier)
  Digest wcert_leaf;     ///< subtree component
  std::uint64_t leaf_count = 0;  ///< total sidechains in the block
  MerkleProof proof;     ///< path of the SCHash leaf in the top tree
};

/// Witness for one neighbouring leaf in an absence proof: enough preimage
/// to recompute the leaf digest and learn the neighbour's sidechain id.
struct NeighborWitness {
  SidechainId sc_id;
  Digest txs_hash;
  Digest wcert_leaf;
  MerkleProof proof;
};

/// Proof that a sidechain id does NOT appear in a commitment.
///
/// Leaves are sorted by sidechain id, so absence is shown by exhibiting the
/// two adjacent leaves that bracket the id (or a single edge leaf when the
/// id sorts before the first / after the last leaf). An empty block is
/// proved by the committed leaf count being zero.
struct AbsenceProof {
  std::uint64_t leaf_count = 0;
  std::optional<NeighborWitness> left;   ///< greatest leaf with id < target
  std::optional<NeighborWitness> right;  ///< smallest leaf with id > target
};

/// Builder and verifier for SCTxsCommitment.
class ScTxCommitmentTree {
 public:
  /// Record a forward transfer tx id for sidechain `id`.
  void add_forward_transfer(const SidechainId& id, const Digest& tx_hash);
  /// Record a backward transfer request tx id for sidechain `id`.
  void add_btr(const SidechainId& id, const Digest& tx_hash);
  /// Record the (single) withdrawal certificate for sidechain `id`.
  /// Throws if one is already present — only one WCert per SC per block.
  void set_wcert(const SidechainId& id, const Digest& cert_hash);

  [[nodiscard]] bool empty() const { return sidechains_.empty(); }

  /// The SCTxsCommitment digest for the MC block header.
  [[nodiscard]] Digest root() const;

  /// Membership proof for sidechain `id` (throws if absent).
  [[nodiscard]] CommitmentMembershipProof prove_membership(
      const SidechainId& id) const;

  /// Absence proof for sidechain `id` (throws if present).
  [[nodiscard]] AbsenceProof prove_absence(const SidechainId& id) const;

  /// Verify a membership proof: that a sidechain with `id` whose FT list
  /// hashes to `ft_root` and BTR list to `btr_root` (both as Merkle roots)
  /// and whose certificate leaf is `wcert_leaf` is committed in `root`.
  static bool verify_membership(const Digest& root, const SidechainId& id,
                                const CommitmentMembershipProof& proof);

  /// Verify an absence proof for `id` against `root`.
  static bool verify_absence(const Digest& root, const SidechainId& id,
                             const AbsenceProof& proof);

  /// Commitment digest over a top-tree root and leaf count.
  static Digest final_root(const Digest& tree_root, std::uint64_t count);

  /// Access to the recorded per-sidechain data (e.g. for block assembly).
  [[nodiscard]] const std::map<SidechainId, SidechainCommitmentData>& data()
      const {
    return sidechains_;
  }

 private:
  [[nodiscard]] MerkleTree build_top_tree() const;

  // std::map keeps sidechains ordered by id, as the paper requires.
  std::map<SidechainId, SidechainCommitmentData> sidechains_;
};

}  // namespace zendoo::merkle
