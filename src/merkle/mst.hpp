// Merkle State Tree (paper §5.2, Fig. 9) and mst_delta (Appendix A).
//
// A fixed-depth sparse Merkle tree whose 2^depth leaves are UTXO slots:
// either "occupied" (holding the digest of an unspent output) or "empty".
// Only subtrees holding an occupied slot are stored; an absent subtree
// hashes to a precomputed per-level empty digest, so set/clear/prove cost
// O(depth) regardless of capacity and depths of 32+ are practical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/hash.hpp"
#include "merkle/mht.hpp"

namespace zendoo::merkle {

/// Bit vector over MST leaves: bit i is 1 iff leaf i was modified during
/// the tracked period (paper §5.5.3.1, Appendix A).
class MstDelta {
 public:
  MstDelta() = default;
  explicit MstDelta(unsigned depth)
      : depth_(depth), bits_(((std::size_t{1} << depth) + 63) >> 6, 0) {}

  [[nodiscard]] unsigned depth() const { return depth_; }
  [[nodiscard]] std::uint64_t size() const { return std::uint64_t{1} << depth_; }

  void set(std::uint64_t i) { bits_[i >> 6] |= 1ULL << (i & 63); }
  [[nodiscard]] bool get(std::uint64_t i) const {
    return (bits_[i >> 6] >> (i & 63)) & 1;
  }

  /// Union: marks every leaf modified in either delta. Depths must match.
  void merge(const MstDelta& other);

  [[nodiscard]] std::uint64_t popcount() const;

  /// Digest of the bit vector (committed inside withdrawal certificates).
  [[nodiscard]] Digest hash() const;

  friend bool operator==(const MstDelta&, const MstDelta&) = default;

 private:
  unsigned depth_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Sparse fixed-depth Merkle State Tree.
///
/// The tree is a persistent (path-copying) structure of immutable,
/// reference-counted nodes: each node holds its digest and its two
/// children, and a null child is an all-empty subtree. Occupying or
/// clearing a slot builds the `depth` new nodes on the slot's path and
/// shares every sibling subtree with the previous version, so copying a
/// tree is O(1) (one pointer) and copies never observe each other's
/// mutations. Nodes are const once built, so copies may live on different
/// threads. Membership (and emptiness) proofs are standard Merkle proofs
/// against the current root.
///
/// A leaf may also carry an opaque, immutable payload beside its digest
/// (the Latus state keeps each slot's UTXO there). The payload never enters
/// a hash, and copies of a tree share it as they share the leaf.
class MerkleStateTree {
 public:
  explicit MerkleStateTree(unsigned depth);

  [[nodiscard]] unsigned depth() const { return depth_; }
  [[nodiscard]] std::uint64_t capacity() const {
    return std::uint64_t{1} << depth_;
  }
  [[nodiscard]] std::uint64_t occupied_count() const { return occupied_; }

  [[nodiscard]] const Digest& root() const { return root_; }

  /// True if slot `pos` currently holds a value.
  [[nodiscard]] bool occupied(std::uint64_t pos) const {
    return find_leaf(pos) != nullptr;
  }

  /// Digest stored at `pos`, if occupied.
  [[nodiscard]] std::optional<Digest> leaf(std::uint64_t pos) const;

  /// Payload stored at `pos`: null if the slot is empty or was filled
  /// without one. It lives as long as a tree holding this leaf.
  [[nodiscard]] const void* payload(std::uint64_t pos) const;

  /// Occupy slot `pos` with `value` and `payload`. Fails (returns false)
  /// if occupied.
  bool insert(std::uint64_t pos, const Digest& value,
              std::shared_ptr<const void> payload = nullptr);

  /// Clear slot `pos`, dropping its payload. Fails (returns false) if it
  /// was empty.
  bool erase(std::uint64_t pos);

  /// Merkle proof for slot `pos` against the current root; works for both
  /// occupied and empty slots (an empty slot proves the empty-leaf digest).
  [[nodiscard]] MerkleProof prove(std::uint64_t pos) const;

  /// Digest a leaf proves to when the slot is empty.
  static Digest empty_leaf_digest();

  /// Verify a membership proof for `value` at proof.leaf_index.
  static bool verify(const Digest& root, const Digest& value,
                     const MerkleProof& proof);

  /// Verify that a slot is empty under `root`.
  static bool verify_empty(const Digest& root, const MerkleProof& proof);

  /// The set of occupied positions (ordered), e.g. for state enumeration.
  [[nodiscard]] std::vector<std::uint64_t> occupied_positions() const;

  using LeafVisitor =
      std::function<void(std::uint64_t pos, const void* payload)>;
  /// Calls `visit` for every occupied slot, in position order.
  void for_each_leaf(const LeafVisitor& visit) const;

 private:
  struct Node;
  struct Leaf;
  using NodePtr = std::shared_ptr<const Node>;

  /// The leaf node at `pos`, or nullptr when the slot is empty or `pos`
  /// is out of range.
  [[nodiscard]] const Leaf* find_leaf(std::uint64_t pos) const;
  /// Replace the leaf at `pos` (null clears it), rebuilding its path.
  void set_leaf(std::uint64_t pos, NodePtr leaf);
  static void visit_leaves(const Node* node, unsigned level,
                           std::uint64_t index, const LeafVisitor& visit);

  unsigned depth_;
  std::uint64_t occupied_ = 0;
  // Top node; null while the tree is empty. Nodes exist only on paths to
  // occupied slots, so a subtree is pruned once its last slot is cleared.
  NodePtr top_;
  // Copy of top_'s digest (or the empty root), so root() never refers
  // into a node a later mutation may free.
  Digest root_;
};

}  // namespace zendoo::merkle
