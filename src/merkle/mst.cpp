#include "merkle/mst.hpp"

#include <array>
#include <bit>
#include <stdexcept>

namespace zendoo::merkle {

void MstDelta::merge(const MstDelta& other) {
  if (depth_ != other.depth_) {
    throw std::invalid_argument("MstDelta::merge: depth mismatch");
  }
  for (std::size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
}

std::uint64_t MstDelta::popcount() const {
  std::uint64_t n = 0;
  for (auto w : bits_) n += static_cast<std::uint64_t>(std::popcount(w));
  return n;
}

Digest MstDelta::hash() const {
  crypto::Hasher h(Domain::kStateCommitment);
  h.write_u64(depth_);
  for (auto w : bits_) h.write_u64(w);
  return h.finalize();
}

struct MerkleStateTree::Node {
  Digest digest;
  // Null = all-empty subtree. Leaves (level 0) have no children.
  NodePtr left, right;
};

// Every level-0 node is a Leaf; inner nodes carry no payload field.
struct MerkleStateTree::Leaf : Node {
  std::shared_ptr<const void> payload;
};

namespace {

constexpr unsigned kMaxDepth = 48;

/// Digest of an all-empty subtree of height `level` ([0] = empty leaf).
/// Built once, read-only afterwards.
const Digest& empty_digest(unsigned level) {
  static const std::array<Digest, kMaxDepth + 1> table = [] {
    std::array<Digest, kMaxDepth + 1> t;
    t[0] = MerkleStateTree::empty_leaf_digest();
    for (unsigned l = 1; l <= kMaxDepth; ++l) {
      t[l] = crypto::hash_pair(Domain::kMerkleNode, t[l - 1], t[l - 1]);
    }
    return t;
  }();
  return table[level];
}

/// Bit of `pos` choosing the child of a node at `level` (1 = right).
bool goes_right(std::uint64_t pos, unsigned level) {
  return (pos >> (level - 1)) & 1;
}

}  // namespace

Digest MerkleStateTree::empty_leaf_digest() {
  return crypto::Hasher(Domain::kMerkleEmpty).finalize();
}

MerkleStateTree::MerkleStateTree(unsigned depth) : depth_(depth) {
  if (depth == 0 || depth > kMaxDepth) {
    throw std::invalid_argument("MerkleStateTree: depth must be in [1,48]");
  }
  root_ = empty_digest(depth_);
}

const MerkleStateTree::Leaf* MerkleStateTree::find_leaf(
    std::uint64_t pos) const {
  if (pos >= capacity()) return nullptr;
  const Node* node = top_.get();
  for (unsigned level = depth_; level > 0 && node != nullptr; --level) {
    node = (goes_right(pos, level) ? node->right : node->left).get();
  }
  return static_cast<const Leaf*>(node);
}

void MerkleStateTree::set_leaf(std::uint64_t pos, NodePtr leaf) {
  // Siblings of the path, indexed by the level of their parent; they stay
  // alive through top_ until it is replaced below.
  std::array<const NodePtr*, kMaxDepth + 1> siblings{};
  const Node* node = top_.get();
  for (unsigned level = depth_; level > 0 && node != nullptr; --level) {
    bool right = goes_right(pos, level);
    siblings[level] = right ? &node->left : &node->right;
    node = (right ? node->right : node->left).get();
  }
  NodePtr cur = std::move(leaf);
  for (unsigned level = 1; level <= depth_; ++level) {
    NodePtr sibling = siblings[level] ? *siblings[level] : nullptr;
    if (!cur && !sibling) continue;  // still an all-empty subtree
    bool right = goes_right(pos, level);
    NodePtr left_child = std::move(right ? sibling : cur);
    NodePtr right_child = std::move(right ? cur : sibling);
    const Digest& empty = empty_digest(level - 1);
    Digest d = crypto::hash_pair(Domain::kMerkleNode,
                                 left_child ? left_child->digest : empty,
                                 right_child ? right_child->digest : empty);
    cur = std::make_shared<const Node>(
        Node{d, std::move(left_child), std::move(right_child)});
  }
  top_ = std::move(cur);
  root_ = top_ ? top_->digest : empty_digest(depth_);
}

std::optional<Digest> MerkleStateTree::leaf(std::uint64_t pos) const {
  const Leaf* node = find_leaf(pos);
  if (node == nullptr) return std::nullopt;
  return node->digest;
}

const void* MerkleStateTree::payload(std::uint64_t pos) const {
  const Leaf* node = find_leaf(pos);
  return node == nullptr ? nullptr : node->payload.get();
}

bool MerkleStateTree::insert(std::uint64_t pos, const Digest& value,
                             std::shared_ptr<const void> payload) {
  if (pos >= capacity()) {
    throw std::out_of_range("MerkleStateTree::insert: position out of range");
  }
  if (find_leaf(pos) != nullptr) return false;
  set_leaf(pos, std::make_shared<const Leaf>(
                    Leaf{{value, nullptr, nullptr}, std::move(payload)}));
  ++occupied_;
  return true;
}

bool MerkleStateTree::erase(std::uint64_t pos) {
  if (pos >= capacity()) {
    throw std::out_of_range("MerkleStateTree::erase: position out of range");
  }
  if (find_leaf(pos) == nullptr) return false;
  set_leaf(pos, nullptr);
  --occupied_;
  return true;
}

MerkleProof MerkleStateTree::prove(std::uint64_t pos) const {
  if (pos >= capacity()) {
    throw std::out_of_range("MerkleStateTree::prove: position out of range");
  }
  MerkleProof proof;
  proof.leaf_index = pos;
  proof.siblings.resize(depth_);
  const Node* node = top_.get();
  for (unsigned level = depth_; level > 0; --level) {
    const Node* sibling = nullptr;
    if (node != nullptr) {
      bool right = goes_right(pos, level);
      sibling = (right ? node->left : node->right).get();
      node = (right ? node->right : node->left).get();
    }
    proof.siblings[level - 1] =
        sibling ? sibling->digest : empty_digest(level - 1);
  }
  return proof;
}

bool MerkleStateTree::verify(const Digest& root, const Digest& value,
                             const MerkleProof& proof) {
  return MerkleTree::root_from_proof(value, proof) == root;
}

bool MerkleStateTree::verify_empty(const Digest& root,
                                   const MerkleProof& proof) {
  return MerkleTree::root_from_proof(empty_leaf_digest(), proof) == root;
}

void MerkleStateTree::visit_leaves(const Node* node, unsigned level,
                                   std::uint64_t index,
                                   const LeafVisitor& visit) {
  if (node == nullptr) return;
  if (level == 0) {
    visit(index, static_cast<const Leaf*>(node)->payload.get());
    return;
  }
  visit_leaves(node->left.get(), level - 1, index * 2, visit);
  visit_leaves(node->right.get(), level - 1, index * 2 + 1, visit);
}

void MerkleStateTree::for_each_leaf(const LeafVisitor& visit) const {
  visit_leaves(top_.get(), depth_, 0, visit);
}

std::vector<std::uint64_t> MerkleStateTree::occupied_positions() const {
  std::vector<std::uint64_t> out;
  out.reserve(occupied_);
  for_each_leaf([&out](std::uint64_t pos, const void*) { out.push_back(pos); });
  return out;
}

}  // namespace zendoo::merkle
