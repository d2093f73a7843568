#include "merkle/mst.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>

#include "crypto/rng.hpp"

namespace zendoo::merkle {
namespace {

using crypto::Rng;

TEST(Mst, EmptyTreeRootMatchesAllEmptyDense) {
  // Sparse empty root must equal a dense tree of empty leaves.
  MerkleStateTree mst(3);
  std::vector<Digest> empties(8, MerkleStateTree::empty_leaf_digest());
  EXPECT_EQ(mst.root(), MerkleTree(empties).root());
}

TEST(Mst, InsertChangesRootEraseRestoresIt) {
  MerkleStateTree mst(4);
  Digest before = mst.root();
  Digest v = crypto::hash_str(Domain::kGeneric, "utxo");
  ASSERT_TRUE(mst.insert(5, v));
  EXPECT_NE(mst.root(), before);
  ASSERT_TRUE(mst.erase(5));
  EXPECT_EQ(mst.root(), before);
  EXPECT_EQ(mst.occupied_count(), 0u);
}

TEST(Mst, DoubleInsertRejected) {
  MerkleStateTree mst(4);
  Digest v = crypto::hash_str(Domain::kGeneric, "utxo");
  EXPECT_TRUE(mst.insert(3, v));
  EXPECT_FALSE(mst.insert(3, v));  // slot collision (paper §5.3.2 FT failure)
  EXPECT_EQ(mst.occupied_count(), 1u);
}

TEST(Mst, EraseEmptyRejected) {
  MerkleStateTree mst(4);
  EXPECT_FALSE(mst.erase(3));
}

TEST(Mst, OutOfRangePositionsThrow) {
  MerkleStateTree mst(3);
  Digest v = crypto::hash_str(Domain::kGeneric, "v");
  EXPECT_THROW(mst.insert(8, v), std::out_of_range);
  EXPECT_THROW(mst.erase(8), std::out_of_range);
  EXPECT_THROW((void)mst.prove(8), std::out_of_range);
}

TEST(Mst, BadDepthsRejected) {
  EXPECT_THROW(MerkleStateTree(0), std::invalid_argument);
  EXPECT_THROW(MerkleStateTree(49), std::invalid_argument);
}

TEST(Mst, RootMatchesDenseTree) {
  // Paper Fig. 9: depth 3, three occupied slots.
  MerkleStateTree mst(3);
  Digest u1 = crypto::hash_str(Domain::kUtxo, "utxo1");
  Digest u2 = crypto::hash_str(Domain::kUtxo, "utxo2");
  Digest u3 = crypto::hash_str(Domain::kUtxo, "utxo3");
  mst.insert(0, u1);
  mst.insert(4, u2);
  mst.insert(6, u3);

  std::vector<Digest> dense(8, MerkleStateTree::empty_leaf_digest());
  dense[0] = u1;
  dense[4] = u2;
  dense[6] = u3;
  EXPECT_EQ(mst.root(), MerkleTree(dense).root());
  EXPECT_EQ(mst.occupied_positions(), (std::vector<std::uint64_t>{0, 4, 6}));
}

TEST(Mst, MembershipProofVerifies) {
  MerkleStateTree mst(8);
  Digest v = crypto::hash_str(Domain::kUtxo, "coin");
  mst.insert(200, v);
  MerkleProof p = mst.prove(200);
  EXPECT_TRUE(MerkleStateTree::verify(mst.root(), v, p));
  EXPECT_FALSE(MerkleStateTree::verify_empty(mst.root(), p));
}

TEST(Mst, EmptinessProofVerifies) {
  MerkleStateTree mst(8);
  mst.insert(200, crypto::hash_str(Domain::kUtxo, "coin"));
  MerkleProof p = mst.prove(123);
  EXPECT_TRUE(MerkleStateTree::verify_empty(mst.root(), p));
  EXPECT_FALSE(MerkleStateTree::verify(
      mst.root(), crypto::hash_str(Domain::kUtxo, "coin"), p));
}

TEST(Mst, ProofInvalidAfterStateChange) {
  MerkleStateTree mst(8);
  Digest v = crypto::hash_str(Domain::kUtxo, "coin");
  mst.insert(7, v);
  MerkleProof p = mst.prove(7);
  Digest old_root = mst.root();
  mst.insert(8, crypto::hash_str(Domain::kUtxo, "other"));
  EXPECT_FALSE(MerkleStateTree::verify(mst.root(), v, p));
  EXPECT_TRUE(MerkleStateTree::verify(old_root, v, p));  // still valid vs old
}

TEST(Mst, InsertionOrderIndependence) {
  Rng rng(5);
  std::vector<std::pair<std::uint64_t, Digest>> items;
  std::unordered_map<std::uint64_t, bool> used;
  while (items.size() < 32) {
    std::uint64_t pos = rng.next_below(1u << 10);
    if (used[pos]) continue;
    used[pos] = true;
    items.emplace_back(pos, rng.next_digest());
  }
  MerkleStateTree a(10), b(10);
  for (const auto& [pos, val] : items) a.insert(pos, val);
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    b.insert(it->first, it->second);
  }
  EXPECT_EQ(a.root(), b.root());
}

TEST(Mst, LeafLookup) {
  MerkleStateTree mst(4);
  Digest v = crypto::hash_str(Domain::kUtxo, "x");
  EXPECT_EQ(mst.leaf(9), std::nullopt);
  mst.insert(9, v);
  EXPECT_EQ(mst.leaf(9), std::optional<Digest>(v));
  EXPECT_TRUE(mst.occupied(9));
  EXPECT_FALSE(mst.occupied(8));
}

TEST(Mst, EmptyLeafValueStillOccupiesSlot) {
  // The one value for which "slot empty" and "subtree hashes to the empty
  // digest" differ: storing the empty-leaf digest occupies the slot
  // without moving the root, and a cleared neighbour must not prune it.
  MerkleStateTree mst(6);
  const Digest empty_root = mst.root();
  const Digest empty_value = MerkleStateTree::empty_leaf_digest();
  ASSERT_TRUE(mst.insert(21, empty_value));
  EXPECT_EQ(mst.root(), empty_root);
  EXPECT_TRUE(mst.occupied(21));
  EXPECT_EQ(mst.occupied_count(), 1u);
  EXPECT_EQ(mst.leaf(21), std::optional<Digest>(empty_value));
  EXPECT_FALSE(mst.insert(21, crypto::hash_str(Domain::kUtxo, "coin")));

  ASSERT_TRUE(mst.insert(20, crypto::hash_str(Domain::kUtxo, "neighbour")));
  ASSERT_TRUE(mst.erase(20));
  EXPECT_EQ(mst.root(), empty_root);
  EXPECT_TRUE(mst.occupied(21));
  EXPECT_EQ(mst.occupied_positions(), (std::vector<std::uint64_t>{21}));

  ASSERT_TRUE(mst.erase(21));
  EXPECT_FALSE(mst.occupied(21));
  EXPECT_EQ(mst.occupied_count(), 0u);
  EXPECT_EQ(mst.root(), empty_root);
  EXPECT_FALSE(mst.erase(21));
}

TEST(Mst, LeafPayloadTravelsWithItsLeaf) {
  // A payload never enters a hash, so digests and occupancy are those of a
  // tree filled without payloads. Copies share a leaf's payload; erasing
  // the leaf drops it from that tree only, and the last tree holding the
  // leaf frees it.
  MerkleStateTree plain(6), mst(6);
  const Digest a = crypto::hash_str(Domain::kUtxo, "a");
  const Digest b = crypto::hash_str(Domain::kUtxo, "b");
  auto payload_a = std::make_shared<const int>(1);
  const std::weak_ptr<const int> watch_a = payload_a;
  ASSERT_TRUE(plain.insert(9, a));
  ASSERT_TRUE(plain.insert(40, b));
  ASSERT_TRUE(mst.insert(9, a, std::move(payload_a)));
  ASSERT_TRUE(mst.insert(40, b, std::make_shared<const int>(2)));
  EXPECT_EQ(mst.root(), plain.root());
  EXPECT_EQ(mst.leaf(9), plain.leaf(9));
  EXPECT_EQ(mst.occupied_positions(), plain.occupied_positions());
  EXPECT_EQ(*static_cast<const int*>(mst.payload(9)), 1);
  EXPECT_EQ(mst.payload(10), nullptr);    // empty slot
  EXPECT_EQ(plain.payload(9), nullptr);   // filled without a payload
  EXPECT_EQ(mst.payload(64 + 9), nullptr);  // out of range, not slot 9
  EXPECT_FALSE(mst.occupied(64 + 9));
  EXPECT_EQ(mst.leaf(64 + 9), std::nullopt);

  MerkleStateTree copy = mst;
  EXPECT_EQ(copy.payload(9), mst.payload(9));  // shared, not duplicated
  ASSERT_TRUE(mst.erase(9));
  EXPECT_EQ(mst.payload(9), nullptr);
  EXPECT_FALSE(mst.occupied(9));
  EXPECT_FALSE(watch_a.expired());
  EXPECT_EQ(*static_cast<const int*>(copy.payload(9)), 1);
  EXPECT_EQ(copy.leaf(9), std::optional<Digest>(a));
  EXPECT_TRUE(copy.occupied(9));
  EXPECT_EQ(copy.root(), plain.root());
  ASSERT_TRUE(copy.erase(9));
  EXPECT_TRUE(watch_a.expired());

  // Refilling the slot in one copy gives it the new payload alone.
  ASSERT_TRUE(copy.insert(9, a, std::make_shared<const int>(3)));
  EXPECT_EQ(*static_cast<const int*>(copy.payload(9)), 3);
  EXPECT_EQ(mst.payload(9), nullptr);
  EXPECT_EQ(copy.root(), plain.root());

  std::vector<std::pair<std::uint64_t, int>> seen;
  copy.for_each_leaf([&seen](std::uint64_t pos, const void* payload) {
    seen.emplace_back(pos, *static_cast<const int*>(payload));
  });
  EXPECT_EQ(seen,
            (std::vector<std::pair<std::uint64_t, int>>{{9, 3}, {40, 2}}));
}

TEST(MstDeltaTest, PaperAppendixAExample) {
  // Appendix A: transitions touch leaves 0,1,2,7 of a depth-3 tree.
  MstDelta delta(3);
  for (std::uint64_t i : {0, 1, 2, 7}) delta.set(i);
  EXPECT_EQ(delta.popcount(), 4u);
  // mst_delta = (11100001)
  EXPECT_TRUE(delta.get(0));
  EXPECT_TRUE(delta.get(1));
  EXPECT_TRUE(delta.get(2));
  EXPECT_FALSE(delta.get(3));
  EXPECT_FALSE(delta.get(4));
  EXPECT_FALSE(delta.get(5));
  EXPECT_FALSE(delta.get(6));
  EXPECT_TRUE(delta.get(7));
}

TEST(MstDeltaTest, MergeIsUnion) {
  MstDelta a(4), b(4);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(9);
  a.merge(b);
  EXPECT_TRUE(a.get(1));
  EXPECT_TRUE(a.get(2));
  EXPECT_TRUE(a.get(9));
  EXPECT_EQ(a.popcount(), 3u);
}

TEST(MstDeltaTest, MergeDepthMismatchThrows) {
  MstDelta a(4), b(5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(MstDeltaTest, HashChangesWithBits) {
  MstDelta a(6), b(6);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(17);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(MstDeltaTest, UnspentnessArgument) {
  // The Appendix-A use case: a utxo proven in an old MST stays claimable if
  // every subsequent delta leaves its bit at 0.
  MerkleStateTree mst(6);
  Digest coin = crypto::hash_str(Domain::kUtxo, "old coin");
  mst.insert(13, coin);
  Digest old_root = mst.root();
  MerkleProof old_proof = mst.prove(13);

  // Epoch 1 modifies other slots only.
  MstDelta d1(6);
  mst.insert(20, crypto::hash_str(Domain::kUtxo, "a"));
  d1.set(20);
  // Epoch 2 also leaves slot 13 alone.
  MstDelta d2(6);
  mst.erase(20);
  d2.set(20);

  EXPECT_TRUE(MerkleStateTree::verify(old_root, coin, old_proof));
  EXPECT_FALSE(d1.get(13));
  EXPECT_FALSE(d2.get(13));
  // And indeed the coin is still in the current tree.
  EXPECT_TRUE(MerkleStateTree::verify(mst.root(), coin, mst.prove(13)));
}

class MstDepthSweep : public ::testing::TestWithParam<unsigned> {};

using Shadow = std::map<std::uint64_t, Digest>;

/// One random step: clear the slot if it is occupied, else fill it, on
/// both `tree` and its `shadow`.
void churn_step(MerkleStateTree& tree, Shadow& shadow, Rng& rng) {
  std::uint64_t pos = rng.next_below(tree.capacity());
  if (shadow.contains(pos)) {
    EXPECT_TRUE(tree.erase(pos));
    shadow.erase(pos);
  } else {
    Digest v = rng.next_digest();
    EXPECT_TRUE(tree.insert(pos, v));
    shadow[pos] = v;
  }
}

/// `tree` holds exactly `shadow`: same root as a tree (and, when small
/// enough, a dense tree) built from it, same occupancy, and every slot
/// proves what the shadow says it holds.
void expect_matches_shadow(const MerkleStateTree& tree, const Shadow& shadow,
                           Rng& rng) {
  MerkleStateTree fresh(tree.depth());
  std::vector<std::uint64_t> keys;
  for (const auto& [pos, val] : shadow) {
    fresh.insert(pos, val);
    keys.push_back(pos);
  }
  EXPECT_EQ(tree.root(), fresh.root());
  if (tree.depth() <= 8) {
    std::vector<Digest> dense(tree.capacity(),
                              MerkleStateTree::empty_leaf_digest());
    for (const auto& [pos, val] : shadow) dense[pos] = val;
    EXPECT_EQ(tree.root(), MerkleTree(dense).root());
  }
  EXPECT_EQ(tree.occupied_positions(), keys);
  EXPECT_EQ(tree.occupied_count(), shadow.size());
  for (const auto& [pos, val] : shadow) {
    EXPECT_EQ(tree.leaf(pos), std::optional<Digest>(val));
    EXPECT_TRUE(MerkleStateTree::verify(tree.root(), val, tree.prove(pos)));
  }
  for (int i = 0; i < 8; ++i) {
    std::uint64_t pos = rng.next_below(tree.capacity());
    if (shadow.contains(pos)) continue;
    EXPECT_FALSE(tree.occupied(pos));
    EXPECT_TRUE(MerkleStateTree::verify_empty(tree.root(), tree.prove(pos)));
  }
}

TEST_P(MstDepthSweep, RandomChurnKeepsProofsConsistent) {
  // Halfway through the churn the tree is copied; from then on the two
  // trees share their untouched subtrees but must evolve independently.
  unsigned depth = GetParam();
  MerkleStateTree mst(depth);
  Rng rng(depth);
  Shadow shadow;
  for (int step = 0; step < 100; ++step) churn_step(mst, shadow, rng);

  MerkleStateTree copy = mst;
  Shadow copy_shadow = shadow;
  EXPECT_EQ(copy.root(), mst.root());
  for (int step = 0; step < 100; ++step) {
    churn_step(mst, shadow, rng);
    churn_step(copy, copy_shadow, rng);
  }
  expect_matches_shadow(mst, shadow, rng);
  expect_matches_shadow(copy, copy_shadow, rng);
}

INSTANTIATE_TEST_SUITE_P(Depths, MstDepthSweep,
                         ::testing::Values(4u, 8u, 16u, 24u, 32u));

}  // namespace
}  // namespace zendoo::merkle
