#include "latus/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/rng.hpp"

namespace zendoo::latus {
namespace {

using crypto::hash_str;
using crypto::KeyPair;
using crypto::Rng;

Utxo make_utxo(const std::string& owner, Amount amount,
               const std::string& nonce_seed) {
  return Utxo{hash_str(Domain::kAddress, owner), amount,
              hash_str(Domain::kGeneric, nonce_seed)};
}

TEST(MstPosition, DeterministicAndStateIndependent) {
  Utxo u = make_utxo("alice", 5, "n1");
  EXPECT_EQ(mst_position(u, 12), mst_position(u, 12));
  // Depends only on the nonce, not owner/amount (slot stability under
  // metadata changes is not required by the paper, but nonce-only
  // derivation makes the position manifestly state-independent).
  Utxo v = u;
  v.amount = 6;
  EXPECT_EQ(mst_position(u, 12), mst_position(v, 12));
  EXPECT_LT(mst_position(u, 4), 16u);
}

TEST(MstPosition, SpreadsAcrossSlots) {
  Rng rng(3);
  std::unordered_set<std::uint64_t> slots;
  for (int i = 0; i < 100; ++i) {
    Utxo u{Digest{}, 1, rng.next_digest()};
    slots.insert(mst_position(u, 16));
  }
  // With 65536 slots and 100 nonces, collisions should be rare.
  EXPECT_GT(slots.size(), 95u);
}

TEST(LatusStateTest, InsertRemoveRoundTrip) {
  LatusState s(8);
  Utxo u = make_utxo("alice", 10, "n1");
  Digest empty_commit = s.commitment();
  ASSERT_TRUE(s.insert_utxo(u));
  EXPECT_TRUE(s.contains(u));
  EXPECT_EQ(s.total_supply(), 10u);
  EXPECT_NE(s.commitment(), empty_commit);
  ASSERT_TRUE(s.remove_utxo(u));
  EXPECT_FALSE(s.contains(u));
  EXPECT_EQ(s.commitment(), empty_commit);
}

TEST(LatusStateTest, InsertCollisionFails) {
  LatusState s(8);
  Utxo u = make_utxo("alice", 10, "n1");
  Utxo v = u;
  v.amount = 20;  // same nonce -> same slot
  ASSERT_TRUE(s.insert_utxo(u));
  EXPECT_FALSE(s.insert_utxo(v));
  EXPECT_EQ(s.total_supply(), 10u);
}

TEST(LatusStateTest, RemoveRequiresExactMatch) {
  LatusState s(8);
  Utxo u = make_utxo("alice", 10, "n1");
  ASSERT_TRUE(s.insert_utxo(u));
  Utxo wrong = u;
  wrong.amount = 11;
  EXPECT_FALSE(s.remove_utxo(wrong));
  EXPECT_TRUE(s.contains(u));
}

TEST(LatusStateTest, CommitmentCoversBackwardTransfers) {
  LatusState s(8);
  Digest before = s.commitment();
  s.push_backward_transfer({hash_str(Domain::kAddress, "mc-bob"), 7});
  EXPECT_NE(s.commitment(), before);
  EXPECT_EQ(s.backward_transfers().size(), 1u);
}

TEST(LatusStateTest, BtListRootMatchesCertificateRoot) {
  LatusState s(8);
  mainchain::BackwardTransfer bt{hash_str(Domain::kAddress, "mc-bob"), 7};
  s.push_backward_transfer(bt);
  mainchain::WithdrawalCertificate cert;
  cert.bt_list = {bt};
  EXPECT_EQ(s.bt_list_root(), cert.bt_list_root());
}

TEST(LatusStateTest, EpochResetClearsTransients) {
  LatusState s(8);
  Utxo u = make_utxo("alice", 10, "n1");
  ASSERT_TRUE(s.insert_utxo(u));
  s.push_backward_transfer({hash_str(Domain::kAddress, "bob"), 1});
  EXPECT_EQ(s.delta().popcount(), 1u);
  merkle::MstDelta epoch_delta = s.begin_withdrawal_epoch();
  // The returned delta reflects the finished epoch.
  EXPECT_EQ(epoch_delta.popcount(), 1u);
  EXPECT_TRUE(epoch_delta.get(mst_position(u, 8)));
  // Transients are reset; the MST is untouched.
  EXPECT_TRUE(s.backward_transfers().empty());
  EXPECT_EQ(s.delta().popcount(), 0u);
  EXPECT_TRUE(s.contains(u));
}

TEST(LatusStateTest, DeltaTracksBothInsertAndRemove) {
  LatusState s(8);
  Utxo u = make_utxo("alice", 10, "n1");
  ASSERT_TRUE(s.insert_utxo(u));
  s.begin_withdrawal_epoch();
  ASSERT_TRUE(s.remove_utxo(u));
  EXPECT_TRUE(s.delta().get(mst_position(u, 8)));
}

TEST(LatusStateTest, BalancesAndStakeSnapshot) {
  LatusState s(10);
  ASSERT_TRUE(s.insert_utxo(make_utxo("alice", 10, "a1")));
  ASSERT_TRUE(s.insert_utxo(make_utxo("alice", 5, "a2")));
  ASSERT_TRUE(s.insert_utxo(make_utxo("bob", 7, "b1")));
  EXPECT_EQ(s.balance_of(hash_str(Domain::kAddress, "alice")), 15u);
  EXPECT_EQ(s.balance_of(hash_str(Domain::kAddress, "bob")), 7u);
  EXPECT_EQ(s.utxos_of(hash_str(Domain::kAddress, "alice")).size(), 2u);
  auto snapshot = s.stake_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  Amount total = 0;
  for (const auto& [_, amount] : snapshot) total += amount;
  EXPECT_EQ(total, 22u);
  EXPECT_EQ(s.total_supply(), 22u);
}

TEST(LatusStateTest, UtxoNullifierIsHashOfUtxo) {
  Utxo u = make_utxo("alice", 10, "n1");
  EXPECT_EQ(u.nullifier(),
            crypto::Hasher(Domain::kNullifier).write(u.hash()).finalize());
  Utxo v = u;
  v.amount += 1;
  EXPECT_NE(u.nullifier(), v.nullifier());
}

/// What a LatusState copy must keep to itself, read at `probes`' slots.
struct StateView {
  Digest commitment, mst_root, delta_hash;
  Amount supply = 0;
  std::vector<std::optional<Utxo>> slots;

  friend bool operator==(const StateView&, const StateView&) = default;
};

StateView view_of(const LatusState& s, const std::vector<Utxo>& probes) {
  StateView v{s.commitment(), s.mst().root(), s.delta().hash(),
              s.total_supply(), {}};
  for (const Utxo& u : probes) {
    v.slots.push_back(s.utxo_at(mst_position(u, s.depth())));
  }
  return v;
}

TEST(LatusStateTest, CopiesDoNotAlias) {
  // A copy shares its MST nodes with the source; neither side may see the
  // other's later mutations.
  LatusState original(12);
  std::vector<Utxo> probes;
  for (int i = 0; i < 16; ++i) {
    probes.push_back(make_utxo("alice", 10 + i, "coin" + std::to_string(i)));
    ASSERT_TRUE(original.insert_utxo(probes.back()));
  }
  original.push_backward_transfer({hash_str(Domain::kAddress, "mc-bob"), 3});
  const Utxo spent_by_copy = probes[0], spent_by_original = probes[1];
  const Utxo new_in_copy = make_utxo("bob", 99, "fresh-copy");
  const Utxo new_in_original = make_utxo("carol", 77, "fresh-original");
  probes.push_back(new_in_copy);
  probes.push_back(new_in_original);

  auto mutate = [](LatusState& s, const Utxo& spent, const Utxo& fresh) {
    ASSERT_TRUE(s.remove_utxo(spent));
    ASSERT_TRUE(s.insert_utxo(fresh));
    s.push_backward_transfer({hash_str(Domain::kAddress, "mc-carol"), 5});
    s.begin_withdrawal_epoch();
  };

  const StateView original_before = view_of(original, probes);
  LatusState copy = original;
  mutate(copy, spent_by_copy, new_in_copy);
  EXPECT_EQ(view_of(original, probes), original_before);
  EXPECT_EQ(copy.utxo_at(mst_position(new_in_copy, 12)),
            std::optional<Utxo>(new_in_copy));
  EXPECT_FALSE(copy.contains(spent_by_copy));

  const StateView copy_before = view_of(copy, probes);
  mutate(original, spent_by_original, new_in_original);
  EXPECT_EQ(view_of(copy, probes), copy_before);
  EXPECT_TRUE(copy.contains(spent_by_original));
  EXPECT_FALSE(copy.contains(new_in_original));
  EXPECT_TRUE(original.contains(spent_by_copy));
  EXPECT_FALSE(original.contains(new_in_copy));
}

class StateChurn : public ::testing::TestWithParam<unsigned> {};

using UtxoShadow = std::map<std::uint64_t, Utxo>;

/// A state and the independent record of what it must hold: its UTXOs by
/// slot and the slots touched this epoch.
struct Churned {
  LatusState state;
  UtxoShadow shadow;
  merkle::MstDelta delta;
};

/// Every read of `s.state` agrees with its shadow: the slot of the step's
/// UTXO `touched`, the per-address reads over `owners`, the whole-set
/// reads, and the commitment of a state rebuilt from the shadow alone.
void expect_matches_shadow(const Churned& s, const Utxo& touched,
                           const std::vector<Address>& owners) {
  const unsigned depth = s.state.depth();
  const std::uint64_t pos = mst_position(touched, depth);
  auto it = s.shadow.find(pos);
  EXPECT_EQ(s.state.utxo_at(pos), it == s.shadow.end()
                                      ? std::nullopt
                                      : std::optional<Utxo>(it->second));
  EXPECT_EQ(s.state.contains(touched),
            it != s.shadow.end() && it->second == touched);
  Amount supply = 0;
  std::map<Address, Amount> stake;
  for (const auto& [_, u] : s.shadow) {
    supply += u.amount;
    stake[u.addr] += u.amount;
  }
  for (const Address& owner : owners) {
    std::vector<Utxo> owned;
    for (const auto& [_, u] : s.shadow) {
      if (u.addr == owner) owned.push_back(u);
    }
    std::sort(owned.begin(), owned.end(),
              [](const Utxo& a, const Utxo& b) { return a.nonce < b.nonce; });
    EXPECT_EQ(s.state.utxos_of(owner), owned);
    EXPECT_EQ(s.state.balance_of(owner), stake.contains(owner) ? stake[owner]
                                                                : 0);
  }
  EXPECT_EQ(s.state.total_supply(), supply);
  EXPECT_EQ(s.state.stake_snapshot(),
            (std::vector<std::pair<Address, Amount>>(stake.begin(),
                                                     stake.end())));
  EXPECT_EQ(s.state.mst().occupied_count(), s.shadow.size());
  EXPECT_EQ(s.state.delta(), s.delta);
  LatusState rebuilt(depth);
  for (const auto& [_, u] : s.shadow) ASSERT_TRUE(rebuilt.insert_utxo(u));
  EXPECT_EQ(s.state.commitment(), rebuilt.commitment());
}

/// One random step on `s`: a fresh insert (which fails when its slot is
/// taken), a removal of a live UTXO, an insert of a live UTXO's twin (same
/// nonce, so same slot) or a removal of that twin. The last two, and a
/// fresh insert into an occupied slot, must fail and change nothing.
void churn_step(Churned& s, Rng& rng, const std::vector<Address>& owners) {
  constexpr std::uint64_t kTarget = 24;  // live UTXOs the churn hovers at
  const unsigned depth = s.state.depth();
  const Digest commitment_before = s.state.commitment();
  const std::uint64_t kind = rng.next_below(8);
  auto random_live = [&]() -> const Utxo& {
    auto it = s.shadow.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng.next_below(s.shadow.size())));
    return it->second;
  };
  Utxo touched;
  bool must_fail = false;
  if (kind < 2 && !s.shadow.empty()) {
    Utxo twin = random_live();
    twin.amount += 1 + rng.next_below(5);
    if (rng.chance(1, 2)) twin.addr = owners[rng.next_below(owners.size())];
    touched = twin;
    must_fail = true;
    if (kind == 0) {
      EXPECT_FALSE(s.state.insert_utxo(twin));
    } else {
      EXPECT_FALSE(s.state.remove_utxo(twin));
    }
  } else if (s.shadow.empty() ||
             rng.chance(kTarget, kTarget + s.shadow.size())) {
    const Utxo u{owners[rng.next_below(owners.size())],
                 1 + rng.next_below(1000), rng.next_digest()};
    const std::uint64_t pos = mst_position(u, depth);
    touched = u;
    must_fail = s.shadow.contains(pos);
    EXPECT_EQ(s.state.insert_utxo(u), !must_fail);
    if (!must_fail) {
      s.shadow.emplace(pos, u);
      s.delta.set(pos);
    }
  } else {
    const Utxo u = random_live();
    const std::uint64_t pos = mst_position(u, depth);
    touched = u;
    EXPECT_TRUE(s.state.remove_utxo(u));
    s.shadow.erase(pos);
    s.delta.set(pos);
  }
  if (must_fail) EXPECT_EQ(s.state.commitment(), commitment_before);
  expect_matches_shadow(s, touched, owners);
}

TEST_P(StateChurn, SupplyConservedUnderChurn) {
  // The MST is the state's only UTXO store, so every read must agree with
  // an independent shadow after every step. Halfway through, the state is
  // copied, and the two copies churn on against their own shadows.
  constexpr int kSteps = 600;
  const unsigned depth = GetParam();
  Rng rng(depth);
  std::vector<Address> owners;
  for (int i = 0; i < 4; ++i) owners.push_back(rng.next_digest());
  Churned s{LatusState(depth), {}, merkle::MstDelta(depth)};
  for (int step = 0; step < kSteps; ++step) {
    ASSERT_NO_FATAL_FAILURE(churn_step(s, rng, owners));
  }
  Churned copy = s;
  for (int step = 0; step < kSteps; ++step) {
    ASSERT_NO_FATAL_FAILURE(churn_step(s, rng, owners));
    ASSERT_NO_FATAL_FAILURE(churn_step(copy, rng, owners));
  }
  EXPECT_NE(s.state.commitment(), copy.state.commitment());
}

INSTANTIATE_TEST_SUITE_P(Depths, StateChurn,
                         ::testing::Values(8u, 12u, 16u, 20u));

}  // namespace
}  // namespace zendoo::latus
