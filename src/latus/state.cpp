#include "latus/state.hpp"

#include <algorithm>
#include <map>
#include <memory>

namespace zendoo::latus {

namespace {

// insert_utxo is the only way into a state's tree, so every leaf carries
// its Utxo as payload.

/// The UTXO occupying `pos`, or null; valid while a tree holds its leaf.
const Utxo* utxo_in(const merkle::MerkleStateTree& mst, std::uint64_t pos) {
  return static_cast<const Utxo*>(mst.payload(pos));
}

/// Calls `visit` with each UTXO in `mst`, in slot order.
template <class F>
void for_each_utxo(const merkle::MerkleStateTree& mst, F&& visit) {
  mst.for_each_leaf([&visit](std::uint64_t, const void* payload) {
    visit(*static_cast<const Utxo*>(payload));
  });
}

}  // namespace

std::uint64_t mst_position(const Utxo& utxo, unsigned depth) {
  // Deterministic and independent of the current MST contents, as §5.2
  // requires: derived from the UTXO's unique nonce alone.
  Digest h = crypto::Hasher(Domain::kUtxo)
                 .write_str("mst-position")
                 .write(utxo.nonce)
                 .finalize();
  std::uint64_t raw = 0;
  for (int i = 0; i < 8; ++i) {
    raw = (raw << 8) | h.bytes[static_cast<std::size_t>(i)];
  }
  return raw & ((std::uint64_t{1} << depth) - 1);
}

LatusState::LatusState(unsigned mst_depth)
    : mst_(mst_depth), delta_(mst_depth) {}

Digest LatusState::commitment() const {
  return crypto::Hasher(Domain::kStateCommitment)
      .write(mst_.root())
      .write(bt_list_root())
      .finalize();
}

Digest LatusState::bt_list_root() const {
  std::vector<Digest> leaves;
  leaves.reserve(backward_transfers_.size());
  for (const auto& bt : backward_transfers_) leaves.push_back(bt.leaf_hash());
  return merkle::merkle_root(leaves);
}

std::optional<Utxo> LatusState::utxo_at(std::uint64_t pos) const {
  const Utxo* utxo = utxo_in(mst_, pos);
  if (utxo == nullptr) return std::nullopt;
  return *utxo;
}

bool LatusState::contains(const Utxo& utxo) const {
  const Utxo* held = utxo_in(mst_, mst_position(utxo, depth()));
  return held != nullptr && *held == utxo;
}

Amount LatusState::total_supply() const {
  Amount sum = 0;
  for_each_utxo(mst_, [&sum](const Utxo& u) { sum += u.amount; });
  return sum;
}

Amount LatusState::balance_of(const Address& addr) const {
  Amount sum = 0;
  for_each_utxo(mst_, [&](const Utxo& u) {
    if (u.addr == addr) sum += u.amount;
  });
  return sum;
}

std::vector<Utxo> LatusState::utxos_of(const Address& addr) const {
  std::vector<Utxo> out;
  for_each_utxo(mst_, [&](const Utxo& u) {
    if (u.addr == addr) out.push_back(u);
  });
  std::sort(out.begin(), out.end(), [](const Utxo& a, const Utxo& b) {
    return a.nonce < b.nonce;
  });
  return out;
}

std::vector<std::pair<Address, Amount>> LatusState::stake_snapshot() const {
  std::map<Address, Amount> per_addr;
  for_each_utxo(mst_,
                [&per_addr](const Utxo& u) { per_addr[u.addr] += u.amount; });
  return {per_addr.begin(), per_addr.end()};
}

bool LatusState::insert_utxo(const Utxo& utxo) {
  std::uint64_t pos = mst_position(utxo, depth());
  if (!mst_.insert(pos, utxo.hash(), std::make_shared<const Utxo>(utxo))) {
    return false;
  }
  delta_.set(pos);
  return true;
}

bool LatusState::remove_utxo(const Utxo& utxo) {
  std::uint64_t pos = mst_position(utxo, depth());
  const Utxo* held = utxo_in(mst_, pos);
  if (held == nullptr || !(*held == utxo)) return false;
  mst_.erase(pos);
  delta_.set(pos);
  return true;
}

void LatusState::push_backward_transfer(
    const mainchain::BackwardTransfer& bt) {
  backward_transfers_.push_back(bt);
}

merkle::MstDelta LatusState::begin_withdrawal_epoch() {
  backward_transfers_.clear();
  merkle::MstDelta out = delta_;
  delta_ = merkle::MstDelta(depth());
  return out;
}

}  // namespace zendoo::latus
