#include "traffic.hpp"

#include <algorithm>

namespace cctpbench {

bool SlotPlan::occupied(std::uint64_t pos) const {
  if (taken_.contains(pos)) return true;
  if (freed_.contains(pos)) return false;
  return state_.mst().occupied(pos);
}

std::uint64_t ft_slot(const mainchain::ForwardTransferOutput& ft,
                      const Digest& txid, std::uint32_t index,
                      unsigned depth) {
  latus::Utxo utxo;
  utxo.nonce = crypto::Hasher(crypto::Domain::kUtxo)
                   .write_str("ft-output")
                   .write(ft.leaf_hash(txid, index))
                   .finalize();
  return latus::mst_position(utxo, depth);
}

bool reserve_ft_slots(const mainchain::Transaction& tx,
                      const mainchain::SidechainId& ledger, SlotPlan& plan) {
  const Digest txid = tx.id();
  std::vector<std::uint64_t> slots;
  for (std::uint32_t i = 0; i < tx.forward_transfers.size(); ++i) {
    if (tx.forward_transfers[i].ledger_id != ledger) continue;
    const std::uint64_t pos =
        ft_slot(tx.forward_transfers[i], txid, i, plan.depth());
    if (plan.occupied(pos) ||
        std::find(slots.begin(), slots.end(), pos) != slots.end()) {
      return false;
    }
    slots.push_back(pos);
  }
  for (std::uint64_t pos : slots) plan.take(pos);
  return true;
}

std::optional<mainchain::Transaction> build_ft_tx(
    const mainchain::Wallet& wallet, const mainchain::ChainState& state,
    const mainchain::SidechainId& ledger,
    std::vector<mainchain::Wallet::FtSpec> specs, SlotPlan& plan,
    std::uint64_t* signatures) {
  for (;;) {
    auto tx = wallet.forward_transfer_many(state, ledger, specs);
    if (!tx) return std::nullopt;
    ++*signatures;  // one signature covers every input
    if (reserve_ft_slots(*tx, ledger, plan)) return tx;
    ++specs.front().amount;
  }
}

ScWallet::ScWallet(std::vector<crypto::KeyPair> users)
    : users_(std::move(users)), coins_(users_.size()) {
  for (std::size_t i = 0; i < users_.size(); ++i) {
    index_of_.emplace(users_[i].address(), i);
  }
}

void ScWallet::sync(const latus::LatusState& state) {
  for (auto& coins : coins_) coins.clear();
  // Occupied positions come back ordered, so coin lists (and every random
  // pick from them) are deterministic.
  for (std::uint64_t pos : state.mst().occupied_positions()) {
    auto utxo = state.utxo_at(pos);
    if (!utxo) continue;
    auto it = index_of_.find(utxo->addr);
    if (it != index_of_.end()) coins_[it->second].push_back(*utxo);
  }
}

const crypto::KeyPair* ScWallet::pick_user(crypto::Rng& rng,
                                           std::size_t min_coins) {
  // Bounded random probing, then a scan: the result depends only on the
  // rng and the coin lists.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::size_t i = rng.next_below(users_.size());
    if (coins_[i].size() >= min_coins) return &users_[i];
  }
  for (std::size_t i = 0; i < users_.size(); ++i) {
    if (coins_[i].size() >= min_coins) return &users_[i];
  }
  return nullptr;
}

Digest ScWallet::pair_key(const latus::Utxo& a, const latus::Utxo& b) {
  return crypto::Hasher(crypto::Domain::kGeneric)
      .write(a.hash())
      .write(b.hash())
      .finalize();
}

std::vector<latus::PaymentTx> ScWallet::payments(std::size_t n,
                                                 crypto::Rng& rng,
                                                 SlotPlan& plan) {
  std::vector<latus::PaymentTx> out;
  // Each attempt either yields a payment or rules out one candidate, so
  // the loop ends even when coins run short.
  for (std::size_t attempt = 0; out.size() < n && attempt < 8 * n;
       ++attempt) {
    const crypto::KeyPair* payer = pick_user(rng, 2);
    if (payer == nullptr) break;
    auto& coins = coins_[index_of_.at(payer->address())];
    const std::size_t ia = rng.next_below(coins.size());
    std::size_t ib = rng.next_below(coins.size() - 1);
    if (ib >= ia) ++ib;
    const latus::Utxo a = coins[ia];
    const latus::Utxo b = coins[ib];
    if (dropped_pairs_.contains(pair_key(a, b))) continue;

    const crypto::KeyPair& receiver = users_[rng.next_below(users_.size())];
    const mainchain::Amount total = a.amount + b.amount;
    const mainchain::Amount pay = 1 + rng.next_below(total - 1);
    latus::PaymentTx tx = latus::build_payment(
        {a, b}, *payer,
        {{receiver.address(), pay}, {payer->address(), total - pay}});
    ++signatures_;

    // Inputs leave before outputs enter (latus::apply_payment).
    const unsigned depth = plan.depth();
    const std::uint64_t pa = latus::mst_position(a, depth);
    const std::uint64_t pb = latus::mst_position(b, depth);
    const std::uint64_t p0 = latus::mst_position(tx.outputs[0], depth);
    const std::uint64_t p1 = latus::mst_position(tx.outputs[1], depth);
    auto free_after_inputs = [&](std::uint64_t p) {
      return p == pa || p == pb || !plan.occupied(p);
    };
    if (p0 == p1 || !free_after_inputs(p0) || !free_after_inputs(p1)) {
      continue;
    }
    plan.free(pa);
    plan.free(pb);
    plan.take(p0);
    plan.take(p1);
    // Remove the higher index first so the lower one stays valid.
    coins.erase(coins.begin() + static_cast<std::ptrdiff_t>(std::max(ia, ib)));
    coins.erase(coins.begin() + static_cast<std::ptrdiff_t>(std::min(ia, ib)));
    out.push_back(std::move(tx));
  }
  return out;
}

std::vector<latus::BackwardTransferTx> ScWallet::backward_transfers(
    std::size_t n, crypto::Rng& rng) {
  std::vector<latus::BackwardTransferTx> out;
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::KeyPair* user = pick_user(rng, 2);
    if (user == nullptr) break;
    auto& coins = coins_[index_of_.at(user->address())];
    const std::size_t ic = rng.next_below(coins.size());
    const latus::Utxo coin = coins[ic];
    out.push_back(latus::build_backward_transfer(
        {coin}, *user, {{user->address(), coin.amount}}));
    ++signatures_;
    // The burnt coin's slot stays taken in the plan: the sidechain applies
    // backward transfers after the block's payments.
    coins.erase(coins.begin() + static_cast<std::ptrdiff_t>(ic));
  }
  return out;
}

void ScWallet::note_dropped(const latus::PaymentTx& tx) {
  if (tx.inputs.size() == 2) {
    dropped_pairs_.insert(pair_key(tx.inputs[0].utxo, tx.inputs[1].utxo));
  }
}

McWallets::McWallets(std::vector<crypto::KeyPair> users)
    : users_(std::move(users)), coins_(users_.size()) {}

void McWallets::sync(const mainchain::ChainState& state) {
  for (std::size_t i = 0; i < users_.size(); ++i) {
    coins_[i] = state.utxos_of(users_[i].address());
    std::sort(coins_[i].begin(), coins_[i].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
}

std::vector<std::pair<mainchain::OutPoint, mainchain::TxOutput>>
McWallets::take_inputs(std::size_t user, crypto::Rng& rng) {
  auto& coins = coins_[user];
  std::vector<std::pair<mainchain::OutPoint, mainchain::TxOutput>> in;
  for (std::size_t k = 0; k < 2 && !coins.empty(); ++k) {
    const std::size_t i = rng.next_below(coins.size());
    in.push_back(coins[i]);
    coins.erase(coins.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return in;
}

mainchain::Transaction McWallets::sign(std::size_t user,
                                       mainchain::Transaction tx) {
  ++signatures_;
  return mainchain::sign_all_inputs(std::move(tx), users_[user]);
}

std::optional<mainchain::Transaction> McWallets::payment(
    std::size_t payer, const mainchain::Address& receiver, crypto::Rng& rng) {
  auto in = take_inputs(payer, rng);
  mainchain::Amount total = 0;
  mainchain::Transaction tx;
  for (const auto& [op, out] : in) {
    tx.inputs.push_back({op, {}, {}});
    total += out.amount;
  }
  if (total < 2) return std::nullopt;
  const mainchain::Amount pay = 1 + rng.next_below(total - 1);
  tx.outputs = {{receiver, pay}, {users_[payer].address(), total - pay}};
  return sign(payer, std::move(tx));
}

std::optional<mainchain::Transaction> McWallets::forward_transfer(
    std::size_t payer, const mainchain::SidechainId& ledger,
    const mainchain::Address& sc_receiver, SlotPlan& plan, crypto::Rng& rng) {
  auto in = take_inputs(payer, rng);
  mainchain::Amount total = 0;
  mainchain::Transaction base;
  for (const auto& [op, out] : in) {
    base.inputs.push_back({op, {}, {}});
    total += out.amount;
  }
  if (total < 2) return std::nullopt;
  mainchain::Amount amount =
      std::min<mainchain::Amount>(1'000 + rng.next_below(9'000), total / 2);
  const mainchain::Address& self = users_[payer].address();
  for (;;) {
    mainchain::Transaction tx = base;
    tx.forward_transfers.push_back({ledger, {sc_receiver, self}, amount});
    tx.outputs.push_back({self, total - amount});
    tx = sign(payer, std::move(tx));
    if (reserve_ft_slots(tx, ledger, plan)) return tx;
    if (amount <= 1) return std::nullopt;
    --amount;  // a new amount moves the output to another slot
  }
}

}  // namespace cctpbench
