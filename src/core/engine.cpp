#include "core/engine.hpp"

#include <stdexcept>

namespace zendoo::core {

Engine::Engine(mainchain::ChainParams params, const crypto::KeyPair& miner_key)
    : chain_(params),
      miner_key_(miner_key),
      miner_wallet_(miner_key),
      miner_(chain_, miner_key.address()) {}

latus::LatusNode& Engine::add_latus_sidechain(
    const SidechainId& id, std::uint64_t start_block, std::uint64_t epoch_len,
    std::uint64_t submit_len, const std::vector<crypto::KeyPair>& forgers,
    unsigned mst_depth, std::uint64_t slots_per_epoch) {
  if (sidechains_.contains(id)) {
    throw std::invalid_argument("Engine: sidechain id already added");
  }
  auto node = std::make_unique<latus::LatusNode>(
      id, start_block, epoch_len, submit_len, mst_depth, slots_per_epoch);
  for (const auto& key : forgers) node->add_forger(key);
  mempool_.sidechain_creations.push_back(node->mc_params());
  auto [it, _] =
      sidechains_.emplace(id, ScEntry{std::move(node), chain_.height()});
  return *it->second.node;
}

latus::LatusNode& Engine::sidechain(const SidechainId& id) {
  auto it = sidechains_.find(id);
  if (it == sidechains_.end()) {
    throw std::invalid_argument("Engine: unknown sidechain");
  }
  return *it->second.node;
}

mainchain::Block Engine::step() {
  mainchain::Block block;
  auto result = miner_.mine_and_submit(mempool_, &block);
  if (!result.accepted()) {
    throw std::logic_error("Engine: mining failed: " + result.error);
  }
  mempool_.clear();
  resync_sidechains_after_reorg();
  return block;
}

void Engine::run(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) step();
}

mainchain::Blockchain::SubmitResult Engine::submit_external_block(
    const mainchain::Block& block) {
  auto result = chain_.submit_block(block);
  if (result.accepted() && (result.connected > 0 || result.reorged)) {
    resync_sidechains_after_reorg();
  }
  return result;
}

bool Engine::queue_forward_transfer(const SidechainId& id,
                                    const mainchain::Address& sc_receiver,
                                    const mainchain::Address& mc_payback,
                                    mainchain::Amount amount) {
  auto tx = miner_wallet_.forward_transfer(
      chain_.state(), id, {sc_receiver, mc_payback}, amount);
  if (!tx) return false;
  mempool_.transactions.push_back(std::move(*tx));
  return true;
}

void Engine::set_auto_certificates(const SidechainId& id, bool enabled) {
  auto it = sidechains_.find(id);
  if (it == sidechains_.end()) {
    throw std::invalid_argument("Engine: unknown sidechain");
  }
  it->second.auto_certificates = enabled;
}

void Engine::resync_sidechains_after_reorg() {
  // A queued certificate goes once the active chain has finalized its
  // epoch or holds one for it of at least its quality, such as a peer's
  // block carried: the miner would refuse it (§4.1.2).
  std::erase_if(mempool_.certificates, [&](const auto& cert) {
    const auto* sc = chain_.state().find_sidechain(cert.ledger_id);
    if (sc == nullptr) return false;
    if (sc->last_finalized_epoch &&
        cert.epoch_id <= *sc->last_finalized_epoch) {
      return true;
    }
    return sc->pending_cert && sc->pending_cert_epoch == cert.epoch_id &&
           sc->pending_cert->quality >= cert.quality;
  });
  for (auto& [id, entry] : sidechains_) {
    latus::LatusNode& node = *entry.node;
    std::optional<std::uint64_t> synced = node.last_observed_mc_height();
    if (synced) {
      // Fork point between what the node observed and the active chain:
      // the highest observed height whose hash is still active. The node
      // observed nothing at or below added_at.
      std::uint64_t fork = std::min(*synced, chain_.height());
      while (fork > entry.added_at &&
             node.observed_mc_hash(fork) != chain_.hash_at_height(fork)) {
        --fork;
      }
      if (fork < *synced) synced = node.rollback_to_mc_ancestor(fork);
    }

    for (std::uint64_t h = synced.value_or(entry.added_at) + 1;
         h <= chain_.height(); ++h) {
      const mainchain::Block* b = chain_.find_block(chain_.hash_at_height(h));
      if (b == nullptr) {
        throw std::logic_error("Engine: active chain block missing");
      }
      if (std::string err = node.observe_mc_block(*b); !err.empty()) {
        throw std::logic_error("Engine: sidechain observe failed: " + err);
      }
      if (std::string err = node.forge_until_synced(); !err.empty()) {
        throw std::logic_error("Engine: sidechain forge failed: " + err);
      }
    }

    // The next MC block lands inside the submission window of an epoch
    // that just completed (§4.1.2); a ceased or unregistered sidechain
    // takes no certificate.
    const auto* sc = chain_.state().find_sidechain(id);
    if (!entry.auto_certificates || sc == nullptr || sc->ceased) continue;
    while (auto cert = node.build_certificate()) {
      mempool_.certificates.push_back(std::move(*cert));
    }
  }
}

}  // namespace zendoo::core
