// Consensus parameters: mainchain chain parameters and per-sidechain
// configuration registered at creation (paper §4.2 "Bootstrapping
// Sidechains").
#pragma once

#include <cstdint>

#include "mainchain/types.hpp"
#include "parallel/validation_config.hpp"
#include "snark/snark.hpp"

namespace zendoo::mainchain {

/// Sidechain configuration fixed at creation (paper §4.2). The verification
/// key triple (wcert_vk, btr_vk, csw_vk) fully defines how the MC validates
/// backward communication; null keys disable the respective operation.
struct SidechainParams {
  SidechainId ledger_id;
  /// MC block height at which the first withdrawal epoch begins.
  std::uint64_t start_block = 1;
  /// Withdrawal epoch length in MC blocks (epoch_len).
  std::uint64_t epoch_len = 10;
  /// Certificate submission window at the start of the next epoch
  /// (submit_len); must be in (0, epoch_len].
  std::uint64_t submit_len = 5;
  snark::VerifyingKey wcert_vk;
  snark::VerifyingKey btr_vk;
  snark::VerifyingKey csw_vk;
  /// Declared proofdata layouts (§4.2): number of digest-typed elements
  /// the respective posting must carry.
  std::uint64_t wcert_proofdata_len = 0;
  std::uint64_t btr_proofdata_len = 0;
  std::uint64_t csw_proofdata_len = 0;

  /// Digest binding every field (used inside block/tx hashing).
  [[nodiscard]] Digest hash() const;

  // ---- Withdrawal-epoch geometry (Fig. 3) ----

  /// First MC height of withdrawal epoch `epoch`.
  [[nodiscard]] std::uint64_t epoch_start(std::uint64_t epoch) const {
    return start_block + epoch * epoch_len;
  }
  /// Last MC height of withdrawal epoch `epoch`.
  [[nodiscard]] std::uint64_t epoch_end(std::uint64_t epoch) const {
    return epoch_start(epoch) + epoch_len - 1;
  }
  /// Epoch that MC height `h` belongs to (h must be >= start_block).
  [[nodiscard]] std::uint64_t epoch_of(std::uint64_t h) const {
    return (h - start_block) / epoch_len;
  }
  /// Submission window for the certificate of `epoch`:
  /// heights [window_begin, window_end).
  [[nodiscard]] std::uint64_t cert_window_begin(std::uint64_t epoch) const {
    return epoch_start(epoch + 1);
  }
  [[nodiscard]] std::uint64_t cert_window_end(std::uint64_t epoch) const {
    return epoch_start(epoch + 1) + submit_len;
  }
};

/// Mainchain consensus parameters.
struct ChainParams {
  /// PoW target: a block hash must be numerically below this value.
  /// The default requires ~2^8 hash attempts — fast yet a real PoW loop.
  crypto::u256 pow_target =
      crypto::u256::from_hex("00ffffffffffffffffffffffffffffffffffffffffff"
                             "ffffffffffffffffffff");
  /// Coinbase subsidy per block.
  Amount block_subsidy = 50'000'000;
  /// Maximum reorg the node will follow (sanity bound, like checkpointing).
  std::uint64_t max_reorg_depth = 1000;
  /// Orphan pool size bound: blocks arriving before their parent are
  /// buffered, at most this many — a peer spamming disconnected blocks
  /// cannot grow memory without limit.
  std::size_t max_orphan_blocks = 64;
  /// An orphan is only retained while its claimed height is within this
  /// window of the next block to connect (tip height + 1). The window
  /// bounds memory, not syncability: a block outside it is still
  /// reported kOrphaned (parent unknown) and can be redelivered once the
  /// tip catches up — repeated announcements advance a lagging node by
  /// up to one pool's worth of blocks each round.
  std::uint64_t orphan_height_window = 256;
  /// Validation pipeline settings: how many worker threads verify the
  /// batched SNARK and signature checks, and the verified-check cache
  /// size. Flows through ChainState into dry_run, connect_block, the
  /// miner and gossip ingestion alike; the validation outcome is
  /// identical for every setting.
  parallel::ValidationConfig validation;
};

}  // namespace zendoo::mainchain
