// Validation-pipeline settings, embedded in ChainParams so every
// consumer of a chain (miner, gossip ingestion, dry-run probes) follows
// the same configuration. Kept dependency-free: the runtime machinery
// (worker pool, proof cache) lives in parallel/batch_verifier.hpp.
#pragma once

#include <cstddef>

namespace zendoo::parallel {

/// Sizes the runtime that verifies a block's expensive stateless checks
/// (SNARK proofs, signatures). Those checks are always collected during
/// overlay application and verified as one batch before the block
/// commits; the outcome is identical for every setting.
struct ValidationConfig {
  /// Extra worker threads for batch verification; the control thread
  /// always joins in, so 0 means "run the batch on the caller".
  unsigned worker_threads = 0;
  /// Entries retained in the shared verified-check cache (dry_run and
  /// connect_block share it, so a block probed via dry_run re-verifies
  /// nothing on connect). 0 disables caching.
  std::size_t cache_capacity = 1 << 16;
};

}  // namespace zendoo::parallel
