// Pieces shared by the single-node workloads (sc_payments, multi_sc): the
// traced replacement of Engine::step and the registry-derived layer
// metrics every workload reports.
#pragma once

#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"

namespace cctpbench {

namespace core = zendoo::core;
namespace mainchain = zendoo::mainchain;

/// What the traced step learned beyond the block itself.
struct TracedStepStats {
  std::vector<double> cert_ms;  ///< one entry per certificate built
  std::vector<zendoo::snark::RecursionStats> recursion;
};

/// Engine::step as the same public calls in the same order, one span per
/// call: Miner::build_block on the engine's coinbase address,
/// Blockchain::submit_block, clearing the mempool, then per sidechain in
/// SidechainId order observe_mc_block, forge_until_synced and — when it
/// still certifies — build_certificate until empty. `certifying` lists
/// every sidechain of the engine in id order with its auto-certificate
/// flag. Throws where Engine::step throws.
mainchain::Block traced_engine_step(
    core::Engine& engine, const mainchain::Miner& miner,
    const std::vector<std::pair<mainchain::SidechainId, bool>>& certifying,
    Tracer& tracer, TracedStepStats& stats);

/// Bookkeeping the single-node workloads share for their layer metrics,
/// summed over the steps of a timed phase.
struct NodeCounts {
  double payments_applied = 0, payments_dropped = 0, bts_applied = 0;
  double mst_occupied = 0, commitment_leaves = 0;
  double items_offered = 0, items_included = 0;
  double gen_signatures = 0;
  TracedStepStats traced;
};
/// Per-MC-block (and per-certificate) layer metrics from NodeCounts.
void node_count_metrics(const NodeCounts& c, double mc_blocks,
                        LayerMetrics& out);

/// Items a miner may include from `pool`, and items `block` included.
[[nodiscard]] std::size_t mempool_items(const mainchain::Mempool& pool);
[[nodiscard]] std::size_t block_items(const mainchain::Block& block);

/// Sidechains `block` carries data for (its commitment tree's leaves).
[[nodiscard]] std::size_t commitment_leaves(const mainchain::Block& block);

/// Sums the engine's registries: mainchain ("mc.") and validation
/// ("par.").
void add_engine_registries(const core::Engine& engine, RegistrySum& sum);

/// Layer metrics read from the program's registries over a timed phase:
/// snark/crypto MC verification, mainchain connect/disconnect and reorgs,
/// parallel checks, and (when the registries hold them) simulator and
/// node networking. Per MC block except ratios and maxima.
void registry_layer_metrics(const RegistrySum& before,
                            const RegistrySum& after, double mc_blocks,
                            LayerMetrics& out);

}  // namespace cctpbench
