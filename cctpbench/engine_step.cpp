#include "engine_step.hpp"

#include <set>
#include <stdexcept>

namespace cctpbench {

mainchain::Block traced_engine_step(
    core::Engine& engine, const mainchain::Miner& miner,
    const std::vector<std::pair<mainchain::SidechainId, bool>>& certifying,
    Tracer& tracer, TracedStepStats& stats) {
  mainchain::Block block;
  {
    Tracer::Scope span(&tracer, "mainchain.build_block");
    block = miner.build_block(engine.mempool());
  }
  {
    Tracer::Scope span(&tracer, "mainchain.submit_block");
    auto result = engine.mc().submit_block(block);
    if (!result.accepted()) {
      throw std::logic_error("traced step: mining failed: " + result.error);
    }
  }
  engine.mempool().clear();

  for (const auto& [id, certifies] : certifying) {
    zendoo::latus::LatusNode& node = engine.sidechain(id);
    {
      Tracer::Scope span(&tracer, "latus.observe");
      if (std::string err = node.observe_mc_block(block); !err.empty()) {
        throw std::logic_error("traced step: observe failed: " + err);
      }
    }
    {
      Tracer::Scope span(&tracer, "latus.forge");
      if (std::string err = node.forge_until_synced(); !err.empty()) {
        throw std::logic_error("traced step: forge failed: " + err);
      }
    }
    while (certifies) {
      zendoo::snark::RecursionStats rs;
      const std::int64_t t0 = now_ns();
      std::optional<mainchain::WithdrawalCertificate> cert;
      {
        Tracer::Scope span(&tracer, "latus.cert");
        cert = node.build_certificate(&rs);
      }
      if (!cert) break;
      stats.cert_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      stats.recursion.push_back(rs);
      engine.mempool().certificates.push_back(std::move(*cert));
    }
  }
  return block;
}

std::size_t mempool_items(const mainchain::Mempool& pool) {
  return pool.transactions.size() + pool.sidechain_creations.size() +
         pool.certificates.size() + pool.btrs.size() + pool.csws.size();
}

std::size_t block_items(const mainchain::Block& block) {
  // The coinbase is the miner's own, not an offered item.
  return block.transactions.size() - 1 + block.sidechain_creations.size() +
         block.certificates.size() + block.btrs.size() + block.csws.size();
}

std::size_t commitment_leaves(const mainchain::Block& block) {
  std::set<mainchain::SidechainId> ids;
  for (const auto& tx : block.transactions) {
    for (const auto& ft : tx.forward_transfers) ids.insert(ft.ledger_id);
  }
  for (const auto& cert : block.certificates) ids.insert(cert.ledger_id);
  for (const auto& btr : block.btrs) ids.insert(btr.ledger_id);
  for (const auto& csw : block.csws) ids.insert(csw.ledger_id);
  return ids.size();
}

void add_engine_registries(const core::Engine& engine, RegistrySum& sum) {
  sum.add(engine.mc().registry());
  if (const auto& vctx = engine.mc().state().validation_context()) {
    sum.add(vctx->registry());
  }
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void registry_layer_metrics(const RegistrySum& before,
                            const RegistrySum& after, double mc_blocks,
                            LayerMetrics& out) {
  auto delta = [&](const std::string& name) {
    return after.get(name) - before.get(name);
  };
  auto per_block = [&](const std::string& name) {
    return ratio(delta(name), mc_blocks);
  };
  auto ms_per_block = [&](const std::string& name) {
    return ratio(delta(name) / 1e6, mc_blocks);
  };

  out["snark.mc_verifies"] = per_block("par.verify_ns{kind=snark}.count");
  out["snark.mc_verify_ms"] = ms_per_block("par.verify_ns{kind=snark}.sum");
  out["crypto.mc_sig_checks"] =
      per_block("par.verify_ns{kind=signature}.count");
  out["crypto.mc_sig_verify_ms"] =
      ms_per_block("par.verify_ns{kind=signature}.sum");

  out["mainchain.connect_ms"] = ms_per_block("mc.connect_block_ns.sum");
  out["mainchain.disconnect_ms"] = ms_per_block("mc.disconnect_block_ns.sum");
  out["mainchain.reorgs"] = per_block("mc.reorgs");
  out["mainchain.reorg_depth_max"] = after.max("mc.reorg_depth.max");
  out["mainchain.blocks_disconnected"] = per_block("mc.blocks_disconnected");
  out["mainchain.orphans_buffered"] = per_block("mc.orphans_buffered");
  out["mainchain.orphans_evicted"] = per_block("mc.orphans_evicted");

  const double executed = delta("par.checks_executed");
  const double hits = delta("par.cache_hits");
  const double batches = delta("par.batches");
  out["parallel.checks_executed"] = ratio(executed, mc_blocks);
  out["parallel.batches"] = ratio(batches, mc_blocks);
  out["parallel.batch_size_mean"] = ratio(delta("par.batch_size.sum"),
                                          delta("par.batch_size.count"));
  out["parallel.cache_hit_ratio"] = ratio(hits, hits + executed);

  out["net.events_per_block"] = per_block("sim.events_processed");
  out["net.msgs_per_block"] = per_block("sim.delivered");
  out["net.bytes_per_block"] = per_block("sim.bytes_queued");
  out["net.headers_received"] = per_block("net.headers_received");
  out["net.blocks_downloaded"] = per_block("net.blocks_downloaded");
  out["net.stalled_rerequests"] = per_block("net.stalled_rerequests");
  const double enc_hits = delta("net.encode_cache_hits");
  out["net.encode_cache_hit_ratio"] =
      ratio(enc_hits, enc_hits + delta("net.encode_cache_misses"));
  out["net.wire_dedup_hits"] = per_block("net.wire_dedup_hits");
  out["net.duplicates"] = per_block("net.duplicates");
}

void node_count_metrics(const NodeCounts& c, double mc_blocks,
                        LayerMetrics& out) {
  auto per_block = [&](double v) { return ratio(v, mc_blocks); };
  out["latus.payments_applied"] = per_block(c.payments_applied);
  out["latus.payments_dropped"] = per_block(c.payments_dropped);
  out["latus.bts_applied"] = per_block(c.bts_applied);
  out["merkle.mst_occupied"] = per_block(c.mst_occupied);
  out["merkle.commitment_leaves"] = per_block(c.commitment_leaves);
  out["mainchain.block_items"] = per_block(c.items_included);
  out["mainchain.include_ratio"] = ratio(c.items_included, c.items_offered);
  out["crypto.gen_signatures"] = per_block(c.gen_signatures);

  const auto& t = c.traced;
  const double certs = static_cast<double>(t.cert_ms.size());
  double base = 0, merge = 0, depth = 0;
  for (const auto& rs : t.recursion) {
    base += static_cast<double>(rs.base_proofs);
    merge += static_cast<double>(rs.merge_proofs);
    depth += static_cast<double>(rs.depth);
  }
  out["latus.cert_ms_p50"] = median(t.cert_ms);
  out["latus.epoch_steps"] = ratio(base, certs);
  out["snark.base_proofs"] = ratio(base, certs);
  out["snark.merge_proofs"] = ratio(merge, certs);
  out["snark.merge_depth"] = ratio(depth, certs);
}

}  // namespace cctpbench
