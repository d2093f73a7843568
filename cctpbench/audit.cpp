#include "audit.hpp"

#include <string>

namespace cctpbench {

ScAudit::Applied ScAudit::after_step(
    const mainchain::Block& block, const mainchain::ChainState& state,
    const latus::LatusNode& node,
    const std::vector<mainchain::WithdrawalCertificate>& certs_built,
    Ledger& ledger, Checks& checks) {
  const std::uint64_t height = block.header.height;
  const std::string where =
      "sidechain " + id_.to_hex().substr(0, 8) + " at height " +
      std::to_string(height) + ": ";
  Applied applied;

  // SC blocks forged for this MC block.
  for (; sc_blocks_seen_ < node.chain().size(); ++sc_blocks_seen_) {
    const latus::ScBlock& sb = node.chain()[sc_blocks_seen_];
    for (const auto& tx : sb.payments) applied.payments.insert(tx.id());
    for (const auto& tx : sb.bt_txs) {
      ++applied.bt_txs;
      for (const auto& bt : tx.backward_transfers) bts_applied_ += bt.amount;
    }
    for (const auto& ref : sb.mc_refs) {
      if (ref.forward_transfers) {
        const auto& fttx = *ref.forward_transfers;
        ledger.attempt("sc.forward_transfers", fttx.fts.size());
        ledger.fail("sc.forward_transfers", fttx.rejected_transfers.size());
        for (const auto& bt : fttx.rejected_transfers) bts_applied_ += bt.amount;
      }
      if (ref.bt_requests) {
        applied.btrs += ref.bt_requests->backward_transfers.size();
        for (const auto& bt : ref.bt_requests->backward_transfers) {
          bts_applied_ += bt.amount;
        }
      }
    }
  }

  // BTRs and CSWs the MC accepted for this sidechain.
  std::size_t btrs = 0;
  for (const auto& btr : block.btrs) btrs += btr.ledger_id == id_ ? 1 : 0;
  checks.expect(applied.btrs == btrs,
                where + "the sidechain did not apply every accepted BTR");
  for (const auto& csw : block.csws) {
    if (csw.ledger_id != id_) continue;
    const auto* out = state.find_utxo({csw.hash(), 0});
    checks.expect(out != nullptr && out->addr == csw.receiver &&
                      out->amount == csw.amount,
                  where + "a CSW payment did not land");
    csw_paid_ += csw.amount;
  }

  // Certificates: the block carries only certificates the node built, and
  // each built one in the first block of its window.
  for (const auto& cert : block.certificates) {
    if (cert.ledger_id != id_) continue;
    auto it = certs_.find(cert.epoch_id);
    checks.expect(it != certs_.end() && it->second.hash() == cert.hash(),
                  where + "block carries a certificate the node did not build");
  }
  const auto& params = node.mc_params();
  for (const auto& [epoch, cert] : certs_) {
    if (height != params.cert_window_begin(epoch)) continue;
    bool included = false;
    for (const auto& c : block.certificates) included |= c.hash() == cert.hash();
    if (!included) ledger.fail("mc.certificates");
    checks.expect(included, where + "certificate of epoch " +
                                std::to_string(epoch) + " not accepted");
  }
  for (const auto& cert : certs_built) {
    ledger.attempt("mc.certificates");
    certs_.emplace(cert.epoch_id, cert);
  }

  // Finalization: the window end pays the certificate's BTs.
  const mainchain::SidechainStatus* sc = state.find_sidechain(id_);
  checks.expect(sc != nullptr, where + "sidechain not registered");
  if (sc == nullptr) return applied;
  for (auto it = certs_.begin(); it != certs_.end();) {
    const auto& [epoch, cert] = *it;
    if (height < params.cert_window_end(epoch)) {
      ++it;
      continue;
    }
    checks.expect(sc->last_finalized_epoch && *sc->last_finalized_epoch >= epoch,
                  where + "certificate of epoch " + std::to_string(epoch) +
                      " not finalized");
    const Digest h = cert.hash();
    for (std::uint32_t i = 0; i < cert.bt_list.size(); ++i) {
      const auto* out = state.find_utxo({h, i});
      checks.expect(out != nullptr && out->addr == cert.bt_list[i].receiver &&
                        out->amount == cert.bt_list[i].amount,
                    where + "a BT payout of epoch " + std::to_string(epoch) +
                        " did not land");
      paid_out_ += cert.bt_list[i].amount;
    }
    it = certs_.erase(it);
  }

  checks.expect(sc->balance + csw_paid_ ==
                    node.state().total_supply() + bts_applied_ - paid_out_,
                where + "safeguard balance is not SC supply plus unpaid BTs "
                        "minus CSW payments");
  return applied;
}

}  // namespace cctpbench
