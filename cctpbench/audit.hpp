// Output checks for one sidechain of a single-node workload, run after
// every MC block (untimed).
#pragma once

#include <map>
#include <set>

#include "bench.hpp"
#include "latus/node.hpp"
#include "mainchain/miner.hpp"

namespace cctpbench {

namespace latus = zendoo::latus;
namespace mainchain = zendoo::mainchain;

/// Follows one sidechain through the MC block of each step and the SC
/// blocks its node forged for it, and checks the CCTP outputs:
///  - every certificate the node builds is accepted in the next MC block
///    and finalized at the end of its window, and its BT payouts land;
///  - every BTR the MC accepts is applied by the sidechain, and every CSW
///    the MC accepts pays its receiver;
///  - value is conserved: the safeguard balance equals SC supply plus BTs
///    the sidechain applied but the MC has not paid out, minus CSW
///    payments.
class ScAudit {
 public:
  explicit ScAudit(mainchain::SidechainId id) : id_(id) {}

  /// What the sidechain applied for one MC block.
  struct Applied {
    std::set<Digest> payments;  ///< ids of applied SC payments
    std::size_t bt_txs = 0;     ///< applied backward-transfer transactions
    std::size_t btrs = 0;       ///< applied BTRs
  };

  /// Audits the step that mined `block`. `certs_built` are the
  /// certificates the node built in that step (queued for the next block).
  Applied after_step(const mainchain::Block& block,
                     const mainchain::ChainState& state,
                     const latus::LatusNode& node,
                     const std::vector<mainchain::WithdrawalCertificate>&
                         certs_built,
                     Ledger& ledger, Checks& checks);

 private:
  mainchain::SidechainId id_;
  std::size_t sc_blocks_seen_ = 0;
  /// Certificates built and not yet finalized, by epoch.
  std::map<std::uint64_t, mainchain::WithdrawalCertificate> certs_;
  unsigned __int128 bts_applied_ = 0;  ///< value of every BT applied
  unsigned __int128 paid_out_ = 0;     ///< value of every BT payout
  unsigned __int128 csw_paid_ = 0;     ///< value of every CSW payment
};

}  // namespace cctpbench
