#include "crypto/signature_memo.hpp"

namespace zendoo::crypto {

Digest SignatureMemo::key(const std::pair<u256, u256>& pubkey,
                          const Digest& msg, const Signature& sig) {
  return Hasher(Domain::kGeneric)
      .write_str("check:sig")
      .write(pubkey.first)
      .write(pubkey.second)
      .write(msg)
      .write(sig.rx)
      .write(sig.ry)
      .write(sig.s)
      .finalize();
}

bool SignatureMemo::verify(const std::pair<u256, u256>& pubkey,
                           const Digest& msg, const Signature& sig) {
  Digest k = key(pubkey, msg, sig);
  if (verified_.contains(k)) {
    ++stats_.hits;
    return true;
  }
  ++stats_.executed;
  if (!verify_signature(pubkey, msg, sig)) return false;
  verified_.insert(k);
  return true;
}

}  // namespace zendoo::crypto
