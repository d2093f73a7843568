#include "crypto/signature_memo.hpp"

#include <unordered_set>
#include <vector>

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

void SignatureMemo::prime(std::span<const SignatureCheck> checks) {
  std::vector<SignatureCheck> batch;
  std::vector<Digest> keys;
  std::unordered_set<Digest, DigestHash> seen;
  for (const SignatureCheck& c : checks) {
    Digest k = key(c.pubkey, c.msg, c.sig);
    if (verified_.contains(k) || !seen.insert(k).second) continue;
    batch.push_back(c);
    keys.push_back(k);
  }
  if (batch.empty()) return;
  stats_.executed += batch.size();
  if (!verify_batch(batch)) return;
  for (const Digest& k : keys) verified_.insert(k);
}

}  // namespace zendoo::crypto
