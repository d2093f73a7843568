// A bounded set of digests: the one verified-result cache of both chains
// (the mainchain's verified-check cache in parallel::ValidationContext and
// each sidechain node's crypto::SignatureMemo).
#pragma once

#include <cstddef>
#include <unordered_set>

#include "crypto/hash.hpp"

namespace zendoo::crypto {

/// Holds at most `capacity` digests; capacity 0 keeps nothing. Eviction is
/// a generation dump: inserting into a full set first clears it. That is
/// predictable and needs no per-entry bookkeeping, and both caches re-use
/// an entry soon after inserting it (a dry_run then its connect_block, a
/// forged payment then its epoch proof). Not thread-safe; an owner shared
/// across threads locks around it.
class BoundedDigestSet {
 public:
  explicit BoundedDigestSet(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool contains(const Digest& d) const {
    return set_.contains(d);
  }

  void insert(const Digest& d) {
    if (capacity_ == 0) return;
    if (set_.size() >= capacity_) set_.clear();
    set_.insert(d);
  }

 private:
  std::size_t capacity_;
  std::unordered_set<Digest, DigestHash> set_;
};

}  // namespace zendoo::crypto
