#include "snark/snark.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace zendoo::snark {

namespace {

using crypto::Domain;
using crypto::Hasher;

/// The process-global "cryptographic oracle" backing the simulated SNARKs.
///
/// Maps key ids to the binding secret (plus the circuit of an R1CS key).
/// The secret never leaves this translation unit; the only way to obtain a
/// valid proof is through prove(), which enforces witness satisfaction
/// first.
class Oracle {
 public:
  struct Entry {
    Digest secret;
    std::shared_ptr<const ConstraintSystem> cs;   // for R1csSnark
  };

  static Oracle& instance() {
    static Oracle oracle;
    return oracle;
  }

  Digest register_entry(Entry entry, const std::string& label,
                        const Digest& circuit_id) {
    Digest id = Hasher(Domain::kSnarkKey)
                    .write_str(label)
                    .write(circuit_id)
                    .finalize();
    entry.secret =
        Hasher(Domain::kSnarkKey).write(id).write_str("secret").finalize();
    // A repeated setup of one label derives the same id and secret; the
    // entry a concurrent prove() may be reading stays untouched.
    std::scoped_lock lock(mu_);
    entries_.try_emplace(id, std::move(entry));
    return id;
  }

  /// nullptr when the key id is unknown.
  const Entry* find(const Digest& id) {
    std::scoped_lock lock(mu_);
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<Digest, Entry, crypto::DigestHash> entries_;
};

Digest bind_proof(const Digest& secret, const Statement& statement) {
  Hasher h(Domain::kSnarkProof);
  h.write(secret);
  h.write_u64(statement.size());
  for (const Digest& d : statement) h.write(d);
  return h.finalize();
}

Statement field_statement(const std::vector<u256>& public_input) {
  Statement s;
  s.reserve(public_input.size());
  for (const u256& v : public_input) s.push_back(Digest::from_u256(v));
  return s;
}

}  // namespace

std::pair<ProvingKey, VerifyingKey> PredicateSnark::setup(Predicate circuit,
                                                          std::string label) {
  if (!circuit) {
    throw std::invalid_argument("PredicateSnark::setup: null circuit");
  }
  Digest circuit_id =
      Hasher(Domain::kSnarkKey).write_str("predicate").write_str(label).finalize();
  Digest id = Oracle::instance().register_entry({}, label, circuit_id);
  ProvingKey pk(id);
  pk.circuit_ = std::make_shared<const Predicate>(std::move(circuit));
  return {std::move(pk), VerifyingKey{id}};
}

std::optional<Proof> PredicateSnark::prove(const ProvingKey& pk,
                                           const Statement& statement,
                                           const Witness& witness) {
  const Oracle::Entry* e = Oracle::instance().find(pk.id);
  if (e == nullptr || pk.circuit_ == nullptr) {
    throw std::invalid_argument("PredicateSnark::prove: unknown proving key");
  }
  if (!(*pk.circuit_)(statement, witness)) return std::nullopt;
  return Proof{bind_proof(e->secret, statement)};
}

bool PredicateSnark::verify(const VerifyingKey& vk, const Statement& statement,
                            const Proof& proof) {
  if (vk.is_null()) return false;
  const Oracle::Entry* e = Oracle::instance().find(vk.id);
  if (e == nullptr) return false;
  return proof.binding == bind_proof(e->secret, statement);
}

std::pair<ProvingKey, VerifyingKey> R1csSnark::setup(
    std::shared_ptr<const ConstraintSystem> cs, std::string label) {
  if (!cs) throw std::invalid_argument("R1csSnark::setup: null circuit");
  Digest circuit_id = cs->structure_hash();
  Oracle::Entry entry;
  entry.cs = std::move(cs);
  Digest id =
      Oracle::instance().register_entry(std::move(entry), label, circuit_id);
  return {ProvingKey{id}, VerifyingKey{id}};
}

std::optional<Proof> R1csSnark::prove(const ProvingKey& pk,
                                      const std::vector<u256>& public_input,
                                      const std::vector<u256>& witness) {
  const Oracle::Entry* e = Oracle::instance().find(pk.id);
  if (e == nullptr || !e->cs) {
    throw std::invalid_argument("R1csSnark::prove: unknown proving key");
  }
  if (!e->cs->is_satisfied(public_input, witness)) return std::nullopt;
  return Proof{bind_proof(e->secret, field_statement(public_input))};
}

bool R1csSnark::verify(const VerifyingKey& vk,
                       const std::vector<u256>& public_input,
                       const Proof& proof) {
  if (vk.is_null()) return false;
  const Oracle::Entry* e = Oracle::instance().find(vk.id);
  if (e == nullptr) return false;
  return proof.binding == bind_proof(e->secret, field_statement(public_input));
}

Digest statement_u64(std::uint64_t v) {
  return Hasher(Domain::kSnarkStatement).write_u64(v).finalize();
}

Digest statement_field(const u256& v) {
  return Hasher(Domain::kSnarkStatement).write(v).finalize();
}

}  // namespace zendoo::snark
