#include "sim/metrics_probe.hpp"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace zendoo::sim {

MetricsProbe::MetricsProbe(net::SimNet& net,
                           std::vector<net::NetNode*> nodes,
                           net::SimTime cadence)
    : net_(net), nodes_(std::move(nodes)), cadence_(cadence) {
  if (cadence_ == 0) {
    throw std::invalid_argument("MetricsProbe: cadence must be > 0");
  }
  // First boundary strictly after the current clock; boundaries the net
  // already passed are skipped (deterministically — this depends only on
  // now() at attach time, never on wall clock).
  next_sample_ = cadence_;
  while (next_sample_ <= net_.now()) next_sample_ += cadence_;
}

std::size_t MetricsProbe::slot_for(const std::string& name) {
  auto [it, inserted] = slot_index_.try_emplace(name, slot_names_.size());
  if (inserted) slot_names_.push_back(name);
  return it->second;
}

void MetricsProbe::fold_registry(const obs::Registry& reg,
                                 std::vector<std::uint64_t>& accum) {
  scratch_.clear();
  reg.collect_values(/*include_wall_clock=*/false, scratch_);
  RegistryLayout& layout = layouts_[&reg];
  if (layout.sum_slot.size() != scratch_.size()) {
    // First sight of this registry (or it grew): pay the string cost
    // once to map its collect order onto aggregate slots. All node
    // registries share a schema, so the slots themselves are shared.
    layout.sum_slot.clear();
    layout.max_slot.clear();
    for (const obs::Sample& s : reg.collect(/*include_wall_clock=*/false)) {
      layout.sum_slot.push_back(slot_for(s.name));
      layout.max_slot.push_back(slot_for(s.name + ".node_max"));
    }
  }
  if (accum.size() < slot_names_.size()) accum.resize(slot_names_.size(), 0);
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    accum[layout.sum_slot[i]] += scratch_[i];
    std::uint64_t& m = accum[layout.max_slot[i]];
    if (scratch_[i] > m) m = scratch_[i];
  }
}

void MetricsProbe::sample_now() {
  std::vector<std::uint64_t> accum(slot_names_.size(), 0);
  fold_registry(net_.registry(), accum);
  for (net::NetNode* node : nodes_) {
    fold_registry(node->registry(), accum);
    fold_registry(node->chain().registry(), accum);
    fold_registry(node->chain().state().validation_context()->registry(),
                  accum);
  }
  Sample s;
  s.time = net_.now();
  for (std::size_t i = 0; i < accum.size(); ++i) {
    s.values.emplace(slot_names_[i], accum[i]);
  }
  samples_.push_back(std::move(s));
}

void MetricsProbe::run_until(net::SimTime t) {
  while (next_sample_ <= t) {
    net_.run_until(next_sample_);
    sample_now();
    next_sample_ += cadence_;
  }
  net_.run_until(t);
}

std::size_t MetricsProbe::run_until_idle(bool final_sample) {
  const std::size_t cap = net_.idle_event_cap();
  std::size_t processed = 0;
  while (auto next = net_.next_event_time()) {
    if (next_sample_ < *next) {
      // Every event at or before the boundary has been delivered, so
      // advancing the clock to it processes nothing — safe to sample.
      net_.run_until(next_sample_);
      sample_now();
      next_sample_ += cadence_;
      continue;
    }
    net_.step();
    if (++processed > cap) {
      throw std::runtime_error("SimNet: gossip did not quiesce");
    }
  }
  // Trailing snapshot of the drained state, so a scenario that ends
  // between boundaries still exports its final counters.
  if (final_sample &&
      (samples_.empty() || samples_.back().time != net_.now())) {
    sample_now();
  }
  return processed;
}

std::vector<std::pair<net::SimTime, std::uint64_t>> MetricsProbe::series(
    const std::string& name) const {
  std::vector<std::pair<net::SimTime, std::uint64_t>> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    auto it = s.values.find(name);
    out.emplace_back(s.time, it == s.values.end() ? 0 : it->second);
  }
  return out;
}

std::uint64_t MetricsProbe::max_over_time(const std::string& name) const {
  std::uint64_t best = 0;
  for (const Sample& s : samples_) {
    auto it = s.values.find(name);
    if (it != s.values.end() && it->second > best) best = it->second;
  }
  return best;
}

std::uint64_t MetricsProbe::last(const std::string& name) const {
  if (samples_.empty()) return 0;
  const auto& values = samples_.back().values;
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

std::string MetricsProbe::to_json(const std::string& name) const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"zendoo-probe-v1\",\n";
  out += "  \"name\": \"" + obs::json::escape(name) + "\",\n";
  out += "  \"cadence\": " + std::to_string(cadence_) + ",\n";
  out += "  \"nodes\": " + std::to_string(nodes_.size()) + ",\n";
  out += "  \"samples\": [";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"time\": " + std::to_string(s.time) + ", \"values\": {";
    bool first = true;
    for (const auto& [k, v] : s.values) {  // std::map: sorted, stable
      if (!first) out += ", ";
      first = false;
      out += "\"" + obs::json::escape(k) + "\": " + std::to_string(v);
    }
    out += "}}";
  }
  out += samples_.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string MetricsProbe::write_json(const std::string& name) const {
  const char* dir = std::getenv("ZENDOO_BENCH_DIR");
  std::string path = dir != nullptr && *dir != '\0' ? dir : ".";
  path += "/PROBE_" + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return "";
  out << to_json(name);
  return out ? path : "";
}

}  // namespace zendoo::sim
