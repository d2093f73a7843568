#include "net/sim.hpp"

#include <stdexcept>

namespace zendoo::net {

namespace {

/// Normalized (min, max) order for symmetric tables (links, bans).
std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return a <= b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

SimNet::SimNet(std::uint64_t seed)
    : rng_(seed), rolling_digest_(trace_digest_seed()) {
  registry_.expose_counter("sim.sent", &stats_.sent);
  registry_.expose_counter("sim.delivered", &stats_.delivered);
  registry_.expose_counter("sim.dropped", &stats_.dropped);
  registry_.expose_counter("sim.partitioned", &stats_.partitioned);
  registry_.expose_counter("sim.banned", &stats_.banned);
  registry_.expose_counter("sim.timers_set", &stats_.timers_set);
  registry_.expose_counter("sim.timers_fired", &stats_.timers_fired);
  registry_.expose_counter("sim.events_processed", &stats_.events_processed);
  registry_.expose_counter("sim.bytes_queued", &stats_.bytes_queued);
  // `this` capture is safe: the registry member makes SimNet pinned
  // (non-copyable, non-movable).
  registry_.expose_value("sim.queue_depth", [this] { return queue_.size(); });
  registry_.expose_value("sim.nodes", [this] { return handlers_.size(); });
}

NodeId SimNet::add_node(Handler handler) {
  handlers_.push_back(std::move(handler));
  timer_handlers_.emplace_back();
  if (!group_of_.empty()) group_of_.push_back(0);
  link_overrides_.ensure_nodes(handlers_.size());
  link_stats_.ensure_nodes(handlers_.size());
  bans_.ensure_nodes(handlers_.size());
  return static_cast<NodeId>(handlers_.size() - 1);
}

void SimNet::set_timer_handler(NodeId id, TimerHandler handler) {
  if (id >= handlers_.size()) {
    throw std::out_of_range("SimNet::set_timer_handler: unknown node id");
  }
  timer_handlers_[id] = std::move(handler);
}

void SimNet::set_timer(NodeId id, SimTime delay, std::uint64_t token) {
  if (id >= handlers_.size()) {
    throw std::out_of_range("SimNet::set_timer: unknown node id");
  }
  Pending event;
  event.at = now_ + delay;
  event.seq = next_seq_++;
  event.from = id;
  event.to = id;
  event.is_timer = true;
  event.token = token;
  ++stats_.timers_set;
  queue_.push(std::move(event));
}

SimNet::LinkStats SimNet::link_stats(NodeId from, NodeId to) const {
  const LinkStats* stats = link_stats_.find(from, to);
  return stats == nullptr ? LinkStats{} : *stats;
}

void SimNet::set_link(NodeId a, NodeId b, const LinkParams& link) {
  if (a >= handlers_.size() || b >= handlers_.size()) {
    throw std::out_of_range("SimNet::set_link: unknown node id");
  }
  const auto [lo, hi] = ordered(a, b);
  link_overrides_.slot(lo, hi) = link;
}

void SimNet::partition(const std::vector<std::vector<NodeId>>& groups) {
  group_of_.assign(handlers_.size(), 0);  // unlisted nodes: implicit group 0
  std::uint32_t label = 1;
  for (const auto& group : groups) {
    for (NodeId id : group) {
      if (id >= handlers_.size()) {
        throw std::out_of_range("SimNet::partition: unknown node id");
      }
      group_of_[id] = label;
    }
    ++label;
  }
}

void SimNet::heal() { group_of_.clear(); }

void SimNet::set_ban(NodeId banner, NodeId banned, SimTime until) {
  if (banner >= handlers_.size() || banned >= handlers_.size()) {
    throw std::out_of_range("SimNet::set_ban: unknown node id");
  }
  const auto [lo, hi] = ordered(banner, banned);
  SimTime& deadline = bans_.slot(lo, hi);
  if (until > deadline) deadline = until;
}

bool SimNet::ban_active(NodeId a, NodeId b) const {
  const auto [lo, hi] = ordered(a, b);
  const SimTime* deadline = bans_.find(lo, hi);
  return deadline != nullptr && now_ < *deadline;
}

SimNet::PayloadPtr SimNet::make_payload(std::vector<std::uint8_t> bytes) {
  auto payload = std::make_shared<Payload>();
  payload->hash =
      crypto::Hasher(crypto::Domain::kGeneric).write_bytes(bytes).finalize();
  stats_.bytes_queued += bytes.size();
  payload->bytes = std::move(bytes);
  return payload;
}

void SimNet::schedule(NodeId from, NodeId to, PayloadPtr payload) {
  const auto [lo, hi] = ordered(from, to);
  const LinkParams* override_link = link_overrides_.find(lo, hi);
  const LinkParams& link =
      override_link != nullptr ? *override_link : default_link_;
  Pending msg;
  msg.at = now_ + link.latency_min +
           (link.latency_max > link.latency_min
                ? rng_.next_below(link.latency_max - link.latency_min + 1)
                : 0);
  msg.seq = next_seq_++;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  msg.dropped = link.drop_num != 0 && rng_.chance(link.drop_num, link.drop_den);
  ++stats_.sent;
  ++link_stats_.slot(from, to).queued;
  queue_.push(std::move(msg));
}

void SimNet::send(NodeId from, NodeId to, std::vector<std::uint8_t> payload) {
  send(from, to, make_payload(std::move(payload)));
}

void SimNet::send(NodeId from, NodeId to, PayloadPtr payload) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("SimNet::send: unknown node id");
  }
  if (from == to) return;
  schedule(from, to, std::move(payload));
}

void SimNet::broadcast(NodeId from, const std::vector<std::uint8_t>& payload) {
  broadcast(from, make_payload(payload));
}

void SimNet::broadcast(NodeId from, const PayloadPtr& payload) {
  for (NodeId to = 0; to < handlers_.size(); ++to) {
    if (to != from) schedule(from, to, payload);
  }
}

crypto::Digest SimNet::trace_digest_seed() {
  return crypto::Hasher(crypto::Domain::kGeneric)
      .write_str("simnet-trace")
      .finalize();
}

crypto::Digest SimNet::fold_trace_entry(const crypto::Digest& acc,
                                        const TraceEntry& entry) {
  return crypto::Hasher(crypto::Domain::kGeneric)
      .write(acc)
      .write_u64(entry.time)
      .write_u64(entry.seq)
      .write_u64(entry.from)
      .write_u64(entry.to)
      .write(entry.payload_hash)
      .write_u8(static_cast<std::uint8_t>(entry.outcome))
      .finalize();
}

void SimNet::deliver(const Pending& msg) {
  if (msg.is_timer) {
    // Timers are node-local: the partition/drop machinery never touches
    // them, and they stay out of the delivery trace (they carry no
    // payload to hash; determinism is preserved because they flow
    // through the same (time, seq) queue as everything else).
    ++stats_.timers_fired;
    if (timer_handlers_[msg.to]) timer_handlers_[msg.to](msg.token);
    return;
  }
  LinkStats& link = link_stats_.slot(msg.from, msg.to);
  TraceEntry entry;
  entry.time = msg.at;
  entry.seq = msg.seq;
  entry.from = msg.from;
  entry.to = msg.to;
  entry.payload_hash = msg.payload->hash;
  if (msg.dropped) {
    entry.outcome = TraceEntry::Outcome::kDropped;
    ++stats_.dropped;
    ++link.dropped;
  } else if (!reachable(msg.from, msg.to)) {
    entry.outcome = TraceEntry::Outcome::kPartitioned;
    ++stats_.partitioned;
    ++link.partitioned;
  } else if (ban_active(msg.from, msg.to)) {
    // Judged at delivery time like partitions: a message in flight when
    // the ban lands is refused, one sent during a ban that expired
    // before arrival gets through.
    entry.outcome = TraceEntry::Outcome::kBanned;
    ++stats_.banned;
    ++link.banned;
  } else {
    entry.outcome = TraceEntry::Outcome::kDelivered;
    ++stats_.delivered;
    ++link.delivered;
  }
  if (trace_mode_ == TraceMode::kDigest) {
    rolling_digest_ = fold_trace_entry(rolling_digest_, entry);
  }
  if (entry.outcome == TraceEntry::Outcome::kDelivered) {
    handlers_[msg.to](msg.from, msg.payload);
  }
}

bool SimNet::step() {
  if (queue_.empty()) return false;
  Pending msg = queue_.pop();
  now_ = msg.at;
  ++stats_.events_processed;
  deliver(msg);
  return true;
}

void SimNet::run_until(SimTime t) {
  while (true) {
    const std::optional<SimTime> next = queue_.next_time();
    if (!next || *next > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

std::size_t SimNet::run_until_idle() {
  std::size_t processed = 0;
  while (step()) {
    if (++processed > idle_event_cap_) {
      throw std::runtime_error("SimNet: gossip did not quiesce");
    }
  }
  return processed;
}

}  // namespace zendoo::net
