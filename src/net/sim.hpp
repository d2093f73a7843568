// Deterministic discrete-event network simulator.
//
// SimNet models the only things the §5.1 fork-resolution argument cares
// about: messages between nodes take time, can be lost, and a partition
// cuts delivery entirely. There is no wall clock and no thread — time is
// a uint64 tick counter advanced by popping a (time, seq)-ordered event
// queue, and every random decision (per-message latency, drops) comes
// from one seeded Rng. Two runs from the same seed therefore produce the
// identical delivery trace, and so the same trace digest, which is what
// lets randomized convergence tests print a reproducing seed instead of a
// flake.
//
// The internals are shaped for clusters of hundreds of nodes:
//  - the event queue is an indexed calendar queue (event_queue.hpp) that
//    pops in the exact (time, seq) order the old binary heap did, at
//    amortized O(1) per event;
//  - link parameters, per-link stats and ban deadlines live in flat
//    dense per-node tables (pair_table.hpp) — one multiply and one load
//    on the send/deliver path instead of a hash-map probe;
//  - payloads are hashed exactly once, when the buffer is materialized
//    (make_payload): a broadcast to N peers shares one refcounted
//    buffer+digest record instead of hashing the same bytes N times at
//    delivery;
//  - the trace is never stored: kDigest (the default) folds every
//    delivery attempt into a rolling digest, so replay-identity checks
//    cost O(1) memory; kOff records nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/rng.hpp"
#include "net/event_queue.hpp"
#include "net/pair_table.hpp"
#include "obs/metrics.hpp"

namespace zendoo::net {

using NodeId = std::uint32_t;
using SimTime = std::uint64_t;

/// Per-link delivery model. Latency is drawn uniformly from
/// [latency_min, latency_max]; a message is lost with probability
/// drop_num/drop_den (decided at send time, so the event stream stays
/// deterministic under identical send orders).
struct LinkParams {
  SimTime latency_min = 1;
  SimTime latency_max = 4;
  std::uint32_t drop_num = 0;
  std::uint32_t drop_den = 1;

  friend bool operator==(const LinkParams&, const LinkParams&) = default;
};

/// One delivery attempt, folded into the trace digest.
struct TraceEntry {
  enum class Outcome : std::uint8_t {
    kDelivered,
    kDropped,      ///< lost to the link's drop model
    kPartitioned,  ///< in flight across a cut when it arrived
    kBanned,       ///< refused: one endpoint has banned the other
  };

  SimTime time = 0;
  std::uint64_t seq = 0;
  NodeId from = 0;
  NodeId to = 0;
  crypto::Digest payload_hash;
  Outcome outcome = Outcome::kDelivered;
};

/// Whether the simulator folds deliveries into the trace digest.
enum class TraceMode : std::uint8_t {
  kDigest,  ///< a rolling digest over the entries (the default)
  kOff,     ///< nothing — large sweeps that only care about stats
};

class SimNet {
 public:
  /// One materialized wire buffer plus its digest, shared by every
  /// delivery that carries it. The digest is computed exactly once, in
  /// make_payload — a broadcast fan-out reuses it N times.
  struct Payload {
    std::vector<std::uint8_t> bytes;
    crypto::Digest hash;
  };
  using PayloadPtr = std::shared_ptr<const Payload>;

  /// Called on the receiving node for each delivered message. The
  /// payload record carries both the bytes and their precomputed digest,
  /// so receivers can dedup or re-relay without copying or re-hashing.
  using Handler = std::function<void(NodeId from, const PayloadPtr& payload)>;
  /// Called on a node when one of its timers fires.
  using TimerHandler = std::function<void(std::uint64_t token)>;

  explicit SimNet(std::uint64_t seed);

  /// Registers a node; ids are dense and assigned in call order.
  NodeId add_node(Handler handler);
  [[nodiscard]] std::size_t node_count() const { return handlers_.size(); }

  /// Installs the callback `set_timer` events fire on. Timers are local
  /// to the node: they share the (time, seq) event queue — so they stay
  /// deterministic relative to message deliveries — but are never
  /// dropped, delayed or cut by partitions.
  void set_timer_handler(NodeId id, TimerHandler handler);
  /// Schedules a timer for `id` at now + delay, carrying `token` back to
  /// the node's TimerHandler.
  void set_timer(NodeId id, SimTime delay, std::uint64_t token = 0);

  /// Link model applied to every pair without an explicit override.
  void set_default_link(const LinkParams& link) { default_link_ = link; }
  [[nodiscard]] const LinkParams& default_link() const {
    return default_link_;
  }
  /// Symmetric per-pair override.
  void set_link(NodeId a, NodeId b, const LinkParams& link);

  /// Splits the network: reachability is judged at each message's
  /// delivery tick, so a message is lost iff the cut still separates its
  /// endpoints when it arrives — in-flight packets die with a cut that
  /// outlives their latency, but a cut that heals before delivery lets
  /// them through. Unlisted nodes form one implicit extra group.
  void partition(const std::vector<std::vector<NodeId>>& groups);
  /// Removes the partition; in-flight messages arriving after this
  /// instant are delivered normally.
  void heal();
  [[nodiscard]] bool reachable(NodeId a, NodeId b) const {
    return group_of_.empty() || group_of_[a] == group_of_[b];
  }

  /// Records that `banner` refuses `banned`'s connection until `until`:
  /// while the ban is active, messages between the pair (either
  /// direction — a disconnect cuts both) are refused at delivery time
  /// with outcome kBanned, exactly like a partition cut. Re-banning
  /// extends the deadline, never shortens it. Bans expire by time alone.
  void set_ban(NodeId banner, NodeId banned, SimTime until);
  /// True while a ban between the pair covers the current tick.
  [[nodiscard]] bool ban_active(NodeId a, NodeId b) const;

  /// Materializes a shared payload record, hashing the bytes once. Every
  /// later send of the returned pointer reuses both buffer and digest —
  /// Stats::bytes_queued counts the bytes here, at materialization, so a
  /// fan-out sharing one buffer counts it exactly once.
  PayloadPtr make_payload(std::vector<std::uint8_t> bytes);

  /// Schedules a message; delivery happens at now + link latency.
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> payload);
  /// Same, sharing one payload record across many sends (relay fan-out).
  void send(NodeId from, NodeId to, PayloadPtr payload);
  /// Sends to every other node (ascending id order, deterministic).
  void broadcast(NodeId from, const std::vector<std::uint8_t>& payload);
  /// Broadcast of an already-materialized shared payload.
  void broadcast(NodeId from, const PayloadPtr& payload);

  [[nodiscard]] SimTime now() const { return now_; }
  /// Delivers the next scheduled event. Returns false when idle.
  bool step();
  /// Delivers every event scheduled at or before `t`; now() ends at `t`.
  void run_until(SimTime t);
  /// Drains the queue (handlers may keep scheduling); returns events
  /// processed. Throws std::runtime_error past the cap — a gossip storm
  /// that never quiesces is a bug, not a workload. The cap is one million
  /// events out of the box; large-cluster sweeps raise it with
  /// set_idle_event_cap.
  std::size_t run_until_idle();
  /// Event cap of run_until_idle.
  void set_idle_event_cap(std::size_t cap) { idle_event_cap_ = cap; }
  [[nodiscard]] std::size_t idle_event_cap() const { return idle_event_cap_; }

  /// Selects whether deliveries are folded into the trace digest. Call
  /// before traffic starts: the digest only covers the events recorded
  /// while kDigest was active.
  void set_trace_mode(TraceMode mode) { trace_mode_ = mode; }

  /// Digest of the delivery trace: the fold seed, then one
  /// fold_trace_entry step per delivery attempt recorded in kDigest mode
  /// (just the seed when the mode was kOff throughout). Equal digests
  /// mean identical event streams, which is what lets a 256-node sweep
  /// assert replay identity without storing a multi-million-entry trace.
  [[nodiscard]] crypto::Digest trace_digest() const { return rolling_digest_; }
  static crypto::Digest trace_digest_seed();
  static crypto::Digest fold_trace_entry(const crypto::Digest& acc,
                                         const TraceEntry& entry);

  /// Counters are obs::Counter — raw-uint64 semantics at every call
  /// site, but enumerable through registry() under the "sim." prefix.
  struct Stats {
    obs::Counter sent;
    obs::Counter delivered;
    obs::Counter dropped;
    obs::Counter partitioned;
    obs::Counter banned;  ///< refused because of an active ban
    obs::Counter timers_set;
    obs::Counter timers_fired;
    /// Events (messages + timers) processed by step().
    obs::Counter events_processed;
    /// Payload bytes materialized (make_payload). A fan-out that shares
    /// one buffer counts it once — this is the counter that proves a
    /// broadcast queues the buffer once, not per receiver.
    obs::Counter bytes_queued;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The simulator's metric registry: every Stats counter exposed under
  /// "sim.<name>", plus computed gauges (queue depth, node count).
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }

  /// Time of the earliest pending event (nullopt when idle) — lets an
  /// external driver (MetricsProbe) advance the clock to a sampling
  /// boundary only when doing so processes nothing, keeping sampling
  /// invisible to the event stream and its trace digest.
  [[nodiscard]] std::optional<SimTime> next_event_time() {
    return queue_.next_time();
  }

  /// Per-directed-link delivery accounting — lets a bench sweep tell
  /// whether the simulator or the chain behind it is the bottleneck, and
  /// a sync test see exactly which peer served what.
  /// Per-link counters are not registry entries — a 256-node run has
  /// 65k directed links, and the dense PairTable *is* their label
  /// index (from, to). They share the obs::Counter value type so the
  /// same differential guarantees apply.
  struct LinkStats {
    obs::Counter queued;     ///< send() calls scheduled on this link
    obs::Counter delivered;  ///< reached the receiving handler
    obs::Counter dropped;    ///< lost to the link's drop model
    obs::Counter partitioned;  ///< died crossing an active cut
    obs::Counter banned;       ///< refused by an active ban
  };
  /// Stats for the directed link from -> to (zeroes when never used).
  [[nodiscard]] LinkStats link_stats(NodeId from, NodeId to) const;

 private:
  struct Pending {
    SimTime at = 0;
    std::uint64_t seq = 0;  ///< send order, breaks same-tick ties
    NodeId from = 0;
    NodeId to = 0;
    /// Shared so a broadcast does not copy or re-hash per receiver.
    PayloadPtr payload;
    bool dropped = false;   ///< lost to the drop model (decided at send)
    bool is_timer = false;  ///< local timer event (no payload, no loss)
    std::uint64_t token = 0;  ///< opaque value for the timer handler
  };

  void schedule(NodeId from, NodeId to, PayloadPtr payload);
  void deliver(const Pending& msg);

  crypto::Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<TimerHandler> timer_handlers_;
  LinkParams default_link_;
  /// Symmetric override table, keyed (min, max).
  PairTable<LinkParams> link_overrides_;
  /// Directed per-link stats, keyed (from, to).
  PairTable<LinkStats> link_stats_;
  /// Active ban expiry ticks, keyed (min, max).
  PairTable<SimTime> bans_;
  /// Empty = fully connected; else group_of_[id] labels the partition.
  std::vector<std::uint32_t> group_of_;
  CalendarQueue<Pending> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  TraceMode trace_mode_ = TraceMode::kDigest;
  crypto::Digest rolling_digest_;
  std::size_t idle_event_cap_ = 1'000'000;
  Stats stats_;
  /// Exposes stats_ (stable address: SimNet is neither copied nor
  /// moved once constructed — the registry member enforces that).
  obs::Registry registry_;
};

}  // namespace zendoo::net
