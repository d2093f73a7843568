// A network participant: one independent Engine (miner + Blockchain +
// optional Latus sidechains) attached to a SimNet endpoint.
//
// Nodes gossip whole blocks over the wire codec and flood-relay anything
// new. Missing history is fetched headers-first: an unconnectable block
// triggers a kGetHeaders request carrying a block locator; the peer
// answers with header batches that connect into the Blockchain's header
// tree ahead of the bodies, and a download scheduler pipelines kGetData
// block requests across every peer with a bounded in-flight window per
// peer. Bodies arrive in any order (the orphan pool auto-connects them);
// a stall timer re-requests unanswered blocks from another peer. Deep
// catch-up costs O(depth / (batch * peers)) round trips.
#pragma once

#include <array>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/engine.hpp"
#include "mainchain/codec.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"

namespace zendoo::net {

/// Wire message kinds exchanged by NetNodes (1-byte envelope tag). The
/// tag values are wire bytes the golden trace digests hash, so they are
/// never renumbered; tag 2 is unassigned and, like any unknown tag,
/// counts as malformed.
enum class MsgType : std::uint8_t {
  kBlock = 1,       ///< codec-encoded Block
  kGetHeaders = 3,  ///< block locator; answered with a kHeaders batch
  kHeaders = 4,     ///< batch of headers, fork-point-first
  kGetData = 5,     ///< list of block hashes the sender wants bodies for
  kNotFound = 6,    ///< kGetData hashes the sender could not serve — lets
                    ///< the requester re-assign immediately instead of
                    ///< waiting out the stall timer
};

/// One past the highest wire tag — sizes the per-type stat arrays.
inline constexpr std::size_t kMsgTypeCount = 7;

// ---- Per-peer misbehavior scoring ----
//
// zen's DoS machinery shape: every offense adds to a per-peer score;
// crossing kBanThreshold disconnects the peer for kBanDuration ticks.
// Penalties are calibrated so a protocol violation no honest peer can
// produce (garbage payloads, PoW-invalid headers, oversized batches) bans
// within a handful of events, while noisy-but-honest traffic (gossip
// duplicates, late replies to abandoned rounds, orphans during races)
// rides on free budgets and never scores.

/// Score at which the peer is disconnected and banned.
inline constexpr int kBanThreshold = 100;
/// Ban length in sim ticks; chosen to outlast any one sync scenario.
inline constexpr SimTime kBanDuration = 100'000;
/// Undecodable payload or unknown message tag.
inline constexpr int kMalformedPenalty = 20;
/// A batch larger than anything we would request or serve
/// (kHeaders above kHeadersBatch, kGetData above kMaxGetData).
inline constexpr int kOversizedPenalty = 100;
/// Per confirmed-junk orphan beyond kOrphanBudget — a flood of
/// parent-less blocks aimed at churning the orphan pool. An unsolicited
/// orphan is never charged on arrival (a deep post-partition burst
/// delivers hundreds of honest ones); it goes into a bounded suspect
/// table and is charged only retrospectively, once it is old enough for
/// header sync to have mapped its ancestry and neither the header tree
/// nor the orphan pool knows it — the signature of fabricated ancestry.
inline constexpr int kOrphanFloodPenalty = 5;
/// Per unsolicited kHeaders message beyond kUnsolicitedHeadersBudget.
inline constexpr int kUnsolicitedHeadersPenalty = 5;
/// A kNotFound naming blocks we never requested from anyone.
inline constexpr int kNotFoundAbusePenalty = 20;
/// Confirmed-junk orphans tolerated per peer before scoring starts: an
/// honest orphan can die unconnected now and then (a loser-branch tip
/// evicted by pool pressure), a flood of them cannot.
inline constexpr std::uint32_t kOrphanBudget = 8;
/// Ticks an unsolicited orphan sits in the suspect table before being
/// judged — long enough for a deep catch-up to download and connect the
/// honest ones (a couple of stall timeouts).
inline constexpr SimTime kOrphanSuspectGrace = 64;
/// Suspect-table size bound; overflow drops the oldest entries unjudged
/// (benefit of the doubt) so memory stays fixed.
inline constexpr std::size_t kMaxOrphanSuspects = 256;
/// Unsolicited kHeaders messages tolerated per peer (late replies to
/// rounds the stall timer abandoned are honest).
inline constexpr std::uint32_t kUnsolicitedHeadersBudget = 8;
/// kGetData lists above this length are refused and scored — honest
/// requesters never ask for more than their own in-flight cap.
inline constexpr std::size_t kMaxGetData = 256;
/// Misbehavior scores halve every this many ticks (zen's periodic
/// decay), applied lazily when a peer is next scored — a long-lived
/// honest-but-flaky peer stops ratcheting toward a ban once its offenses
/// spread out. Deliberately much longer than any one attack burst (which
/// spans tens of ticks), so concentrated abuse still bans at full speed.
inline constexpr SimTime kScoreHalfLife = 16'384;

/// Per-peer accounting: misbehavior score, ban state, and the offense
/// counters that feed it (the per-peer split of Stats::malformed /
/// Stats::rejected plus per-MsgType received counts).
struct PeerState {
  int score = 0;
  /// Tick up to which score decay has been applied (lazy halving).
  SimTime score_decayed_at = 0;
  bool banned = false;
  SimTime banned_until = 0;
  std::uint64_t bans = 0;       ///< times this peer crossed the threshold
  std::uint64_t malformed = 0;  ///< undecodable payloads from this peer
  std::uint64_t rejected = 0;   ///< invalid blocks/headers from this peer
  std::uint64_t unsolicited_orphans = 0;
  /// Suspects judged junk: never connected, no longer pool-resident.
  std::uint64_t junk_orphans = 0;
  std::uint64_t unsolicited_headers = 0;
  std::uint64_t notfound_abuse = 0;  ///< abusive kNotFound messages
  std::uint64_t oversized = 0;       ///< over-limit batches
  /// Wire traffic received from this peer by MsgType tag.
  std::array<std::uint64_t, kMsgTypeCount> received{};
};

// ---- Headers-first pipeline limits, for both requesting and serving ----

/// Headers per kHeaders message (served and requested); a full batch
/// tells the requester more are available.
inline constexpr std::size_t kHeadersBatch = 128;
/// Max block bodies in flight to a single peer.
inline constexpr std::size_t kPerPeerWindow = 16;
/// Max block bodies in flight across all peers. Keep at or below
/// ChainParams::max_orphan_blocks: out-of-order arrivals buffer in the
/// orphan pool, and a window wider than the pool would evict bodies
/// faster than they connect.
inline constexpr std::size_t kMaxInFlight = 64;
/// Ticks without an answer before a request is re-issued elsewhere.
inline constexpr SimTime kStallTimeout = 32;
/// Attempts per block (initial + re-requests) before giving up; the next
/// announcement or headers arrival re-arms the download, so this bounds
/// retry storms during blackouts without wedging sync.
inline constexpr std::uint32_t kMaxRequestAttempts = 4;
/// Consecutive solicited full header batches that connect nothing new
/// before the locator walk stops pipelining (an honest re-request race
/// produces one; a peer replaying the same batch forever would otherwise
/// keep the walk spinning).
inline constexpr std::uint32_t kMaxStaleHeaderRounds = 3;

// An honest kGetData never scores as oversized...
static_assert(kMaxInFlight <= kMaxGetData);
// ...and a batch we serve decodes at the peer.
static_assert(kHeadersBatch <= mainchain::codec::kMaxHeadersPerMsg);

class NetNode {
 public:
  NetNode(SimNet& net, mainchain::ChainParams params,
          const crypto::KeyPair& miner_key);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] core::Engine& engine() { return engine_; }
  [[nodiscard]] const core::Engine& engine() const { return engine_; }
  [[nodiscard]] mainchain::Blockchain& chain() { return engine_.mc(); }
  [[nodiscard]] const mainchain::Blockchain& chain() const {
    return engine_.mc();
  }
  [[nodiscard]] crypto::Digest tip() const { return engine_.mc().tip_hash(); }
  [[nodiscard]] std::uint64_t height() const { return engine_.mc().height(); }

  /// Mine one block from the local mempool on the local tip and gossip
  /// it to every peer.
  mainchain::Block mine();

  /// Mine without announcing — a selfish miner extending its private
  /// branch. The block is only revealed by a later announce_tip() (or by
  /// peers header-syncing through it).
  mainchain::Block mine_withheld();

  /// Re-broadcast the current tip block — how a node restarts sync after
  /// a partition heals (peers that missed the branch orphan the tip and
  /// start a header sync).
  void announce_tip();

  /// Counters are obs::Counter — identical call-site semantics to the
  /// raw uint64 fields they replaced (pinned by the differential test
  /// in trace_equivalence_test.cpp), but enumerable through registry()
  /// under the "net." prefix.
  struct Stats {
    obs::Counter blocks_received;  ///< accepted first-sight blocks
    obs::Counter blocks_relayed;
    obs::Counter orphans_buffered;
    obs::Counter duplicates;
    obs::Counter malformed;  ///< undecodable payloads / unknown tags
    obs::Counter rejected;   ///< well-formed blocks/headers refused
                             ///< by validation
    obs::Counter get_headers_served;  ///< kGetHeaders answered
    obs::Counter get_data_served;     ///< bodies served via kGetData
    obs::Counter headers_received;    ///< header items seen
    obs::Counter headers_connected;   ///< header items accepted
    obs::Counter blocks_downloaded;   ///< solicited bodies received
    obs::Counter stalled_rerequests;  ///< re-issues after a stall
                                      ///< or a kNotFound bounce
    obs::Counter reorgs;
    obs::Counter dos_events;    ///< misbehavior penalties applied
    obs::Counter peers_banned;  ///< ban decisions taken (re-bans count)
    obs::Counter encode_cache_hits;    ///< blocks served without encode
    obs::Counter encode_cache_misses;  ///< blocks encoded (and cached)
    /// Duplicate deliveries short-circuited by the wire digest before
    /// the codec ran — the flood-relay dedup fast path.
    obs::Counter wire_dedup_hits;

    /// Wire traffic by MsgType tag (index = raw tag value, 0 and 2
    /// unused); each element doubles as a member of the registry's
    /// labeled families "net.msgs_sent{type=...}" /
    /// "net.msgs_received{...}".
    std::array<obs::Counter, kMsgTypeCount> msgs_sent{};
    std::array<obs::Counter, kMsgTypeCount> msgs_received{};
    [[nodiscard]] std::uint64_t sent(MsgType t) const {
      return msgs_sent[static_cast<std::size_t>(t)];
    }
    [[nodiscard]] std::uint64_t received(MsgType t) const {
      return msgs_received[static_cast<std::size_t>(t)];
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Per-node metric registry: every Stats counter under "net.", the
  /// per-MsgType labeled families, and computed gauges over scheduler
  /// state (in-flight window, orphan suspects, banned peers).
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }

  /// Blocks currently requested and unanswered (scheduler introspection).
  [[nodiscard]] std::size_t blocks_in_flight() const {
    return in_flight_.size();
  }

  /// Per-peer misbehavior ledger (zeroes for a peer never heard from).
  [[nodiscard]] const PeerState& peer_state(NodeId peer) const;
  /// True while `peer` is banned here; clears expired bans as a side
  /// effect (score resets on expiry — the peer starts clean).
  [[nodiscard]] bool peer_banned(NodeId peer);
  /// Peers currently banned by this node.
  [[nodiscard]] std::size_t banned_peer_count() const;

 private:
  struct InFlight {
    NodeId peer = 0;
    SimTime sent_at = 0;
    std::uint32_t attempts = 1;
  };

  void handle(NodeId from, const SimNet::PayloadPtr& payload);
  void on_block(NodeId from, const SimNet::PayloadPtr& payload,
                std::span<const std::uint8_t> body);
  void on_get_headers(NodeId from, std::span<const std::uint8_t> body);
  void on_headers(NodeId from, std::span<const std::uint8_t> body);
  void on_get_data(NodeId from, std::span<const std::uint8_t> body);
  void on_not_found(NodeId from, std::span<const std::uint8_t> body);
  void on_stall_timer();

  /// Moves a hash's pending download to another peer (not `from`), or
  /// releases the slot when attempts are exhausted / no peer has room.
  /// Collects the re-issued hash into `batches` instead of sending.
  void reassign_download(
      const crypto::Digest& hash, NodeId from,
      std::map<NodeId, std::vector<crypto::Digest>>& batches);

  /// Reaction to a block that cannot connect yet (orphaned or an orphan
  /// duplicate): fetch headers if its ancestry is unknown, otherwise let
  /// the scheduler keep the pipeline full.
  void on_disconnected_block(NodeId from, const crypto::Digest& prev_hash);
  /// Starts a headers-first round with `peer` unless one is in flight.
  void start_header_sync(NodeId peer);
  void request_headers(NodeId peer);
  /// Fills every peer's in-flight window from the download frontier.
  void schedule_downloads();
  /// Round-robin pick of a peer with window capacity; `exclude` skips a
  /// peer that just stalled (ignored when it is the only other node).
  /// Banned peers are never picked.
  std::optional<NodeId> pick_download_peer(std::optional<NodeId> exclude);
  /// Peer for a header round retry: first non-self, non-banned candidate
  /// after headers_peer_, preferring one that is not `exclude` (the peer
  /// that just stalled) but falling back to it when it is the only
  /// option. nullopt when no eligible peer exists.
  std::optional<NodeId> pick_header_peer(std::optional<NodeId> exclude);
  /// Guarantees a timer fires at or before `deadline` (the earliest
  /// pending request deadline — not simply now + kStallTimeout, so a
  /// round armed while an earlier round's timer is pending cannot wait
  /// out two timeouts).
  void arm_stall_timer(SimTime deadline);

  // ---- Misbehavior scoring (tentpole of the DoS layer) ----

  /// Mutable per-peer state, growing the table on first contact.
  PeerState& peer_ref(NodeId peer);
  /// Applies the lazy periodic score halving (kScoreHalfLife) to `st` up
  /// to the current tick.
  void decay_score(PeerState& st);
  /// Books an undecodable payload / unknown tag against `from`.
  void note_malformed(NodeId from);
  /// Files an unsolicited parent-less block into the suspect table and
  /// sweeps it; charges fall out of the sweep, never out of the arrival.
  void note_unsolicited_orphan(NodeId from, const crypto::Digest& hash);
  /// Judges the oldest few suspects: connected or pool-resident ones are
  /// innocent, vanished ones are junk and charge their deliverer.
  void sweep_orphan_suspects();
  /// Adds `penalty` to the peer's score; crossing kBanThreshold bans it.
  /// No-op when the penalty is zero.
  void misbehave(NodeId peer, int penalty);
  /// Disconnects `peer`: tells the SimNet to refuse the pair's traffic,
  /// reassigns every download owned by the peer, and moves an active
  /// header round away from it.
  void ban_peer(NodeId peer);

  /// Re-floods an accepted payload to every peer but the deliverer —
  /// zero-copy: all fan-out sends share the deliverer's buffer.
  void relay_block(NodeId origin, const SimNet::PayloadPtr& payload);
  void send_msg(NodeId to, MsgType type,
                const std::vector<std::uint8_t>& body);
  /// The kBlock wire payload for `block`, served from the encoded-block
  /// LRU when possible so answering N peers encodes (and hashes) once.
  SimNet::PayloadPtr block_payload(const mainchain::Block& block);
  /// Inserts an already-materialized kBlock payload into the encoded
  /// cache (e.g. the wire bytes of a block we just accepted, which later
  /// kGetData answers can serve without re-encoding). Only validated
  /// blocks may be cached: the bytes must decode to the block named by
  /// `hash`.
  void cache_block_payload(const crypto::Digest& hash,
                           SimNet::PayloadPtr payload);
  /// Remembers what a decoded kBlock wire buffer contained, keyed by the
  /// buffer's digest, so flood duplicates skip the codec entirely.
  void note_wire(const crypto::Digest& wire_hash,
                 const crypto::Digest& block_hash,
                 const crypto::Digest& prev_hash);
  static std::vector<std::uint8_t> encode_block_msg(
      const mainchain::Block& block);

  /// Registers every stats_ counter and the computed gauges with
  /// registry_ — called once from the constructor, after id_ is known.
  void register_metrics();

  SimNet& net_;
  core::Engine engine_;
  NodeId id_;
  Stats stats_;
  /// Exposes stats_ (stable addresses: NetNode is pinned by net_'s
  /// callbacks and by this registry member — never copied or moved).
  obs::Registry registry_;

  /// Content-addressed encoded-block cache: block hash -> shared kBlock
  /// wire payload, LRU-evicted. Sized to cover a catch-up window (peers
  /// request recent bodies) without holding a whole chain's encodings.
  static constexpr std::size_t kEncodedCacheCap = 64;
  struct CachedPayload {
    SimNet::PayloadPtr payload;
    std::list<crypto::Digest>::iterator pos;  ///< position in encoded_lru_
  };
  std::unordered_map<crypto::Digest, CachedPayload, crypto::DigestHash>
      encoded_cache_;
  std::list<crypto::Digest> encoded_lru_;  ///< most recent first

  /// Wire-digest dedup: digest of a decoded kBlock buffer -> what it
  /// contained. A flood delivers the same buffer from many peers; after
  /// the first decode the rest are recognized by the payload digest the
  /// simulator already computed, skipping the codec (and, for known
  /// blocks, the whole submit path).
  static constexpr std::size_t kSeenWireCap = 256;
  struct WireInfo {
    crypto::Digest block_hash;
    crypto::Digest prev_hash;
    std::list<crypto::Digest>::iterator pos;  ///< position in seen_wire_lru_
  };
  std::unordered_map<crypto::Digest, WireInfo, crypto::DigestHash> seen_wire_;
  std::list<crypto::Digest> seen_wire_lru_;  ///< most recent first

  /// Requested bodies awaiting an answer, by block hash.
  std::unordered_map<crypto::Digest, InFlight, crypto::DigestHash> in_flight_;
  /// In-flight request count per peer (indexed by NodeId, grown lazily).
  std::vector<std::size_t> peer_in_flight_;
  /// Per-peer misbehavior ledger (indexed by NodeId, grown lazily).
  std::vector<PeerState> peers_;
  struct OrphanSuspect {
    crypto::Digest hash;
    NodeId peer = 0;
    SimTime seen_at = 0;
  };
  /// Unsolicited parent-less deliveries awaiting retrospective judgment,
  /// oldest first; bounded by kMaxOrphanSuspects.
  std::deque<OrphanSuspect> orphan_suspects_;
  NodeId next_dl_peer_ = 0;  ///< round-robin cursor
  bool headers_request_active_ = false;
  NodeId headers_peer_ = 0;
  SimTime headers_sent_at_ = 0;
  std::uint32_t headers_attempts_ = 0;
  /// Consecutive solicited full batches that connected nothing new; stops
  /// the locator-walk pipeline at kMaxStaleHeaderRounds.
  std::uint32_t headers_no_progress_ = 0;
  /// Timer-driven schedule_downloads() restarts since the last sync
  /// progress. The frontier can outlive every download slot (each slot
  /// gives up after kMaxRequestAttempts while the serving peers are
  /// themselves still catching up), so the stall timer re-pumps it —
  /// bounded by kMaxRequestAttempts so a blacked-out node still
  /// quiesces, and reset whenever a block connects or headers extend.
  std::uint32_t frontier_attempts_ = 0;
  bool stall_timer_armed_ = false;
  /// When the earliest pending stall timer fires.
  SimTime stall_timer_deadline_ = 0;
};

}  // namespace zendoo::net
