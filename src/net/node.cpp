#include "net/node.hpp"

#include <algorithm>
#include <map>

#include "mainchain/codec.hpp"

namespace zendoo::net {

using mainchain::HeaderCode;
using mainchain::SubmitCode;

NetNode::NetNode(SimNet& net, mainchain::ChainParams params,
                 const crypto::KeyPair& miner_key)
    : net_(net), engine_(params, miner_key) {
  id_ = net_.add_node([this](NodeId from, const SimNet::PayloadPtr& p) {
    handle(from, p);
  });
  net_.set_timer_handler(id_, [this](std::uint64_t) { on_stall_timer(); });
  register_metrics();
}

void NetNode::register_metrics() {
  auto& r = registry_;
  r.expose_counter("net.blocks_received", &stats_.blocks_received);
  r.expose_counter("net.blocks_relayed", &stats_.blocks_relayed);
  r.expose_counter("net.orphans_buffered", &stats_.orphans_buffered);
  r.expose_counter("net.duplicates", &stats_.duplicates);
  r.expose_counter("net.malformed", &stats_.malformed);
  r.expose_counter("net.rejected", &stats_.rejected);
  r.expose_counter("net.get_headers_served", &stats_.get_headers_served);
  r.expose_counter("net.get_data_served", &stats_.get_data_served);
  r.expose_counter("net.headers_received", &stats_.headers_received);
  r.expose_counter("net.headers_connected", &stats_.headers_connected);
  r.expose_counter("net.blocks_downloaded", &stats_.blocks_downloaded);
  r.expose_counter("net.stalled_rerequests", &stats_.stalled_rerequests);
  r.expose_counter("net.reorgs", &stats_.reorgs);
  r.expose_counter("net.dos_events", &stats_.dos_events);
  r.expose_counter("net.peers_banned", &stats_.peers_banned);
  r.expose_counter("net.encode_cache_hits", &stats_.encode_cache_hits);
  r.expose_counter("net.encode_cache_misses", &stats_.encode_cache_misses);
  r.expose_counter("net.wire_dedup_hits", &stats_.wire_dedup_hits);
  // Per-MsgType labeled families (tags 0 and 2 are unused on the wire).
  static constexpr const char* kTypeLabels[kMsgTypeCount] = {
      nullptr,   "block",    nullptr,    "get_headers",
      "headers", "get_data", "not_found"};
  for (std::size_t i = 0; i < kMsgTypeCount; ++i) {
    if (kTypeLabels[i] == nullptr) continue;
    r.expose_counter(
        obs::Registry::labeled("net.msgs_sent", "type", kTypeLabels[i]),
        &stats_.msgs_sent[i]);
    r.expose_counter(
        obs::Registry::labeled("net.msgs_received", "type", kTypeLabels[i]),
        &stats_.msgs_received[i]);
  }
  // All-type totals next to the families, so "how chatty is this node"
  // is one lookup instead of a sum over labels.
  r.expose_value("net.msgs_sent", [this] {
    std::uint64_t total = 0;
    for (const auto& c : stats_.msgs_sent) total += c;
    return total;
  });
  r.expose_value("net.msgs_received", [this] {
    std::uint64_t total = 0;
    for (const auto& c : stats_.msgs_received) total += c;
    return total;
  });
  // Computed gauges over scheduler/DoS state. `this` capture is safe:
  // NetNode is pinned (the SimNet handler closures already require it).
  r.expose_value("net.in_flight", [this] { return in_flight_.size(); });
  r.expose_value("net.orphan_suspects",
                 [this] { return orphan_suspects_.size(); });
  r.expose_value("net.banned_peers", [this] { return banned_peer_count(); });
  r.expose_value("net.encoded_cache", [this] { return encoded_cache_.size(); });
}

std::vector<std::uint8_t> NetNode::encode_block_msg(
    const mainchain::Block& block) {
  std::vector<std::uint8_t> wire{
      static_cast<std::uint8_t>(MsgType::kBlock)};
  auto body = mainchain::codec::encode_block(block);
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

void NetNode::send_msg(NodeId to, MsgType type,
                       const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> wire;
  wire.reserve(body.size() + 1);
  wire.push_back(static_cast<std::uint8_t>(type));
  wire.insert(wire.end(), body.begin(), body.end());
  ++stats_.msgs_sent[static_cast<std::size_t>(type)];
  net_.send(id_, to, std::move(wire));
}

mainchain::Block NetNode::mine() {
  mainchain::Block block = engine_.step();
  stats_.msgs_sent[static_cast<std::size_t>(MsgType::kBlock)] +=
      net_.node_count() - 1;
  net_.broadcast(id_, block_payload(block));
  return block;
}

mainchain::Block NetNode::mine_withheld() { return engine_.step(); }

void NetNode::announce_tip() {
  if (height() == 0) return;  // nothing beyond the shared genesis
  const mainchain::Block* tip_block = chain().find_block(tip());
  stats_.msgs_sent[static_cast<std::size_t>(MsgType::kBlock)] +=
      net_.node_count() - 1;
  net_.broadcast(id_, block_payload(*tip_block));
}

SimNet::PayloadPtr NetNode::block_payload(const mainchain::Block& block) {
  const crypto::Digest hash = block.hash();
  if (auto it = encoded_cache_.find(hash); it != encoded_cache_.end()) {
    ++stats_.encode_cache_hits;
    encoded_lru_.splice(encoded_lru_.begin(), encoded_lru_, it->second.pos);
    return it->second.payload;
  }
  ++stats_.encode_cache_misses;
  auto payload = net_.make_payload(encode_block_msg(block));
  cache_block_payload(hash, payload);
  return payload;
}

void NetNode::cache_block_payload(const crypto::Digest& hash,
                                  SimNet::PayloadPtr payload) {
  if (auto it = encoded_cache_.find(hash); it != encoded_cache_.end()) {
    encoded_lru_.splice(encoded_lru_.begin(), encoded_lru_, it->second.pos);
    return;
  }
  encoded_lru_.push_front(hash);
  encoded_cache_.emplace(hash,
                         CachedPayload{std::move(payload),
                                       encoded_lru_.begin()});
  if (encoded_cache_.size() > kEncodedCacheCap) {
    encoded_cache_.erase(encoded_lru_.back());
    encoded_lru_.pop_back();
  }
}

void NetNode::note_wire(const crypto::Digest& wire_hash,
                        const crypto::Digest& block_hash,
                        const crypto::Digest& prev_hash) {
  if (auto it = seen_wire_.find(wire_hash); it != seen_wire_.end()) {
    seen_wire_lru_.splice(seen_wire_lru_.begin(), seen_wire_lru_,
                          it->second.pos);
    return;
  }
  seen_wire_lru_.push_front(wire_hash);
  seen_wire_.emplace(wire_hash,
                     WireInfo{block_hash, prev_hash, seen_wire_lru_.begin()});
  if (seen_wire_.size() > kSeenWireCap) {
    seen_wire_.erase(seen_wire_lru_.back());
    seen_wire_lru_.pop_back();
  }
}

void NetNode::relay_block(NodeId origin, const SimNet::PayloadPtr& payload) {
  // Zero-copy fan-out: every send shares the deliverer's buffer (and its
  // precomputed digest).
  for (NodeId to = 0; to < net_.node_count(); ++to) {
    if (to != id_ && to != origin) {
      ++stats_.msgs_sent[static_cast<std::size_t>(MsgType::kBlock)];
      net_.send(id_, to, payload);
    }
  }
  ++stats_.blocks_relayed;
}

// ---- Misbehavior scoring ----

PeerState& NetNode::peer_ref(NodeId peer) {
  if (peers_.size() <= peer) peers_.resize(peer + 1);
  return peers_[peer];
}

const PeerState& NetNode::peer_state(NodeId peer) const {
  static const PeerState kNeverHeardFrom{};
  return peer < peers_.size() ? peers_[peer] : kNeverHeardFrom;
}

bool NetNode::peer_banned(NodeId peer) {
  if (peer >= peers_.size()) return false;
  PeerState& st = peers_[peer];
  if (st.banned && net_.now() >= st.banned_until) {
    st.banned = false;
    st.score = 0;  // served the ban; start from a clean slate
    st.score_decayed_at = net_.now();
  }
  return st.banned;
}

std::size_t NetNode::banned_peer_count() const {
  std::size_t n = 0;
  for (const auto& st : peers_) {
    if (st.banned && net_.now() < st.banned_until) ++n;
  }
  return n;
}

void NetNode::note_malformed(NodeId from) {
  ++stats_.malformed;
  ++peer_ref(from).malformed;
  misbehave(from, kMalformedPenalty);
}

void NetNode::note_unsolicited_orphan(NodeId from,
                                      const crypto::Digest& hash) {
  ++peer_ref(from).unsolicited_orphans;
  if (orphan_suspects_.size() >= kMaxOrphanSuspects) {
    orphan_suspects_.pop_front();  // overflow: oldest goes unjudged
  }
  orphan_suspects_.push_back({hash, from, net_.now()});
  // The judgment must happen even if the network goes quiet afterwards.
  arm_stall_timer(net_.now() + kOrphanSuspectGrace);
}

void NetNode::sweep_orphan_suspects() {
  const SimTime now = net_.now();
  while (!orphan_suspects_.empty() &&
         now >= orphan_suspects_.front().seen_at + kOrphanSuspectGrace) {
    const OrphanSuspect s = orphan_suspects_.front();
    orphan_suspects_.pop_front();
    // Old enough for header sync to have mapped its ancestry. A known
    // header means the block was real — even if its body was evicted
    // from the pool during a catch-up storm before it could connect —
    // and still-pool-resident suspects keep the benefit of the doubt.
    // A header that never connected anywhere is fabricated ancestry,
    // and only a flood of those past the free budget scores (an honest
    // loser-branch tip can die unknown now and then).
    if (chain().find_header(s.hash) != nullptr ||
        chain().has_orphan(s.hash)) {
      continue;
    }
    PeerState& st = peer_ref(s.peer);
    ++st.junk_orphans;
    if (st.junk_orphans > kOrphanBudget) {
      misbehave(s.peer, kOrphanFloodPenalty);
    }
  }
}

void NetNode::decay_score(PeerState& st) {
  const SimTime steps = (net_.now() - st.score_decayed_at) / kScoreHalfLife;
  if (steps == 0) return;
  st.score = steps >= 31 ? 0 : st.score >> steps;
  st.score_decayed_at += steps * kScoreHalfLife;
}

void NetNode::misbehave(NodeId peer, int penalty) {
  if (penalty <= 0) return;
  PeerState& st = peer_ref(peer);
  // Halve whatever is left of past offenses before charging the new one:
  // spaced-out honest noise decays away, a concentrated burst does not.
  decay_score(st);
  ++stats_.dos_events;
  st.score += penalty;
  if (!st.banned && st.score >= kBanThreshold) ban_peer(peer);
}

void NetNode::ban_peer(NodeId peer) {
  PeerState& st = peer_ref(peer);
  st.banned = true;
  st.banned_until = net_.now() + kBanDuration;
  ++st.bans;
  ++stats_.peers_banned;
  net_.set_ban(id_, peer, st.banned_until);

  // Strand nothing on the dead connection: every download slot the peer
  // owns moves elsewhere right away instead of waiting out a stall.
  std::vector<crypto::Digest> owned;
  for (const auto& [hash, inf] : in_flight_) {
    if (inf.peer == peer) owned.push_back(hash);
  }
  std::sort(owned.begin(), owned.end());  // deterministic re-issue order
  std::map<NodeId, std::vector<crypto::Digest>> batches;
  for (const auto& hash : owned) reassign_download(hash, peer, batches);
  for (const auto& [to, hashes] : batches) {
    send_msg(to, MsgType::kGetData, mainchain::codec::encode_inv(hashes));
  }
  if (!batches.empty()) arm_stall_timer(net_.now() + kStallTimeout);

  // An active header round against the banned peer will never be
  // answered; move it to an eligible peer.
  if (headers_request_active_ && headers_peer_ == peer) {
    headers_request_active_ = false;
    if (auto next = pick_header_peer(std::nullopt)) request_headers(*next);
  }
}

void NetNode::handle(NodeId from, const SimNet::PayloadPtr& payload) {
  // Judge due orphan suspects on every delivery so charges land promptly
  // under load (the stall timer is the quiet-network fallback) — and
  // before the ban check, so a flooder's own next message can be the one
  // that gets it banned.
  sweep_orphan_suspects();
  // SimNet refuses banned traffic at delivery time; this guard covers
  // tests driving the handler directly and same-tick races around a ban.
  if (peer_banned(from)) return;
  const std::span<const std::uint8_t> bytes(payload->bytes);
  if (bytes.empty()) {
    note_malformed(from);
    return;
  }
  auto body = bytes.subspan(1);
  const auto tag = static_cast<MsgType>(bytes.front());
  switch (tag) {
    case MsgType::kBlock:
    case MsgType::kGetHeaders:
    case MsgType::kHeaders:
    case MsgType::kGetData:
    case MsgType::kNotFound:
      ++stats_.msgs_received[static_cast<std::size_t>(tag)];
      ++peer_ref(from).received[static_cast<std::size_t>(tag)];
      break;
    default:
      note_malformed(from);
      return;
  }
  switch (tag) {
    case MsgType::kBlock: on_block(from, payload, body); return;
    case MsgType::kGetHeaders: on_get_headers(from, body); return;
    case MsgType::kHeaders: on_headers(from, body); return;
    case MsgType::kGetData: on_get_data(from, body); return;
    case MsgType::kNotFound: on_not_found(from, body); return;
  }
}

void NetNode::on_block(NodeId from, const SimNet::PayloadPtr& payload,
                       std::span<const std::uint8_t> body) {
  // Flood dedup fast path: a buffer we already decoded is recognized by
  // the digest the simulator computed at send time. If what it carried
  // is a known block (stored or orphan-resident), the submit path below
  // would be a guaranteed kDuplicate no-op — short-circuit it, doing
  // exactly the bookkeeping the slow path would have done.
  if (auto wire_it = seen_wire_.find(payload->hash);
      wire_it != seen_wire_.end()) {
    const crypto::Digest known_hash = wire_it->second.block_hash;
    const crypto::Digest known_prev = wire_it->second.prev_hash;
    const bool stored = chain().find_block(known_hash) != nullptr;
    if (stored || chain().has_orphan(known_hash)) {
      seen_wire_lru_.splice(seen_wire_lru_.begin(), seen_wire_lru_,
                            wire_it->second.pos);
      ++stats_.wire_dedup_hits;
      if (auto it = in_flight_.find(known_hash); it != in_flight_.end()) {
        ++stats_.blocks_downloaded;
        if (it->second.peer < peer_in_flight_.size()) {
          --peer_in_flight_[it->second.peer];
        }
        in_flight_.erase(it);
      }
      ++stats_.duplicates;
      // Orphan-resident: the request for its parent (or its answer) may
      // have been lost — re-arm sync, same as the slow path.
      if (!stored) on_disconnected_block(from, known_prev);
      return;
    }
  }

  mainchain::Block block;
  try {
    block = mainchain::codec::decode_block(body);
  } catch (const mainchain::codec::CodecError&) {
    note_malformed(from);
    return;
  }

  // A body we explicitly asked for frees its download slot — whoever
  // actually delivered it (the assigned peer or a faster flood).
  const crypto::Digest hash = block.hash();
  note_wire(payload->hash, hash, block.header.prev_hash);
  bool requested = false;
  if (auto it = in_flight_.find(hash); it != in_flight_.end()) {
    requested = true;
    ++stats_.blocks_downloaded;
    if (it->second.peer < peer_in_flight_.size()) {
      --peer_in_flight_[it->second.peer];
    }
    in_flight_.erase(it);
  }

  auto result = engine_.submit_external_block(block);
  if (result.reorged) ++stats_.reorgs;
  switch (result.code) {
    case SubmitCode::kAccepted:
      ++stats_.blocks_received;
      frontier_attempts_ = 0;  // progress: the retry pump starts fresh
      // The wire bytes just passed full validation as this block: later
      // kGetData answers can serve them verbatim instead of re-encoding.
      cache_block_payload(hash, payload);
      // Flood unsolicited news onward; solicited downloads are catch-up
      // traffic the rest of the network already has, so re-flooding them
      // would only multiply duplicates.
      if (!requested) relay_block(from, payload);
      schedule_downloads();
      return;
    case SubmitCode::kOrphaned:
      ++stats_.orphans_buffered;
      if (!requested) {
        // Unsolicited parent-less blocks churn the orphan pool. Honest
        // catch-up bursts deliver plenty, so arrival never scores: the
        // suspect table charges retrospectively, once a suspect is old
        // enough to have connected and nothing knows it anymore.
        note_unsolicited_orphan(from, hash);
      }
      on_disconnected_block(from, block.header.prev_hash);
      return;
    case SubmitCode::kDuplicate:
      ++stats_.duplicates;
      // Still waiting for this block's parent? A previous request (or
      // its answer) may have been lost to a drop or a partition cut —
      // re-arm the sync instead of stalling forever.
      if (chain().has_orphan(hash)) {
        on_disconnected_block(from, block.header.prev_hash);
      }
      return;
    case SubmitCode::kInvalid:
      ++stats_.rejected;
      ++peer_ref(from).rejected;
      // The validation layer suggests the penalty (zen's nDoS): full
      // weight for outcomes no honest peer relays (bad PoW, bad merkle
      // root), zero for local policy such as max_reorg_depth.
      misbehave(from, result.dos);
      // The freed slot must not idle while other peers can serve the
      // branch (the ban path above already reassigned if it fired).
      if (requested) schedule_downloads();
      return;
  }
}

void NetNode::on_disconnected_block(NodeId from,
                                    const crypto::Digest& prev_hash) {
  if (chain().find_header(prev_hash) == nullptr) {
    // Unknown ancestry: learn the chain shape first. Headers arrive
    // fork-point-first, so every later body request is connectable.
    start_header_sync(from);
  } else {
    // Ancestry known — the body is (or will be) on the download
    // frontier; keep the pipeline full. This also re-arms downloads the
    // stall logic gave up on during a blackout, so the retry pump gets
    // its budget back too.
    frontier_attempts_ = 0;
    schedule_downloads();
  }
}

void NetNode::on_get_headers(NodeId from,
                             std::span<const std::uint8_t> body) {
  mainchain::BlockLocator loc;
  try {
    loc = mainchain::codec::decode_locator(body);
  } catch (const mainchain::codec::CodecError&) {
    note_malformed(from);
    return;
  }
  ++stats_.get_headers_served;
  // Always answer, even with an empty batch: the reply is what clears
  // the requester's in-flight headers state.
  auto headers = chain().headers_after(loc, kHeadersBatch);
  send_msg(from, MsgType::kHeaders,
           mainchain::codec::encode_headers(headers));
}

void NetNode::on_headers(NodeId from, std::span<const std::uint8_t> body) {
  std::vector<mainchain::BlockHeader> headers;
  try {
    headers = mainchain::codec::decode_headers(body);
  } catch (const mainchain::codec::CodecError&) {
    note_malformed(from);
    return;
  }
  // Only the peer that owns the round may close it: a stale batch from an
  // abandoned round (or an unsolicited one) clearing the live round's
  // state would leave the stall timer nothing to retry — the classic
  // wedge this check exists for.
  const bool solicited = headers_request_active_ && headers_peer_ == from;
  if (solicited) {
    headers_request_active_ = false;
    headers_attempts_ = 0;
  } else {
    // Late replies to rounds the stall timer abandoned are honest, hence
    // the free budget; only a flood past it scores.
    PeerState& st = peer_ref(from);
    ++st.unsolicited_headers;
    if (st.unsolicited_headers > kUnsolicitedHeadersBudget) {
      misbehave(from, kUnsolicitedHeadersPenalty);
    }
  }
  if (headers.size() > kHeadersBatch) {
    // Bigger than anything we would request or serve — refuse the batch
    // outright instead of grinding PoW checks on hostile volume.
    ++peer_ref(from).oversized;
    misbehave(from, kOversizedPenalty);
    return;
  }
  stats_.headers_received += headers.size();
  bool extended = false;
  for (const auto& h : headers) {
    auto res = chain().submit_header(h);
    if (res.accepted()) {
      ++stats_.headers_connected;
      extended = true;
      frontier_attempts_ = 0;  // new frontier: the retry pump starts fresh
    } else if (res.code == HeaderCode::kInvalid ||
               res.code == HeaderCode::kDisconnected) {
      ++stats_.rejected;
      ++peer_ref(from).rejected;
      misbehave(from, res.dos);
      // Once the sender is banned the rest of the batch is noise; stop
      // burning PoW checks on it.
      if (peer_banned(from)) break;
    }
  }
  if (solicited) {
    // A full batch means the sender has more: keep walking even when this
    // batch connected nothing new — our locator's exponential spacing can
    // undershoot the fork point, making the first batches pure overlap.
    // The no-progress cap is what stops a peer replaying the same batch
    // from spinning the walk forever.
    headers_no_progress_ = extended ? 0 : headers_no_progress_ + 1;
    if (headers.size() >= kHeadersBatch &&
        headers_no_progress_ < kMaxStaleHeaderRounds &&
        !peer_banned(from)) {
      request_headers(from);
    }
  }
  schedule_downloads();
}

void NetNode::on_get_data(NodeId from, std::span<const std::uint8_t> body) {
  std::vector<crypto::Digest> hashes;
  try {
    hashes = mainchain::codec::decode_inv(body);
  } catch (const mainchain::codec::CodecError&) {
    note_malformed(from);
    return;
  }
  if (hashes.size() > kMaxGetData) {
    // Honest requesters never ask for more than their own in-flight cap;
    // a giant list is a bandwidth-amplification attempt. Serve none of it.
    ++peer_ref(from).oversized;
    misbehave(from, kOversizedPenalty);
    return;
  }
  std::vector<crypto::Digest> missing;
  for (const auto& hash : hashes) {
    const mainchain::Block* block = chain().find_block(hash);
    if (block == nullptr) {
      missing.push_back(hash);
      continue;
    }
    ++stats_.get_data_served;
    ++stats_.msgs_sent[static_cast<std::size_t>(MsgType::kBlock)];
    net_.send(id_, from, block_payload(*block));
  }
  // Tell the requester what we could not serve: a silent skip would cost
  // it a full stall timeout before trying another peer.
  if (!missing.empty()) {
    send_msg(from, MsgType::kNotFound, mainchain::codec::encode_inv(missing));
  }
}

void NetNode::on_not_found(NodeId from, std::span<const std::uint8_t> body) {
  std::vector<crypto::Digest> hashes;
  try {
    hashes = mainchain::codec::decode_inv(body);
  } catch (const mainchain::codec::CodecError&) {
    note_malformed(from);
    return;
  }
  std::map<NodeId, std::vector<crypto::Digest>> batches;
  bool abusive = false;
  for (const auto& hash : hashes) {
    auto it = in_flight_.find(hash);
    if (it == in_flight_.end()) {
      // Late bounces for slots we already gave up or filled are honest.
      // A hash whose header we never even saw cannot have been requested
      // from anyone — naming it is fabrication.
      if (chain().find_header(hash) == nullptr) abusive = true;
      continue;
    }
    // Only the peer that owns the slot may bounce it — a stale notfound
    // from an earlier assignment must not steal the live request.
    if (it->second.peer != from) continue;
    reassign_download(hash, from, batches);
  }
  if (abusive) {
    // Once per message, not per hash: one fabricated list is one offense.
    ++peer_ref(from).notfound_abuse;
    misbehave(from, kNotFoundAbusePenalty);
  }
  for (const auto& [peer, batch] : batches) {
    send_msg(peer, MsgType::kGetData, mainchain::codec::encode_inv(batch));
  }
}

void NetNode::start_header_sync(NodeId peer) {
  if (headers_request_active_) return;
  headers_attempts_ = 0;
  headers_no_progress_ = 0;
  if (peer_banned(peer)) {
    auto alt = pick_header_peer(std::nullopt);
    if (!alt) return;
    peer = *alt;
  }
  request_headers(peer);
}

void NetNode::request_headers(NodeId peer) {
  headers_request_active_ = true;
  headers_peer_ = peer;
  headers_sent_at_ = net_.now();
  send_msg(peer, MsgType::kGetHeaders,
           mainchain::codec::encode_locator(chain().locator()));
  arm_stall_timer(headers_sent_at_ + kStallTimeout);
}

std::optional<NodeId> NetNode::pick_download_peer(
    std::optional<NodeId> exclude) {
  const std::size_t n = net_.node_count();
  if (peer_in_flight_.size() < n) peer_in_flight_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId cand = static_cast<NodeId>((next_dl_peer_ + i) % n);
    if (cand == id_ || peer_banned(cand)) continue;
    if (exclude && *exclude == cand && n > 2) continue;
    if (peer_in_flight_[cand] >= kPerPeerWindow) continue;
    next_dl_peer_ = static_cast<NodeId>((cand + 1) % n);
    return cand;
  }
  return std::nullopt;
}

std::optional<NodeId> NetNode::pick_header_peer(
    std::optional<NodeId> exclude) {
  const std::size_t n = net_.node_count();
  std::optional<NodeId> fallback;
  for (std::size_t i = 1; i <= n; ++i) {
    const NodeId cand = static_cast<NodeId>((headers_peer_ + i) % n);
    if (cand == id_ || peer_banned(cand)) continue;
    if (exclude && *exclude == cand) {
      // The peer that just stalled: usable, but only if nobody else is.
      if (!fallback) fallback = cand;
      continue;
    }
    return cand;
  }
  return fallback;
}

void NetNode::schedule_downloads() {
  if (in_flight_.size() >= kMaxInFlight) return;
  // The frontier includes bodies already in flight (they are still
  // missing), so ask for a full window's worth and skip those.
  auto missing = chain().next_missing_bodies(kMaxInFlight);
  std::map<NodeId, std::vector<crypto::Digest>> batches;
  for (const auto& hash : missing) {
    if (in_flight_.size() >= kMaxInFlight) break;
    if (in_flight_.contains(hash)) continue;
    auto peer = pick_download_peer(std::nullopt);
    if (!peer) break;  // every window is full
    in_flight_.emplace(hash, InFlight{*peer, net_.now(), 1});
    ++peer_in_flight_[*peer];
    batches[*peer].push_back(hash);
  }
  for (const auto& [peer, hashes] : batches) {
    send_msg(peer, MsgType::kGetData, mainchain::codec::encode_inv(hashes));
  }
  if (!batches.empty()) arm_stall_timer(net_.now() + kStallTimeout);
}

void NetNode::arm_stall_timer(SimTime deadline) {
  // One timer per earliest deadline: a later request rides on the armed
  // timer (on_stall_timer re-arms for whatever is still pending), but an
  // earlier deadline needs its own firing — the old single flat timer
  // made a request armed behind an older round wait out two timeouts.
  if (stall_timer_armed_ && stall_timer_deadline_ <= deadline) return;
  stall_timer_armed_ = true;
  stall_timer_deadline_ = deadline;
  const SimTime now = net_.now();
  net_.set_timer(id_, deadline > now ? deadline - now : 0);
}

void NetNode::on_stall_timer() {
  stall_timer_armed_ = false;
  sweep_orphan_suspects();
  const SimTime now = net_.now();
  if (headers_request_active_ &&
      now - headers_sent_at_ >= kStallTimeout) {
    // The header round died in flight. Retry against the next eligible
    // peer a bounded number of times; past that, the next announcement
    // restarts the sync (retrying into a blackout forever would keep the
    // event queue spinning).
    const NodeId stalled_peer = headers_peer_;
    headers_request_active_ = false;
    if (++headers_attempts_ < kMaxRequestAttempts) {
      if (auto next = pick_header_peer(stalled_peer)) {
        ++stats_.stalled_rerequests;
        request_headers(*next);
      }
    }
  }

  std::vector<crypto::Digest> stalled;
  for (const auto& [hash, inf] : in_flight_) {
    if (now - inf.sent_at >= kStallTimeout) stalled.push_back(hash);
  }
  std::sort(stalled.begin(), stalled.end());  // deterministic re-issue order
  std::map<NodeId, std::vector<crypto::Digest>> batches;
  for (const auto& hash : stalled) {
    reassign_download(hash, in_flight_.at(hash).peer, batches);
  }
  for (const auto& [peer, hashes] : batches) {
    send_msg(peer, MsgType::kGetData, mainchain::codec::encode_inv(hashes));
  }

  // Every slot can give up (attempts exhausted against peers that are
  // themselves still catching up) while bodies are still missing — and
  // with no further announcements coming, nothing else would re-request
  // them. Re-pump the frontier a bounded number of times; any progress
  // resets the budget, so only a true blackout runs it out.
  if (in_flight_.empty() && !headers_request_active_ &&
      frontier_attempts_ < kMaxRequestAttempts &&
      !chain().next_missing_bodies(1).empty()) {
    ++frontier_attempts_;
    schedule_downloads();
  }

  // Re-arm for the earliest deadline still pending — not a flat timeout
  // from now, which would let a young request wait up to two timeouts.
  std::optional<SimTime> next;
  if (headers_request_active_) {
    next = headers_sent_at_ + kStallTimeout;
  }
  for (const auto& [hash, inf] : in_flight_) {
    const SimTime deadline = inf.sent_at + kStallTimeout;
    if (!next || deadline < *next) next = deadline;
  }
  if (!orphan_suspects_.empty()) {
    const SimTime deadline = orphan_suspects_.front().seen_at +
                             kOrphanSuspectGrace;
    if (!next || deadline < *next) next = deadline;
  }
  if (next) arm_stall_timer(*next);
}

void NetNode::reassign_download(
    const crypto::Digest& hash, NodeId from,
    std::map<NodeId, std::vector<crypto::Digest>>& batches) {
  InFlight& inf = in_flight_.at(hash);
  if (inf.peer < peer_in_flight_.size()) --peer_in_flight_[inf.peer];
  auto peer = inf.attempts < kMaxRequestAttempts
                  ? pick_download_peer(from)
                  : std::nullopt;
  if (!peer) {
    // Attempts exhausted (or all windows full): give the slot up. The
    // hash stays on the download frontier, so the next headers/block
    // arrival re-requests it.
    in_flight_.erase(hash);
    return;
  }
  ++stats_.stalled_rerequests;
  inf.peer = *peer;
  inf.sent_at = net_.now();
  ++inf.attempts;
  ++peer_in_flight_[*peer];
  batches[*peer].push_back(hash);
}

}  // namespace zendoo::net
