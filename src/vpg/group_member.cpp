#include "vpg/group_member.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"

namespace wav::vpg {
namespace {

using overlay::MsgType;

}  // namespace

GroupMember::GroupMember(overlay::HostAgent& agent, Config config)
    : agent_(agent),
      config_(std::move(config)),
      socket_(agent.udp(), config_.port),
      sync_timer_(
          agent.sim(), config_.sync_interval, [this] { sync_tick(); },
          WAV_PROF_CATEGORY("vpg", "sync")) {
  socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& dgram) {
    on_authority_datagram(from, dgram);
  });
  agent_.on_group_datagram([this](std::uint64_t from, const net::Chunk& chunk) {
    on_group_ctrl(from, chunk);
  });
  agent_.on_link_up_group([this](std::uint64_t peer) { kick_handshakes_with(peer); });
  agent_.on_link_down_group([this](std::uint64_t peer) {
    // Link loss is not a membership event: just reset the handshakes so
    // a re-established link renegotiates (the gates already read as
    // closed through the link_established check).
    for (auto& [key, hs] : handshakes_) {
      if (key.second == peer) hs = Handshake{};
    }
  });
  obs::MetricsRegistry& reg = agent_.sim().metrics();
  const std::string mi = instance();
  c_ops_sent_ = &reg.counter("vpg.ops_sent", mi);
  c_ops_failed_ = &reg.counter("vpg.ops_failed", mi);
  c_epochs_adopted_ = &reg.counter("vpg.epochs_adopted", mi);
  c_handshakes_started_ = &reg.counter("vpg.handshakes_started", mi);
  c_handshakes_completed_ = &reg.counter("vpg.handshakes_completed", mi);
  c_gates_closed_ = &reg.counter("vpg.gates_closed", mi);
  c_revoked_deliveries_ = &reg.counter("vpg.revoked_deliveries", mi);
  h_handshake_ms_ = &reg.histogram(
      "vpg.handshake_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}, mi);
  h_revoke_teardown_ms_ = &reg.histogram(
      "vpg.revoke_teardown_ms",
      {10, 50, 100, 500, 1000, 2000, 5000, 10000, 20000, 60000}, mi);
  sync_timer_.start();
}

std::string GroupMember::instance() const {
  return config_.metrics_instance.empty() ? agent_.self_info().name
                                          : config_.metrics_instance;
}

const GroupEpoch* GroupMember::adopted(GroupId group) const {
  const auto it = epochs_.find(group);
  return it == epochs_.end() ? nullptr : &it->second;
}

std::vector<GroupId> GroupMember::active_groups() const {
  std::vector<GroupId> out;
  for (const auto& [group, epoch] : epochs_) {
    if (epoch.is_member(agent_.id())) out.push_back(group);
  }
  return out;
}

// --- membership operations -------------------------------------------

void GroupMember::create_group(GroupId group, OpHandler handler) {
  send_op(GroupOp::kCreate, group, 0, std::move(handler));
}
void GroupMember::invite(GroupId group, std::uint64_t target, OpHandler handler) {
  send_op(GroupOp::kInvite, group, target, std::move(handler));
}
void GroupMember::join(GroupId group, OpHandler handler) {
  send_op(GroupOp::kJoin, group, 0, std::move(handler));
}
void GroupMember::leave(GroupId group, OpHandler handler) {
  send_op(GroupOp::kLeave, group, 0, std::move(handler));
}
void GroupMember::revoke(GroupId group, std::uint64_t target, OpHandler handler) {
  send_op(GroupOp::kRevoke, group, target, std::move(handler));
}

net::Endpoint GroupMember::authority_for(GroupId group, std::size_t cursor) const {
  std::uint64_t state = 0xA5A5A5A5ull ^ group;
  const std::size_t home = static_cast<std::size_t>(splitmix64(state)) %
                           config_.authorities.size();
  return config_.authorities[(home + cursor) % config_.authorities.size()];
}

void GroupMember::send_op(GroupOp op, GroupId group, std::uint64_t target,
                          OpHandler handler) {
  if (config_.authorities.empty()) {
    if (handler) handler(false, GroupOpStatus::kUnknownGroup);
    return;
  }
  const std::uint64_t op_id = next_op_id_++;
  PendingOp& pending = pending_ops_[op_id];
  pending.msg = GroupOpMsg{op_id, op, group, agent_.id(), target};
  pending.handler = std::move(handler);
  // Track the group even before the first ack so sync asks about it.
  epochs_.try_emplace(group);
  transmit_op(op_id);
}

void GroupMember::transmit_op(std::uint64_t op_id) {
  auto& pending = pending_ops_.at(op_id);
  c_ops_sent_->inc();
  socket_.send_to(authority_for(pending.msg.group, pending.cursor),
                  wire::encode(pending.msg));
  const std::uint64_t epoch = ++pending.epoch;
  agent_.sim().schedule_after(config_.op_timeout,
                              WAV_PROF_CATEGORY("vpg", "op_timeout"),
                              [this, op_id, epoch] { op_expired(op_id, epoch); });
}

void GroupMember::op_expired(std::uint64_t op_id, std::uint64_t epoch) {
  const auto it = pending_ops_.find(op_id);
  if (it == pending_ops_.end() || it->second.epoch != epoch) return;
  PendingOp& pending = it->second;
  if (++pending.attempts > config_.op_retries || agent_.offline()) {
    c_ops_failed_->inc();
    OpHandler handler = std::move(pending.handler);
    pending_ops_.erase(it);
    if (handler) handler(false, GroupOpStatus::kUnknownGroup);
    return;
  }
  // Ring-walk: the home authority may have crashed with its shard.
  ++pending.cursor;
  transmit_op(op_id);
}

void GroupMember::on_authority_datagram(const net::Endpoint& from,
                                        const net::UdpDatagram& dgram) {
  (void)from;
  if (agent_.offline()) return;
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto type = overlay::peek_type(dgram);
  if (!type) return;
  switch (*type) {
    case MsgType::kGroupOpAck: {
      const auto msg = wire::parse<GroupOpAckMsg>(*chunk);
      if (!msg) return;
      if (msg->epoch.version != 0) adopt(msg->epoch);
      const auto it = pending_ops_.find(msg->op_id);
      if (it == pending_ops_.end()) return;
      // kUnknownGroup is not terminal: a replica that just restarted
      // answers it while a ring sibling still holds the record, so walk
      // the ring like a timeout would. A genuinely unknown group just
      // exhausts the walk and fails through op_expired's budget.
      if (msg->status == GroupOpStatus::kUnknownGroup &&
          it->second.attempts < config_.op_retries) {
        ++it->second.attempts;
        ++it->second.cursor;
        transmit_op(msg->op_id);
        return;
      }
      OpHandler handler = std::move(it->second.handler);
      pending_ops_.erase(it);
      if (handler) handler(msg->status == GroupOpStatus::kOk, msg->status);
      return;
    }
    case MsgType::kGroupEpoch: {
      if (const auto msg = wire::parse<GroupEpochMsg>(*chunk)) adopt(msg->epoch);
      return;
    }
    default:
      return;
  }
}

// --- epoch adoption and gate lifecycle --------------------------------

void GroupMember::adopt(const GroupEpoch& epoch) {
  GroupEpoch& cur = epochs_[epoch.group];
  if (cur.version >= epoch.version) return;
  const bool revocation_grew = epoch.revoked.size() > cur.revoked.size();
  cur = epoch;
  c_epochs_adopted_->inc();
  if (log_ != nullptr) {
    log_->record({agent_.sim().now(), "epoch_adopted", instance(), epoch.group,
                  epoch.version, 0,
                  epoch.is_revoked(agent_.id()) ? "revoked_me" : "", -1.0});
  }
  // Re-judge every pair gate of this group against the new state.
  const std::uint64_t me = agent_.id();
  for (auto& [key, hs] : handshakes_) {
    if (key.first != epoch.group || hs.state == Handshake::State::kIdle) continue;
    const std::uint64_t peer = key.second;
    const bool banned = !epoch.is_member(me) || !epoch.is_member(peer) ||
                        epoch.is_revoked(me) || epoch.is_revoked(peer);
    if (!banned) continue;
    const bool revocation =
        revocation_grew && (epoch.is_revoked(me) || epoch.is_revoked(peer));
    close_gate(epoch.group, peer, epoch, revocation);
  }
  kick_handshakes();
}

void GroupMember::close_gate(GroupId group, std::uint64_t peer,
                             const GroupEpoch& cause, bool revocation) {
  auto& hs = handshakes_[{group, peer}];
  const bool was_done = hs.state == Handshake::State::kDone;
  hs = Handshake{};
  if (!was_done) return;
  c_gates_closed_->inc();
  // Teardown latency runs from the authority's mutation stamp to this
  // adoption — the full propagation + reaction window the revocation
  // invariant bounds.
  const double latency_ms = to_milliseconds(agent_.sim().now() - cause.changed_at);
  if (revocation) h_revoke_teardown_ms_->observe(latency_ms);
  if (log_ != nullptr) {
    log_->record({agent_.sim().now(), "gate_closed", instance(), group,
                  cause.version, peer, revocation ? "revoke" : "membership",
                  revocation ? latency_ms : -1.0});
  }
  if (on_gate_closed_) on_gate_closed_(group, peer);
  // Physical teardown is initiated by the banned host once it converges
  // (a survivor can no more kill the peer's NAT mapping than any remote
  // can). Until then the survivor's ingress gate is the enforcement
  // point: the ignorant peer's blind-window frames die there with the
  // typed group_isolation reason. A peer that never converges is reaped
  // by the agent's ordinary keepalive machinery.
  const std::uint64_t me = agent_.id();
  const bool self_banned = cause.is_revoked(me) || !cause.is_member(me);
  if (self_banned && !shares_any_group(peer) && agent_.link_established(peer)) {
    agent_.drop_link(peer);
    if (log_ != nullptr) {
      log_->record({agent_.sim().now(), "link_teardown", instance(), group,
                    cause.version, peer, "", -1.0});
    }
  }
}

bool GroupMember::shares_any_group(std::uint64_t peer) const {
  const std::uint64_t me = agent_.id();
  for (const auto& [group, epoch] : epochs_) {
    if (epoch.is_member(me) && epoch.is_member(peer)) return true;
  }
  return false;
}

// --- anti-entropy sync -------------------------------------------------

void GroupMember::sync_tick() {
  if (agent_.offline() || config_.authorities.empty()) return;
  WAV_PROF_SCOPE("vpg", "sync_tick");
  GroupSyncMsg msg;
  msg.host = agent_.id();
  for (const auto& [group, epoch] : epochs_) {
    msg.held.emplace_back(group, epoch.version);
  }
  if (!msg.held.empty()) {
    // Anti-entropy fans out to the whole authority fleet: every replica
    // learns this member's endpoint (so its pushes reach us even when a
    // group's home authority is down) and any replica holding a newer
    // version answers. The fleet is small — a handful of endpoints — so
    // the fan-out is cheaper than stalling convergence on an outage.
    const net::Chunk chunk = wire::encode(msg);
    for (const net::Endpoint& authority : config_.authorities) {
      socket_.send_to(authority, chunk);
    }
  }
  // Restart handshakes that lost a message mid-exchange.
  const TimePoint now = agent_.sim().now();
  for (auto& [key, hs] : handshakes_) {
    if (hs.state == Handshake::State::kRunning &&
        now - hs.last_activity > config_.handshake_stale) {
      hs = Handshake{};
    }
  }
  kick_handshakes();
}

// --- the modeled pair handshake ---------------------------------------

void GroupMember::kick_handshakes() {
  if (agent_.offline()) return;
  const std::uint64_t me = agent_.id();
  for (const auto& [group, epoch] : epochs_) {
    if (!epoch.is_member(me)) continue;
    for (const std::uint64_t peer : epoch.members) {
      if (peer == me || !agent_.link_established(peer)) continue;
      start_handshake(group, peer);
    }
  }
}

void GroupMember::kick_handshakes_with(std::uint64_t peer) {
  if (agent_.offline()) return;
  const std::uint64_t me = agent_.id();
  for (const auto& [group, epoch] : epochs_) {
    if (epoch.is_member(me) && epoch.is_member(peer)) start_handshake(group, peer);
  }
}

void GroupMember::start_handshake(GroupId group, std::uint64_t peer) {
  auto& hs = handshakes_[{group, peer}];
  if (hs.state != Handshake::State::kIdle) return;
  const std::uint64_t me = agent_.id();
  if (me >= peer) return;  // the lower host id initiates; we respond
  hs.state = Handshake::State::kRunning;
  hs.initiator = true;
  hs.round = 1;
  hs.started = agent_.sim().now();
  hs.last_activity = hs.started;
  c_handshakes_started_->inc();
  if (log_ != nullptr) {
    log_->record({hs.started, "handshake_start", instance(), group,
                  epochs_[group].version, peer, "", -1.0});
  }
  send_handshake(group, peer, 1, false);
}

void GroupMember::send_handshake(GroupId group, std::uint64_t peer,
                                 std::uint32_t round, bool reply) {
  // Each message costs the configured CPU time before it leaves — the
  // modeled key-agreement tax. The send re-validates link and
  // membership after the delay; the world may have moved on.
  agent_.sim().schedule_after(
      config_.handshake_cpu, WAV_PROF_CATEGORY("vpg", "handshake_cpu"),
      [this, group, peer, round, reply] {
        if (agent_.offline() || !agent_.link_established(peer)) return;
        const auto it = epochs_.find(group);
        if (it == epochs_.end() || !it->second.is_member(agent_.id()) ||
            !it->second.is_member(peer)) {
          return;
        }
        agent_.send_group_ctrl(
            peer, wire::encode(GroupHandshakeMsg{agent_.id(), peer, group, round, reply}));
      });
}

void GroupMember::on_group_ctrl(std::uint64_t from, const net::Chunk& chunk) {
  if (agent_.offline()) return;
  if (const auto msg = wire::parse<GroupHandshakeMsg>(chunk)) {
    if (msg->from_host == from) handle_handshake(from, *msg);
  }
}

void GroupMember::handle_handshake(std::uint64_t from, const GroupHandshakeMsg& msg) {
  const auto it = epochs_.find(msg.group);
  const std::uint64_t me = agent_.id();
  // A handshake across a banned membership is refused silently — the
  // peer's retry path gives up once it adopts the same epoch.
  if (it == epochs_.end() || !it->second.is_member(me) ||
      !it->second.is_member(from) || it->second.is_revoked(from)) {
    return;
  }
  auto& hs = handshakes_[{msg.group, from}];
  const TimePoint now = agent_.sim().now();
  if (!msg.reply) {
    // Responder side (we hold the higher id).
    if (hs.state == Handshake::State::kIdle) {
      hs.state = Handshake::State::kRunning;
      hs.initiator = false;
      hs.started = now;
      c_handshakes_started_->inc();
    }
    if (hs.state == Handshake::State::kDone) {
      // The peer restarted (churned away and back): renegotiate.
      hs.state = Handshake::State::kRunning;
      hs.started = now;
    }
    hs.round = msg.round;
    hs.last_activity = now;
    send_handshake(msg.group, from, msg.round, true);
    if (msg.round >= config_.handshake_rounds) complete_handshake(msg.group, from, hs);
    return;
  }
  // Initiator side: a reply for our current round advances the exchange.
  if (hs.state != Handshake::State::kRunning || !hs.initiator ||
      msg.round != hs.round) {
    return;
  }
  hs.last_activity = now;
  if (hs.round >= config_.handshake_rounds) {
    complete_handshake(msg.group, from, hs);
    return;
  }
  ++hs.round;
  send_handshake(msg.group, from, hs.round, false);
}

void GroupMember::complete_handshake(GroupId group, std::uint64_t peer,
                                     Handshake& hs) {
  hs.state = Handshake::State::kDone;
  hs.last_activity = agent_.sim().now();
  c_handshakes_completed_->inc();
  const double latency_ms = to_milliseconds(agent_.sim().now() - hs.started);
  h_handshake_ms_->observe(latency_ms);
  if (log_ != nullptr) {
    log_->record({agent_.sim().now(), "handshake_done", instance(), group,
                  epochs_[group].version, peer, hs.initiator ? "initiator" : "responder",
                  latency_ms});
  }
}

// --- GroupGate ---------------------------------------------------------

bool GroupMember::gate_open(GroupId group, std::uint64_t peer) const {
  const auto eit = epochs_.find(group);
  if (eit == epochs_.end()) return false;
  const GroupEpoch& e = eit->second;
  const std::uint64_t me = agent_.id();
  if (!e.is_member(me) || !e.is_member(peer) || e.is_revoked(me) ||
      e.is_revoked(peer)) {
    return false;
  }
  const auto hit = handshakes_.find({group, peer});
  if (hit == handshakes_.end() || hit->second.state != Handshake::State::kDone) {
    return false;
  }
  return agent_.link_established(peer);
}

bool GroupMember::egress_allowed(GroupId g, std::uint64_t peer) {
  return gate_open(g, peer);
}

bool GroupMember::ingress_allowed(GroupId g, std::uint64_t peer) {
  return gate_open(g, peer);
}

void GroupMember::broadcast_groups(std::vector<GroupId>& out) {
  const std::uint64_t me = agent_.id();
  for (const auto& [group, epoch] : epochs_) {
    if (epoch.is_member(me)) out.push_back(group);
  }
}

void GroupMember::note_delivered(GroupId g, std::uint64_t peer) {
  // The independent tripwire: a delivery across a membership this host
  // has already adopted as revoked means the gating failed somewhere.
  const auto it = epochs_.find(g);
  if (it == epochs_.end()) return;
  if (it->second.is_revoked(peer) || it->second.is_revoked(agent_.id())) {
    c_revoked_deliveries_->inc();
  }
}

std::uint64_t GroupMember::invariant_violations() const {
  std::uint64_t open_revoked_gates = 0;
  const std::uint64_t me = agent_.id();
  for (const auto& [key, hs] : handshakes_) {
    if (hs.state != Handshake::State::kDone) continue;
    const auto it = epochs_.find(key.first);
    if (it == epochs_.end()) continue;
    if (it->second.is_revoked(me) || it->second.is_revoked(key.second)) {
      ++open_revoked_gates;
    }
  }
  return revoked_deliveries() + open_revoked_gates;
}

}  // namespace wav::vpg
