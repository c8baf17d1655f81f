#include "vpg/group_authority.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"

namespace wav::vpg {
namespace {

using overlay::MsgType;

/// Epoch records share the CAN with host records, which rendezvous
/// servers key by host id; the tag keeps group keys out of that space.
constexpr can::RecordKey kEpochKeyTag = 0x4750'0000'0000'0000ULL;

/// Sorted-insert / erase helpers for the epoch's id lists.
void insert_sorted(std::vector<std::uint64_t>& v, std::uint64_t id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it == v.end() || *it != id) v.insert(it, id);
}

void erase_sorted(std::vector<std::uint64_t>& v, std::uint64_t id) {
  const auto it = std::lower_bound(v.begin(), v.end(), id);
  if (it != v.end() && *it == id) v.erase(it);
}

}  // namespace

GroupAuthority::GroupAuthority(overlay::RendezvousServer& rv)
    : GroupAuthority(rv, Config{}) {}

GroupAuthority::GroupAuthority(overlay::RendezvousServer& rv, Config config)
    : rv_(rv),
      config_(std::move(config)),
      socket_(rv.udp(), config_.port),
      can_refresh_timer_(
          rv.udp().sim(), config_.can_refresh, [this] { can_refresh_tick(); },
          WAV_PROF_CATEGORY("vpg", "can_refresh")) {
  socket_.on_receive([this](const net::Endpoint& from, const net::UdpDatagram& dgram) {
    on_datagram(from, dgram);
  });
  // Replication piggybacks on the rendezvous shard-ping channel: our full
  // record set rides every ping/pong, and sibling payloads merge here.
  rv_.set_shard_payload([this] { return replication_payload(); },
                        [this](const ByteBuffer& p) { absorb_payload(p); });
  obs::MetricsRegistry& reg = rv_.udp().sim().metrics();
  const std::string mi = instance();
  c_ops_applied_ = &reg.counter("vpg.ops_applied", mi);
  c_ops_rejected_ = &reg.counter("vpg.ops_rejected", mi);
  c_epochs_pushed_ = &reg.counter("vpg.epochs_pushed", mi);
  c_replicas_merged_ = &reg.counter("vpg.replicas_merged", mi);
  c_can_recoveries_ = &reg.counter("vpg.can_recoveries", mi);
  g_groups_ = &reg.gauge("vpg.groups_known", mi);
  can_refresh_timer_.start();
}

std::string GroupAuthority::instance() const {
  return config_.metrics_instance.empty()
             ? "ga@" + rv_.host_endpoint().ip.to_string()
             : config_.metrics_instance;
}

const GroupEpoch* GroupAuthority::record(GroupId group) const {
  const auto it = records_.find(group);
  return it == records_.end() ? nullptr : &it->second;
}

void GroupAuthority::crash() {
  if (down_) return;
  down_ = true;
  records_.clear();
  member_endpoints_.clear();
  g_groups_->set(0);
  can_refresh_timer_.stop();
  rv_.udp().sim().tracer().instant(obs::Category::kChaos, "vpg.authority_crash",
                                   instance());
}

void GroupAuthority::restart() {
  if (!down_) return;
  down_ = false;
  can_refresh_timer_.start();
  rv_.udp().sim().tracer().instant(obs::Category::kChaos, "vpg.authority_restart",
                                   instance());
}

can::Point GroupAuthority::can_point(GroupId group) const {
  // Deterministic point in the CAN's unit square: two splitmix64 draws
  // seeded by the group id (matches the can_dims=2 fleet convention).
  std::uint64_t state = 0x9E3779B97F4A7C15ull ^ group;
  can::Point p;
  const std::size_t dims = rv_.can_node().zone().dims();
  p.coords.reserve(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    p.coords.push_back(static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53);
  }
  return p;
}

void GroupAuthority::store_in_can(const GroupEpoch& epoch) {
  // One record per group: every store replaces it, so a version bump
  // leaves no stale record behind.
  rv_.can_node().store(can_point(epoch.group), kEpochKeyTag | epoch.group,
                       wire::bytes(epoch), config_.can_ttl);
}

void GroupAuthority::recover_from_can(GroupId group) {
  c_can_recoveries_->inc();
  rv_.can_node().query(can_point(group), 1, [this](std::vector<can::Item> items) {
    if (down_) return;
    for (const can::Item& item : items) {
      if (const auto epoch = wire::parse<GroupEpoch>(item.payload)) {
        merge(*epoch, "can");
      }
    }
  });
}

void GroupAuthority::can_refresh_tick() {
  if (down_) return;
  for (const auto& [group, epoch] : records_) store_in_can(epoch);
}

ByteBuffer GroupAuthority::replication_payload() const {
  if (down_ || records_.empty()) return {};
  // A GroupReplicateMsg body: the epoch count, then the epochs.
  ByteBuffer out;
  wire::Writer w{out};
  w(static_cast<std::uint16_t>(records_.size()));
  for (const auto& [group, epoch] : records_) w(epoch);
  return out;
}

void GroupAuthority::absorb_payload(const ByteBuffer& payload) {
  if (down_) return;
  // Epochs merge as they parse, so those ahead of a short one still land.
  wire::Reader r{payload};
  std::uint16_t n = 0;
  if (!r(n)) return;
  for (std::size_t i = 0; i < n; ++i) {
    GroupEpoch epoch;
    if (!r(epoch)) return;
    merge(epoch, "shard_ping");
  }
}

void GroupAuthority::merge(const GroupEpoch& epoch, const char* source) {
  GroupEpoch& cur = records_[epoch.group];  // version 0 when newly seen
  if (cur.version >= epoch.version) return;
  cur = epoch;
  c_replicas_merged_->inc();
  g_groups_->set(static_cast<double>(records_.size()));
  log::debug("vpg", "{}: merged group {} v{} from {}", instance(), epoch.group,
             epoch.version, source);
}

void GroupAuthority::on_datagram(const net::Endpoint& from,
                                 const net::UdpDatagram& dgram) {
  if (down_) return;
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr) return;
  const auto type = overlay::peek_type(dgram);
  if (!type) return;
  switch (*type) {
    case MsgType::kGroupOp: {
      if (const auto msg = wire::parse<GroupOpMsg>(*chunk)) handle_op(from, *msg);
      return;
    }
    case MsgType::kGroupSync: {
      if (const auto msg = wire::parse<GroupSyncMsg>(*chunk)) handle_sync(from, *msg);
      return;
    }
    case MsgType::kGroupReplicate: {
      if (const auto msg = wire::parse<GroupReplicateMsg>(*chunk)) {
        for (const GroupEpoch& e : msg->epochs) merge(e, "replicate");
      }
      return;
    }
    default:
      return;
  }
}

void GroupAuthority::handle_op(const net::Endpoint& from, const GroupOpMsg& msg) {
  member_endpoints_[msg.actor] = from;
  const GroupOpStatus status = apply(msg);
  GroupOpAckMsg ack;
  ack.op_id = msg.op_id;
  ack.status = status;
  if (const auto it = records_.find(msg.group); it != records_.end()) {
    ack.epoch = it->second;
  }
  socket_.send_to(from, wire::encode(ack));
  if (status != GroupOpStatus::kOk) {
    c_ops_rejected_->inc();
    return;
  }
  c_ops_applied_->inc();
  const GroupEpoch& epoch = records_.at(msg.group);
  if (log_ != nullptr) {
    log_->record({rv_.udp().sim().now(), "op", instance(), msg.group, epoch.version,
                  msg.target != 0 ? msg.target : msg.actor, to_string(msg.op), -1.0});
  }
  store_in_can(epoch);
  // Eager replication: the periodic shard-ping payload would carry this
  // anyway, but a revocation shouldn't wait out a ping interval.
  if (!config_.peers.empty()) {
    const net::Chunk rep = wire::encode(GroupReplicateMsg{{epoch}});
    for (const auto& peer : config_.peers) socket_.send_to(peer, rep);
  }
  // The revoked host is deliberately left out of the push; it discovers
  // the revocation on its next sync.
  push_epoch(epoch, msg.op == GroupOp::kRevoke ? msg.target : 0);
}

GroupOpStatus GroupAuthority::apply(const GroupOpMsg& msg) {
  const TimePoint now = rv_.udp().sim().now();
  auto it = records_.find(msg.group);
  if (msg.op == GroupOp::kCreate) {
    if (it != records_.end()) {
      // Idempotent retry by the creator is fine; anyone else collides.
      return it->second.is_member(msg.actor) ? GroupOpStatus::kOk
                                             : GroupOpStatus::kExists;
    }
    GroupEpoch e;
    e.group = msg.group;
    e.version = 1;
    e.changed_at = now;
    e.members.push_back(msg.actor);
    records_.emplace(msg.group, std::move(e));
    g_groups_->set(static_cast<double>(records_.size()));
    return GroupOpStatus::kOk;
  }
  if (it == records_.end()) {
    // Maybe this authority just restarted and the record only survives
    // in CAN; kick a recovery so a retry can succeed.
    recover_from_can(msg.group);
    return GroupOpStatus::kUnknownGroup;
  }
  GroupEpoch& e = it->second;
  if (e.is_revoked(msg.actor)) return GroupOpStatus::kRevoked;
  switch (msg.op) {
    case GroupOp::kCreate:
      return GroupOpStatus::kOk;  // handled above
    case GroupOp::kInvite: {
      if (!e.is_member(msg.actor)) return GroupOpStatus::kNotMember;
      if (e.is_member(msg.target) || e.is_invited(msg.target)) {
        return GroupOpStatus::kOk;  // idempotent
      }
      if (e.is_revoked(msg.target)) return GroupOpStatus::kRevoked;
      insert_sorted(e.invited, msg.target);
      break;
    }
    case GroupOp::kJoin: {
      if (e.is_member(msg.actor)) return GroupOpStatus::kOk;  // idempotent
      if (!e.is_invited(msg.actor)) return GroupOpStatus::kNotInvited;
      erase_sorted(e.invited, msg.actor);
      insert_sorted(e.members, msg.actor);
      break;
    }
    case GroupOp::kLeave: {
      if (!e.is_member(msg.actor)) return GroupOpStatus::kNotMember;
      // A graceful leave is not a tombstone: the host may be re-invited.
      erase_sorted(e.members, msg.actor);
      break;
    }
    case GroupOp::kRevoke: {
      if (!e.is_member(msg.actor)) return GroupOpStatus::kNotMember;
      if (!e.is_member(msg.target) && !e.is_invited(msg.target)) {
        return GroupOpStatus::kNotMember;
      }
      erase_sorted(e.members, msg.target);
      erase_sorted(e.invited, msg.target);
      insert_sorted(e.revoked, msg.target);
      break;
    }
  }
  ++e.version;
  e.changed_at = now;
  return GroupOpStatus::kOk;
}

void GroupAuthority::push_epoch(const GroupEpoch& epoch, std::uint64_t exclude) {
  const net::Chunk chunk = wire::encode(GroupEpochMsg{epoch});
  auto push_to = [&](std::uint64_t host) {
    if (host == exclude) return;
    const auto it = member_endpoints_.find(host);
    if (it == member_endpoints_.end()) return;  // it will sync
    c_epochs_pushed_->inc();
    socket_.send_to(it->second, chunk);
  };
  for (const std::uint64_t host : epoch.members) push_to(host);
  for (const std::uint64_t host : epoch.invited) push_to(host);
}

void GroupAuthority::handle_sync(const net::Endpoint& from, const GroupSyncMsg& msg) {
  member_endpoints_[msg.host] = from;
  for (const auto& [group, version] : msg.held) {
    const auto it = records_.find(group);
    if (it == records_.end()) {
      recover_from_can(group);
      continue;
    }
    if (it->second.version > version) {
      c_epochs_pushed_->inc();
      socket_.send_to(from, wire::encode(GroupEpochMsg{it->second}));
    }
  }
}

}  // namespace wav::vpg
