// Virtual Private Groups: the shared vocabulary of the VPG subsystem.
//
// WAVNet's flat virtual LAN becomes multi-tenant by carving the overlay
// into membership-managed groups (the Virtual Private Overlay extension
// of Wolinsky et al.): a GroupAuthority co-hosted on the rendezvous
// fleet owns each group's lifecycle, members adopt monotonically
// versioned membership epochs, and the WAV-Switch scopes its FDB and
// broadcast domain by GroupId so one physical tunnel set carries N
// isolated L2 domains.
//
// This header keeps the light pieces — ids, the epoch record and the
// group messages with their field lists, the GroupGate interface the
// switch consults per frame, and the GroupLog event collector behind
// --groups-out — so wavnet/ can include it without pulling in the
// authority or member machinery.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "net/wire.hpp"
#include "overlay/messages.hpp"

namespace wav::vpg {

/// Group identifier. 0 is reserved for "no group" (the legacy flat LAN);
/// frames and FDB entries carry it as their isolation tag.
using GroupId = std::uint32_t;

/// One group's membership state at one version. Versions are bumped by
/// the authority on every mutation and never reused; receivers adopt an
/// epoch iff its version exceeds the one they hold (last-writer-wins
/// under replication). Member/invited/revoked lists are kept sorted so
/// identical states serialize identically (determinism contract).
struct GroupEpoch {
  GroupId group{0};
  std::uint64_t version{0};
  TimePoint changed_at{};  // authority sim-time of the last mutation
  std::vector<std::uint64_t> members;  // sorted host ids
  std::vector<std::uint64_t> invited;  // sorted host ids (may join)
  std::vector<std::uint64_t> revoked;  // sorted host ids (tombstones)

  [[nodiscard]] bool is_member(std::uint64_t host) const;
  [[nodiscard]] bool is_invited(std::uint64_t host) const;
  [[nodiscard]] bool is_revoked(std::uint64_t host) const;
};
/// Also the payload of the group's CAN record (self-describing, so a query
/// hit merges without the authority) and the element of the shard-ping
/// replication payload.
template <class Io>
bool fields(Io& io, GroupEpoch& e) {
  return io(e.group, e.version, e.changed_at, wire::list<std::uint16_t>(e.members),
            wire::list<std::uint16_t>(e.invited), wire::list<std::uint16_t>(e.revoked));
}

/// Membership operations a member can ask the authority to apply.
enum class GroupOp : std::uint8_t {
  kCreate = 1,  // actor creates the group and becomes its first member
  kInvite,      // actor invites target
  kJoin,        // actor joins (must be invited, or the group's creator)
  kLeave,       // actor leaves gracefully
  kRevoke,      // actor revokes target's membership (tombstoned)
};

[[nodiscard]] const char* to_string(GroupOp op) noexcept;

/// True when `op` names an enumerator (a parse check on wire bytes).
[[nodiscard]] constexpr bool is_valid(GroupOp op) noexcept {
  switch (op) {
    case GroupOp::kCreate:
    case GroupOp::kInvite:
    case GroupOp::kJoin:
    case GroupOp::kLeave:
    case GroupOp::kRevoke:
      return true;
  }
  return false;
}

/// Outcome codes for a GroupOpAck.
enum class GroupOpStatus : std::uint8_t {
  kOk = 0,
  kUnknownGroup,
  kExists,       // create for a group id already in use
  kNotInvited,   // join without a standing invite
  kNotMember,    // leave/invite/revoke by or on a non-member
  kRevoked,      // actor has been revoked; no further ops accepted
};

[[nodiscard]] const char* to_string(GroupOpStatus status) noexcept;

[[nodiscard]] constexpr bool is_valid(GroupOpStatus status) noexcept {
  switch (status) {
    case GroupOpStatus::kOk:
    case GroupOpStatus::kUnknownGroup:
    case GroupOpStatus::kExists:
    case GroupOpStatus::kNotInvited:
    case GroupOpStatus::kNotMember:
    case GroupOpStatus::kRevoked:
      return true;
  }
  return false;
}

// --- wire formats -------------------------------------------------------
// Group control messages ride the overlay MsgType space (kGroupOp..
// kGroupHandshake, overlay/messages.hpp) and use its codec (wire::encode /
// wire::parse); the rendezvous/relay layers only ever need the leading
// type byte (and, for relayed handshakes, the overlay::GroupRoute pair).

struct GroupOpMsg {
  static constexpr overlay::MsgType kType = overlay::MsgType::kGroupOp;
  std::uint64_t op_id{0};  // echoes back in the ack (retry matching)
  GroupOp op{GroupOp::kCreate};
  GroupId group{0};
  std::uint64_t actor{0};
  std::uint64_t target{0};  // invite/revoke subject; 0 otherwise
};
template <class Io>
bool fields(Io& io, GroupOpMsg& m) {
  return io(m.op_id, m.op, m.group, m.actor, m.target);
}

struct GroupOpAckMsg {
  static constexpr overlay::MsgType kType = overlay::MsgType::kGroupOpAck;
  std::uint64_t op_id{0};
  GroupOpStatus status{GroupOpStatus::kOk};
  GroupEpoch epoch;  // authoritative state after the op (when known)
};
template <class Io>
bool fields(Io& io, GroupOpAckMsg& m) {
  return io(m.op_id, m.status, m.epoch);
}

/// Member -> authority anti-entropy: "here is the version I hold for
/// each group I think I'm in" (version 0 = none yet).
struct GroupSyncMsg {
  static constexpr overlay::MsgType kType = overlay::MsgType::kGroupSync;
  std::uint64_t host{0};
  std::vector<std::pair<GroupId, std::uint64_t>> held;  // (group, version)
};
template <class Io>
bool fields(Io& io, GroupSyncMsg& m) {
  return io(m.host, wire::list<std::uint16_t>(m.held));
}

/// Authority -> member epoch push (also the sync reply, one per group
/// with news). Members ignore versions at or below what they hold.
struct GroupEpochMsg {
  static constexpr overlay::MsgType kType = overlay::MsgType::kGroupEpoch;
  GroupEpoch epoch;
};
template <class Io>
bool fields(Io& io, GroupEpochMsg& m) {
  return io(m.epoch);
}

/// Authority <-> authority eager post-write replication: full records
/// for every group the sender owns knowledge of. The same epochs ride the
/// shard-ping channel as an opaque payload (overlay::ShardPingMsg::payload).
struct GroupReplicateMsg {
  static constexpr overlay::MsgType kType = overlay::MsgType::kGroupReplicate;
  std::vector<GroupEpoch> epochs;
};
template <class Io>
bool fields(Io& io, GroupReplicateMsg& m) {
  return io(wire::list<std::uint16_t>(m.epochs));
}

/// Host <-> host modeled pair handshake for one group, riding the
/// punched tunnel socket: `round` counts the RTT exchanges; the
/// responder echoes the round until the configured count is reached.
/// (from, to) lead the body so a relay can route the message by its
/// overlay::GroupRoute alone.
struct GroupHandshakeMsg {
  static constexpr overlay::MsgType kType = overlay::MsgType::kGroupHandshake;
  std::uint64_t from_host{0};
  std::uint64_t to_host{0};
  GroupId group{0};
  std::uint32_t round{0};
  bool reply{false};
};
template <class Io>
bool fields(Io& io, GroupHandshakeMsg& m) {
  return io(m.from_host, m.to_host, m.group, m.round, m.reply);
}

// --- the per-frame gate -------------------------------------------------

/// The interface the WAV-Switch consults on its data path. Implemented
/// by vpg::GroupMember; kept abstract so wavnet/ depends only on this
/// header. All checks are against the member's *adopted* epochs — the
/// whole point is that isolation follows membership state, not wishes.
class GroupGate {
 public:
  virtual ~GroupGate() = default;

  /// May the local switch tunnel a group-`g` frame to `peer`? Requires a
  /// live membership on both ends of the pair and a completed handshake.
  [[nodiscard]] virtual bool egress_allowed(GroupId g, std::uint64_t peer) = 0;

  /// Accept a group-`g` frame arriving from `peer`? Same membership
  /// rules, judged by the receiver's own adopted epoch.
  [[nodiscard]] virtual bool ingress_allowed(GroupId g, std::uint64_t peer) = 0;

  /// Appends the groups a local broadcast/flood replicates into (the
  /// member's active memberships), sorted ascending.
  virtual void broadcast_groups(std::vector<GroupId>& out) = 0;

  /// Tripwire, called after a frame is accepted and handed to the local
  /// bridge: delivery across a membership the member has already adopted
  /// as revoked is an invariant violation, counted independently of the
  /// gate checks above so a gating bug cannot hide itself.
  virtual void note_delivered(GroupId g, std::uint64_t peer) = 0;
};

// --- --groups-out event log --------------------------------------------

/// Append-only collector behind the --groups-out export: membership
/// epochs, handshakes and revocation teardowns as one JSON object per
/// line, in event order (deterministic per seed — every timestamp is sim
/// time). Pure recording: attaching or detaching a log must not change
/// any behavior or any other export byte.
class GroupLog {
 public:
  struct Event {
    TimePoint at{};
    std::string kind;    // "op", "epoch_adopted", "handshake", ...
    std::string host;    // acting host/authority instance
    GroupId group{0};
    std::uint64_t version{0};
    std::uint64_t peer{0};    // subject host id (0 when n/a)
    std::string detail;       // kind-specific note ("revoke", "complete")
    double latency_ms{-1.0};  // handshake/teardown latency (-1 = n/a)
  };

  void record(Event event) { events_.push_back(std::move(event)); }
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }
  [[nodiscard]] std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Event> events_;
};

}  // namespace wav::vpg
