// The control-plane owner of private-group lifecycle, co-hosted on a
// rendezvous shard (the paper's public-IP tier is the only place a
// membership service can live: every NATed member can always reach it).
//
// One authority instance runs per rendezvous shard. Members hash-home
// their operations to one authority and ring-walk on timeout; writes
// bump the group's epoch version and propagate three ways:
//   1. eager kGroupReplicate to the sibling authorities,
//   2. periodic full-state piggyback on the rendezvous shard-ping
//      channel (survives the eager push being lost),
//   3. the epoch record is stored as a CAN resource at a point derived
//      from the GroupId, so a restarted (or ignorant) authority can
//      recover any group it is asked about even when every sibling that
//      knew it is down.
// Merging is last-writer-wins on the version number, which is safe
// because members route each group's writes to its home authority.
//
// Revocation intentionally excludes the revoked host from the epoch
// push: the revoked member only learns of its fate via its next sync,
// and in that window its frames arrive at survivors whose adopted epoch
// already bans them — the typed group_isolation drops the benches watch.
#pragma once

#include <map>

#include "overlay/rendezvous.hpp"
#include "vpg/group.hpp"

namespace wav::vpg {

class GroupAuthority {
 public:
  struct Config {
    std::uint16_t port{5400};
    /// Sibling authority endpoints (same fleet, other shards) for eager
    /// post-write replication.
    std::vector<net::Endpoint> peers{};
    /// Epoch records re-stored into CAN on this cadence with this TTL,
    /// so records of a dead fleet age out instead of going stale.
    Duration can_refresh{seconds(20)};
    Duration can_ttl{seconds(90)};
    std::string metrics_instance{};
  };

  explicit GroupAuthority(overlay::RendezvousServer& rv);
  GroupAuthority(overlay::RendezvousServer& rv, Config config);

  [[nodiscard]] net::Endpoint endpoint() const {
    return {rv_.host_endpoint().ip, config_.port};
  }

  /// Attaches the --groups-out event collector (nullptr detaches).
  void set_log(GroupLog* log) noexcept { log_ = log; }

  /// Chaos lifecycle, driven alongside the co-hosting rendezvous shard's
  /// own crash/restart: a crash loses every record; recovery arrives via
  /// sibling shard-ping payloads and on-demand CAN lookups.
  void crash();
  void restart();
  [[nodiscard]] bool down() const noexcept { return down_; }

  [[nodiscard]] const GroupEpoch* record(GroupId group) const;
  [[nodiscard]] std::size_t group_count() const noexcept { return records_.size(); }

 private:
  void on_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  void handle_op(const net::Endpoint& from, const GroupOpMsg& msg);
  void handle_sync(const net::Endpoint& from, const GroupSyncMsg& msg);
  /// Applies the op to the group's record. Returns the outcome; on kOk
  /// the record's version has been bumped.
  GroupOpStatus apply(const GroupOpMsg& msg);
  /// Pushes the epoch to every member/invitee endpoint we know, except
  /// `exclude` (the freshly revoked host — see the header comment).
  void push_epoch(const GroupEpoch& epoch, std::uint64_t exclude);
  /// Version-max merge of a replicated or CAN-recovered record.
  void merge(const GroupEpoch& epoch, const char* source);
  void store_in_can(const GroupEpoch& epoch);
  void recover_from_can(GroupId group);
  void can_refresh_tick();
  [[nodiscard]] can::Point can_point(GroupId group) const;
  [[nodiscard]] ByteBuffer replication_payload() const;
  void absorb_payload(const ByteBuffer& payload);
  [[nodiscard]] std::string instance() const;

  overlay::RendezvousServer& rv_;
  Config config_;
  stack::UdpSocket socket_;
  bool down_{false};
  GroupLog* log_{nullptr};

  // std::map keeps replication payloads and CAN refresh order (and thus
  // every downstream export) deterministic.
  std::map<GroupId, GroupEpoch> records_;
  std::map<std::uint64_t, net::Endpoint> member_endpoints_;
  sim::PeriodicTimer can_refresh_timer_;

  obs::Counter* c_ops_applied_{nullptr};
  obs::Counter* c_ops_rejected_{nullptr};
  obs::Counter* c_epochs_pushed_{nullptr};
  obs::Counter* c_replicas_merged_{nullptr};
  obs::Counter* c_can_recoveries_{nullptr};
  obs::Gauge* g_groups_{nullptr};
};

}  // namespace wav::vpg
