// The host-side half of the private-group subsystem: one GroupMember
// rides next to each HostAgent, owning the host's adopted membership
// epochs, its authority conversations (ops + anti-entropy sync), and the
// modeled per-pair handshake that gates every group tunnel.
//
// The member implements GroupGate, so the WAV-Switch consults it on the
// per-frame path: a gate for (group, peer) is open only while
//   * the member's *adopted* epoch lists both ends as members, and
//   * the pair handshake for that group has completed, and
//   * the HostAgent actually holds an established link to the peer.
// Adopting an epoch that bans a peer (revocation, leave) closes the
// gates synchronously and fires the on_gate_closed callback (wired to
// the switch's group-scoped FDB purge) — that teardown latency, measured
// from the authority's mutation stamp, is vpg.revoke_teardown_ms. The
// banned host itself additionally drops the physical link once it
// converges (when no other shared group still needs it); survivors keep
// the tunnel and let their ingress gates reject the peer's blind-window
// frames with the typed group_isolation reason.
//
// The handshake models the CPU + RTT tax of pairwise key agreement
// (no real crypto): the lower host id initiates, each message costs
// handshake_cpu before it is sent, and the pair exchanges
// handshake_rounds round trips over the established tunnel
// (HostAgent::send_group_ctrl — direct or relayed, whatever the ladder
// produced). Completion latency lands in vpg.handshake_ms.
#pragma once

#include <map>

#include "overlay/host_agent.hpp"
#include "vpg/group.hpp"

namespace wav::vpg {

class GroupMember : public GroupGate {
 public:
  struct Config {
    std::uint16_t port{7900};
    /// Authority endpoints across the fleet. Ops and syncs hash-home to
    /// authorities[h(group) % N] and ring-walk on timeout.
    std::vector<net::Endpoint> authorities{};
    Duration sync_interval{seconds(5)};
    Duration op_timeout{seconds(2)};
    std::uint32_t op_retries{6};
    std::uint32_t handshake_rounds{2};
    Duration handshake_cpu{milliseconds(2)};
    /// A handshake with no progress for this long restarts from round 1
    /// on the next sync tick (covers chunks lost to churn mid-exchange).
    Duration handshake_stale{seconds(3)};
    std::string metrics_instance{};
  };

  using OpHandler = std::function<void(bool ok, GroupOpStatus status)>;
  using GateClosedHandler = std::function<void(GroupId group, std::uint64_t peer)>;

  GroupMember(overlay::HostAgent& agent, Config config);

  void set_log(GroupLog* log) noexcept { log_ = log; }
  /// Fired when a previously open gate closes for membership reasons
  /// (not mere link loss); the switch purges its group FDB entries here.
  void on_gate_closed(GateClosedHandler handler) {
    on_gate_closed_ = std::move(handler);
  }

  // --- membership operations (sent to the group's home authority) ---
  void create_group(GroupId group, OpHandler handler = {});
  void invite(GroupId group, std::uint64_t target, OpHandler handler = {});
  void join(GroupId group, OpHandler handler = {});
  void leave(GroupId group, OpHandler handler = {});
  void revoke(GroupId group, std::uint64_t target, OpHandler handler = {});

  [[nodiscard]] const GroupEpoch* adopted(GroupId group) const;
  /// Groups whose adopted epoch lists this host as a member (sorted).
  [[nodiscard]] std::vector<GroupId> active_groups() const;
  [[nodiscard]] bool gate_open(GroupId group, std::uint64_t peer) const;

  // --- GroupGate (the switch's per-frame checks) ---
  [[nodiscard]] bool egress_allowed(GroupId g, std::uint64_t peer) override;
  [[nodiscard]] bool ingress_allowed(GroupId g, std::uint64_t peer) override;
  void broadcast_groups(std::vector<GroupId>& out) override;
  void note_delivered(GroupId g, std::uint64_t peer) override;

  /// Deliveries across an adopted-revoked membership (the tripwire) plus
  /// any handshake still marked done for a revoked pair — both must be
  /// zero; the chaos InvariantChecker sums this across the fleet.
  [[nodiscard]] std::uint64_t invariant_violations() const;
  [[nodiscard]] std::uint64_t revoked_deliveries() const noexcept {
    return c_revoked_deliveries_->value();
  }

  [[nodiscard]] std::uint64_t id() const noexcept { return agent_.id(); }
  [[nodiscard]] overlay::HostAgent& agent() noexcept { return agent_; }

 private:
  struct Handshake {
    enum class State : std::uint8_t { kIdle, kRunning, kDone };
    State state{State::kIdle};
    std::uint32_t round{0};
    bool initiator{false};
    TimePoint started{};
    TimePoint last_activity{};
  };
  struct PendingOp {
    GroupOpMsg msg;
    OpHandler handler;
    std::uint32_t attempts{0};
    std::size_t cursor{0};  // ring-walk offset over authorities
    std::uint64_t epoch{0};  // retires stale timeout events
  };
  using PairKey = std::pair<GroupId, std::uint64_t>;

  void send_op(GroupOp op, GroupId group, std::uint64_t target, OpHandler handler);
  void transmit_op(std::uint64_t op_id);
  void op_expired(std::uint64_t op_id, std::uint64_t epoch);
  [[nodiscard]] net::Endpoint authority_for(GroupId group, std::size_t cursor) const;
  void on_authority_datagram(const net::Endpoint& from, const net::UdpDatagram& dgram);
  void on_group_ctrl(std::uint64_t from, const net::Chunk& chunk);
  void adopt(const GroupEpoch& epoch);
  /// Closes the (group, peer) gate for membership reasons; fires the
  /// purge callback if the gate was open, measures teardown when the
  /// epoch change was a revocation, and — only when this host is the
  /// banned end — drops the physical link when no other shared group
  /// still rides it.
  void close_gate(GroupId group, std::uint64_t peer, const GroupEpoch& cause,
                  bool revocation);
  [[nodiscard]] bool shares_any_group(std::uint64_t peer) const;
  void sync_tick();
  void kick_handshakes();
  void kick_handshakes_with(std::uint64_t peer);
  void start_handshake(GroupId group, std::uint64_t peer);
  void send_handshake(GroupId group, std::uint64_t peer, std::uint32_t round,
                      bool reply);
  void handle_handshake(std::uint64_t from, const GroupHandshakeMsg& msg);
  void complete_handshake(GroupId group, std::uint64_t peer, Handshake& hs);
  [[nodiscard]] std::string instance() const;

  overlay::HostAgent& agent_;
  Config config_;
  stack::UdpSocket socket_;
  GroupLog* log_{nullptr};
  GateClosedHandler on_gate_closed_;

  std::map<GroupId, GroupEpoch> epochs_;  // adopted state, by group
  std::map<PairKey, Handshake> handshakes_;
  std::map<std::uint64_t, PendingOp> pending_ops_;
  std::uint64_t next_op_id_{1};
  sim::PeriodicTimer sync_timer_;

  obs::Counter* c_ops_sent_{nullptr};
  obs::Counter* c_ops_failed_{nullptr};
  obs::Counter* c_epochs_adopted_{nullptr};
  obs::Counter* c_handshakes_started_{nullptr};
  obs::Counter* c_handshakes_completed_{nullptr};
  obs::Counter* c_gates_closed_{nullptr};
  obs::Counter* c_revoked_deliveries_{nullptr};
  obs::Histogram* h_handshake_ms_{nullptr};
  obs::Histogram* h_revoke_teardown_ms_{nullptr};
};

}  // namespace wav::vpg
