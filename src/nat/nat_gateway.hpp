// NAT/firewall gateway models.
//
// Implements the four NAT behaviours the paper (via STUN, RFC 3489
// terminology) distinguishes:
//   * Full Cone             — one mapping per (private ip, port); inbound
//                             allowed from any remote endpoint.
//   * Restricted Cone       — inbound allowed only from IPs the private
//                             host has previously sent to.
//   * Port-Restricted Cone  — inbound allowed only from exact ip:port
//                             pairs previously sent to.
//   * Symmetric             — a distinct public port per (private ip:port,
//                             remote ip:port) flow; inbound only from that
//                             exact remote. UDP hole punching fails here,
//                             which WAVNet detects via STUN and reports.
//
// Mappings expire after an idle timeout ("NAT can only maintain the
// connection state for a limited period of time", §II.B), which is what
// makes WAVNet's CONNECT_PULSE keepalive necessary.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fabric/node.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"

namespace wav::nat {

enum class NatType {
  kFullCone,
  kRestrictedCone,
  kPortRestrictedCone,
  kSymmetric,
  kOpenInternet,  // no translation: a host with a public IP
};

[[nodiscard]] const char* to_string(NatType t) noexcept;

/// True when `t` names an enumerator (a parse check on wire bytes).
[[nodiscard]] constexpr bool is_valid(NatType t) noexcept {
  switch (t) {
    case NatType::kFullCone:
    case NatType::kRestrictedCone:
    case NatType::kPortRestrictedCone:
    case NatType::kSymmetric:
    case NatType::kOpenInternet:
      return true;
  }
  return false;
}

/// True when RFC 5128-style UDP hole punching succeeds between two hosts
/// behind NATs of these types (at least one side must accept packets from
/// a remote whose source port was learned via the rendezvous server).
[[nodiscard]] bool hole_punch_compatible(NatType a, NatType b) noexcept;

struct NatConfig {
  NatType type{NatType::kPortRestrictedCone};
  Duration udp_binding_timeout{seconds(60)};
  Duration tcp_binding_timeout{seconds(300)};
  std::uint16_t port_range_begin{30000};
  std::uint16_t port_range_end{59999};
};

class NatGateway : public fabric::Node {
 public:
  NatGateway(fabric::Network& network, std::string name, NatConfig config);

  /// Marks the uplink interface; every other interface is a LAN port.
  /// Must be called after the network wires the links. Traffic between
  /// LAN ports is routed without translation (the site's internal LAN);
  /// LAN-to-WAN traffic is translated; unsolicited WAN traffic is
  /// filtered per the configured NAT type.
  void set_wan_interface(std::size_t index) {
    wan_iface_ = index;
    set_default_route(index);
  }

  [[nodiscard]] net::Ipv4Address public_ip() const {
    return interfaces()[wan_iface_].address;
  }
  [[nodiscard]] const NatConfig& config() const noexcept { return config_; }
  /// Packets that hit the gateway while it was crashed.
  [[nodiscard]] std::uint64_t dropped_down() const noexcept { return dropped_down_; }

  /// Number of live (non-expired) bindings right now.
  [[nodiscard]] std::size_t active_bindings() const;

  /// Drops every binding immediately (models NAT reboot; used by failure
  /// injection tests).
  void flush_bindings();

  /// Ungraceful power loss: bindings vanish AND the box stops forwarding
  /// until restart(). restart() models the reboot completing — the
  /// gateway forwards again, but with an empty translation table, which
  /// invalidates every established hole-punched path through it.
  void crash();
  void restart();
  [[nodiscard]] bool down() const noexcept { return down_; }

 protected:
  void forward(net::IpPacket pkt, fabric::Link& from) override;
  void deliver_local(const net::IpPacket& pkt, fabric::Link& from) override;

 private:
  struct FlowKey {
    net::Ipv4Address private_ip{};
    std::uint16_t private_port{0};
    std::uint8_t protocol{0};
    net::Endpoint remote{};  // meaningful for symmetric NAT only

    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept;
  };

  struct Binding {
    std::uint16_t public_port{0};
    net::Ipv4Address private_ip{};
    std::uint16_t private_port{0};
    std::uint8_t protocol{0};
    net::Endpoint symmetric_remote{};  // exact remote for symmetric NAT
    TimePoint last_used{};
    // Per-remote filter state with its own idle expiry: a cone mapping
    // may stay alive on unrelated traffic (e.g. rendezvous heartbeats),
    // but the permission to receive from a *specific* remote decays
    // unless the host keeps sending toward it — which is precisely why
    // WAVNet needs CONNECT_PULSE on every tunnel, not just any traffic.
    std::unordered_map<net::Ipv4Address, TimePoint> contacted_ips;
    std::unordered_map<net::Endpoint, TimePoint> contacted_endpoints;
  };

  [[nodiscard]] Duration timeout_for(std::uint8_t protocol) const noexcept;
  [[nodiscard]] bool is_expired(const Binding& b) const;
  void translate_outbound(net::IpPacket pkt);
  void translate_inbound(const net::IpPacket& pkt, fabric::Link& from);
  Binding* find_or_create_binding(const FlowKey& key);
  std::uint16_t allocate_public_port();
  void drop_expired();
  void note_flow_drop(const net::IpPacket& pkt, obs::DropReason reason);

  NatConfig config_;
  std::uint64_t dropped_down_{0};
  std::size_t wan_iface_{1};
  bool down_{false};

  std::unordered_map<FlowKey, std::uint16_t, FlowKeyHash> flow_to_port_;
  // Keyed by (public_port << 8 | protocol); ICMP uses the echo id as port.
  std::unordered_map<std::uint32_t, Binding> port_to_binding_;
  std::uint16_t next_port_;

  obs::Counter* c_translated_outbound_{nullptr};
  obs::Counter* c_translated_inbound_{nullptr};
  obs::Counter* c_blocked_inbound_{nullptr};
  obs::Counter* c_expired_bindings_{nullptr};
  obs::Counter* c_bindings_created_{nullptr};
  obs::Gauge* g_bindings_active_{nullptr};  // live translation table size

  void sync_binding_gauge();
};

/// Extracts the (src_port, dst_port) pair of any supported L4 body. ICMP
/// echo uses the identifier for both (how real NATs track ICMP flows).
struct L4Ports {
  std::uint16_t src{0};
  std::uint16_t dst{0};
};
[[nodiscard]] std::optional<L4Ports> l4_ports(const net::IpPacket& pkt) noexcept;

}  // namespace wav::nat
