// Wire formats of WAVNet's control plane:
//   host <-> rendezvous : register / heartbeat / resource query / connect
//   rendezvous <-> rendezvous : connect-notify forwarding (Fig. 3 step 2)
//   host <-> host : hole-punch probes, punch acks, and the 2-byte
//                   CONNECT_PULSE keepalive (§II.B)
// plus the data-plane type tag that lets tunneled Ethernet frames share
// the hole-punched UDP socket with control traffic.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "nat/nat_gateway.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"

namespace wav::overlay {

using HostId = std::uint64_t;

/// Everything a peer needs to reach a host: identity, endpoints learned
/// via the rendezvous layer, NAT class, resource attributes, and which
/// rendezvous server maintains the host (for connect brokering).
struct HostInfo {
  HostId host_id{0};
  std::string name;
  net::Endpoint public_endpoint{};   // NAT mapping observed by the rendezvous
  net::Endpoint private_endpoint{};  // host's own address (for same-NAT peers)
  nat::NatType nat_type{nat::NatType::kPortRestrictedCone};
  std::vector<double> attributes;    // normalized resource vector in [0,1]^d
  net::Endpoint rendezvous{};        // the server that maintains this host
};
/// Also the payload of the host's CAN record, where it travels without a
/// type byte (wire::bytes / wire::parse<HostInfo>).
template <class Io>
bool fields(Io& io, HostInfo& m) {
  return io(m.host_id, m.name, m.public_endpoint, m.private_endpoint, m.nat_type,
            wire::list<std::uint8_t>(m.attributes), m.rendezvous);
}

enum class MsgType : std::uint8_t {
  // host <-> rendezvous
  kRegister = 1,
  kRegisterAck,
  kDeregister,
  kHeartbeat,
  kQuery,
  kQueryReply,
  kConnectRequest,
  kConnectNotify,
  kConnectFail,
  // rendezvous <-> rendezvous
  kRvForwardNotify,
  // host <-> host (direct)
  kPunch,
  kPunchAck,
  kPulse,
  kData,  // tunneled Ethernet frame (EncapFrame payload, not a byte chunk)
  // host <-> relay (TURN-style fallback when punching cannot succeed)
  kRelayAllocate,
  kRelayAllocateAck,
  kRelayRelease,
  kRelayPulse,  // keepalive forwarded through the relay channel
  kRelayFlush,  // upgrade barrier: last message on the relayed path
  kRelayFlushAck,
  // rendezvous <-> rendezvous shard liveness (sharded registration fleet)
  kShardPing,
  kShardPong,
  // private groups (vpg/): bodies are encoded in vpg/group.hpp — the
  // overlay layer only ever inspects the type byte, plus the (from, to)
  // routing pair of a relayed kGroupHandshake (GroupRoute).
  kGroupOp,         // member -> authority membership operation
  kGroupOpAck,      // authority -> member op outcome + epoch
  kGroupSync,       // member -> authority anti-entropy (held versions)
  kGroupEpoch,      // authority -> member epoch push / sync reply
  kGroupReplicate,  // authority <-> authority eager record replication
  kGroupHandshake,  // host <-> host modeled pair handshake (may be relayed)
};

/// Extra wire bytes a relayed data frame carries compared to a direct
/// tunnel: the relay must see (src, dst) host ids to pick the channel.
/// Lives here (not in relay/) so the switch can bill the overhead
/// without depending on the relay module.
inline constexpr std::uint32_t kRelayEncapHeaderBytes = 12;

/// Reads the leading type byte of any overlay message.
[[nodiscard]] std::optional<MsgType> peek_type(const net::UdpDatagram& dgram);

// Each message is encoded with wire::encode(m) and parsed with
// wire::parse<M>(chunk) through its one field list (net/wire.hpp).

struct RegisterMsg {
  static constexpr MsgType kType = MsgType::kRegister;
  HostInfo info;
};
template <class Io>
bool fields(Io& io, RegisterMsg& m) {
  return io(m.info);
}

struct RegisterAckMsg {
  static constexpr MsgType kType = MsgType::kRegisterAck;
  bool ok{false};
  net::Endpoint observed{};  // server-reflexive endpoint of the host
  std::vector<net::Endpoint> relays;  // relay servers this rendezvous advertises
};
template <class Io>
bool fields(Io& io, RegisterAckMsg& m) {
  return io(m.ok, m.observed, wire::list<std::uint8_t>(m.relays));
}

struct DeregisterMsg {
  static constexpr MsgType kType = MsgType::kDeregister;
  HostId host_id{0};
};
template <class Io>
bool fields(Io& io, DeregisterMsg& m) {
  return io(m.host_id);
}

struct HeartbeatMsg {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  HostId host_id{0};
};
template <class Io>
bool fields(Io& io, HeartbeatMsg& m) {
  return io(m.host_id);
}

struct QueryMsg {
  static constexpr MsgType kType = MsgType::kQuery;
  std::uint64_t query_id{0};
  std::vector<double> target;  // desired attribute point
  std::uint16_t k{1};
};
template <class Io>
bool fields(Io& io, QueryMsg& m) {
  return io(m.query_id, wire::list<std::uint8_t>(m.target), m.k);
}

struct QueryReplyMsg {
  static constexpr MsgType kType = MsgType::kQueryReply;
  std::uint64_t query_id{0};
  std::vector<HostInfo> hosts;
};
template <class Io>
bool fields(Io& io, QueryReplyMsg& m) {
  return io(m.query_id, wire::list<std::uint16_t>(m.hosts));
}

struct ConnectRequestMsg {
  static constexpr MsgType kType = MsgType::kConnectRequest;
  std::uint64_t request_id{0};
  HostInfo requester;  // full info so the peer can punch back
  HostId target{0};
  net::Endpoint target_rendezvous{};
};
template <class Io>
bool fields(Io& io, ConnectRequestMsg& m) {
  return io(m.request_id, m.requester, m.target, m.target_rendezvous);
}

struct ConnectNotifyMsg {
  static constexpr MsgType kType = MsgType::kConnectNotify;
  std::uint64_t request_id{0};
  HostInfo peer;
};
template <class Io>
bool fields(Io& io, ConnectNotifyMsg& m) {
  return io(m.request_id, m.peer);
}

struct ConnectFailMsg {
  static constexpr MsgType kType = MsgType::kConnectFail;
  std::uint64_t request_id{0};
  std::string reason;
};
template <class Io>
bool fields(Io& io, ConnectFailMsg& m) {
  return io(m.request_id, m.reason);
}

struct RvForwardNotifyMsg {
  static constexpr MsgType kType = MsgType::kRvForwardNotify;
  std::uint64_t request_id{0};
  HostInfo requester;
  HostId target{0};
};
template <class Io>
bool fields(Io& io, RvForwardNotifyMsg& m) {
  return io(m.request_id, m.requester, m.target);
}

struct PunchMsg {
  static constexpr MsgType kType = MsgType::kPunch;
  HostId from_host{0};
  std::uint64_t nonce{0};
};
template <class Io>
bool fields(Io& io, PunchMsg& m) {
  return io(m.from_host, m.nonce);
}

struct PunchAckMsg {
  static constexpr MsgType kType = MsgType::kPunchAck;
  HostId from_host{0};
  std::uint64_t nonce{0};
};
template <class Io>
bool fields(Io& io, PunchAckMsg& m) {
  return io(m.from_host, m.nonce);
}

/// Also doubles as the channel refresh keepalive (re-binds the sender's
/// side; the relay treats an allocate for an existing pair as a refresh).
struct RelayAllocateMsg {
  static constexpr MsgType kType = MsgType::kRelayAllocate;
  HostId from_host{0};
  HostId to_host{0};
};
template <class Io>
bool fields(Io& io, RelayAllocateMsg& m) {
  return io(m.from_host, m.to_host);
}

struct RelayAllocateAckMsg {
  static constexpr MsgType kType = MsgType::kRelayAllocateAck;
  HostId peer{0};  // the to_host of the allocate this acks
  bool ok{false};
  bool peer_bound{false};  // true once the other side has bound too
  std::string reason;      // non-empty on ok=false (e.g. "capacity")
};
template <class Io>
bool fields(Io& io, RelayAllocateAckMsg& m) {
  return io(m.peer, m.ok, m.peer_bound, m.reason);
}

struct RelayReleaseMsg {
  static constexpr MsgType kType = MsgType::kRelayRelease;
  HostId from_host{0};
  HostId to_host{0};
};
template <class Io>
bool fields(Io& io, RelayReleaseMsg& m) {
  return io(m.from_host, m.to_host);
}

/// End-to-end keepalive forwarded through the relay (the 2-byte pulse
/// cannot ride a relay: the channel needs the pair addressing).
struct RelayPulseMsg {
  static constexpr MsgType kType = MsgType::kRelayPulse;
  HostId from_host{0};
  HostId to_host{0};
};
template <class Io>
bool fields(Io& io, RelayPulseMsg& m) {
  return io(m.from_host, m.to_host);
}

/// Upgrade barrier. Sent via the relay as the last relayed message, so
/// FIFO delivery guarantees every in-flight relayed frame precedes it.
struct RelayFlushMsg {
  static constexpr MsgType kType = MsgType::kRelayFlush;
  HostId from_host{0};
  HostId to_host{0};
  std::uint64_t nonce{0};
};
template <class Io>
bool fields(Io& io, RelayFlushMsg& m) {
  return io(m.from_host, m.to_host, m.nonce);
}

struct RelayFlushAckMsg {
  static constexpr MsgType kType = MsgType::kRelayFlushAck;
  HostId from_host{0};
  std::uint64_t nonce{0};
};
template <class Io>
bool fields(Io& io, RelayFlushAckMsg& m) {
  return io(m.from_host, m.nonce);
}

/// Shard liveness probe between rendezvous peers. Carries the sender's
/// registered-host count so peers can export a fleet-wide gauge without a
/// second exchange.
struct ShardPingMsg {
  static constexpr MsgType kType = MsgType::kShardPing;
  net::Endpoint from{};  // sender's host-facing endpoint (fleet identity)
  std::uint32_t registered_hosts{0};
  // Opaque piggyback for co-hosted services (the group authority
  // replicates its records here). An empty payload adds no bytes, so the
  // wire stays byte-identical for fleets without such services.
  ByteBuffer payload;
};
template <class Io>
bool fields(Io& io, ShardPingMsg& m) {
  return io(m.from, m.registered_hosts, wire::rest(m.payload));
}

struct ShardPongMsg {
  static constexpr MsgType kType = MsgType::kShardPong;
  net::Endpoint from{};
  std::uint32_t registered_hosts{0};
  ByteBuffer payload;
};
template <class Io>
bool fields(Io& io, ShardPongMsg& m) {
  return io(m.from, m.registered_hosts, wire::rest(m.payload));
}

/// The lightweight keepalive: exactly two bytes on the wire (type tag +
/// version byte), as the paper describes.
[[nodiscard]] net::Chunk encode_pulse();

/// The (from, to) host pair leading every kGroupHandshake body, parsed
/// on its own so a relay can forward the message over the right channel
/// without understanding the rest (which is vpg's business).
struct GroupRoute {
  static constexpr MsgType kType = MsgType::kGroupHandshake;
  HostId from_host{0};
  HostId to_host{0};
};
template <class Io>
bool fields(Io& io, GroupRoute& m) {
  return io(m.from_host, m.to_host);
}

}  // namespace wav::overlay
