// Control-plane wire formats. Every message on the shared field-list
// codec (net/wire.hpp) must produce the exact bytes below, parse back to
// the same bytes, and refuse every truncation; enum bytes that name no
// enumerator fail the parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>

#include "overlay/messages.hpp"
#include "stun/stun.hpp"
#include "vpg/group.hpp"
#include "wavnet/dhcp.hpp"

namespace wav {
namespace {

std::string hex(std::span<const std::byte> bytes) {
  std::string out;
  char buf[3];
  for (const std::byte b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", static_cast<unsigned>(b));
    out += buf;
  }
  return out;
}

ByteBuffer unhex(const std::string& s) {
  ByteBuffer out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    out.push_back(static_cast<std::byte>(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return out;
}

net::Endpoint ep(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d,
                 std::uint16_t port) {
  return {net::Ipv4Address::from_octets(a, b, c, d), port};
}

overlay::HostInfo host() {
  overlay::HostInfo h;
  h.host_id = 0x0102030405060708ULL;
  h.name = "h1";
  h.public_endpoint = ep(100, 64, 0, 1, 40001);
  h.private_endpoint = ep(192, 168, 1, 2, 5000);
  h.nat_type = nat::NatType::kSymmetric;
  h.attributes = {0.5, 0.25};
  h.rendezvous = ep(100, 66, 0, 1, 7000);
  return h;
}

// host(): id | name "h1" | public | private | nat | 2 attributes | rendezvous
const std::string kHost =
    "0102030405060708" "00026831" "644000019c41" "c0a801021388" "03"
    "02" "3fe0000000000000" "3fd0000000000000" "644200011b58";

vpg::GroupEpoch epoch() {
  vpg::GroupEpoch e;
  e.group = 5;
  e.version = 6;
  e.changed_at = TimePoint{milliseconds(1500)};
  e.members = {1, 2};
  e.invited = {3};
  return e;
}

// epoch(): group | version | changed_at ns | 2 members | 1 invited | 0 revoked
const std::string kEpoch =
    "00000005" "0000000000000006" "0000000059682f00"
    "0002" "0000000000000001" "0000000000000002" "0001" "0000000000000003" "0000";

/// Asserts m's exact bytes, that parsing and re-encoding reproduces them,
/// and that every prefix shorter than `fixed` bytes (default: every
/// proper prefix) fails to parse.
template <class M>
void expect_wire(const M& m, const std::string& want,
                 std::size_t fixed = std::string::npos) {
  const ByteBuffer bytes = wire::bytes(m);
  EXPECT_EQ(hex(bytes), want);
  EXPECT_EQ(hex(wire::encode(m).real), want);
  const auto parsed = wire::parse<M>(net::Chunk::from_bytes(bytes));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(hex(wire::bytes(*parsed)), want);
  const std::span<const std::byte> all{bytes};
  for (std::size_t n = 0; n < std::min(fixed, bytes.size()); ++n) {
    EXPECT_FALSE(wire::parse<M>(all.first(n))) << n << "-byte prefix parsed";
  }
}

TEST(Wire, HostRecord) { expect_wire(host(), kHost); }

TEST(Wire, RendezvousMessages) {
  using namespace overlay;
  expect_wire(RegisterMsg{host()}, "01" + kHost);
  expect_wire(RegisterAckMsg{true, ep(100, 64, 0, 1, 40001),
                             {ep(100, 67, 0, 1, 3478), ep(100, 67, 0, 2, 3479)}},
              "02" "01" "644000019c41" "02" "644300010d96" "644300020d97");
  expect_wire(DeregisterMsg{7}, "03" "0000000000000007");
  expect_wire(HeartbeatMsg{8}, "04" "0000000000000008");
  expect_wire(QueryMsg{9, {0.5, 0.75}, 4},
              "05" "0000000000000009" "02" "3fe0000000000000" "3fe8000000000000" "0004");
  expect_wire(QueryReplyMsg{10, {host(), host()}},
              "06" "000000000000000a" "0002" + kHost + kHost);
  expect_wire(ConnectRequestMsg{11, host(), 12, ep(100, 66, 0, 2, 7000)},
              "07" "000000000000000b" + kHost + "000000000000000c" "644200021b58");
  expect_wire(ConnectNotifyMsg{13, host()}, "08" "000000000000000d" + kHost);
  expect_wire(ConnectFailMsg{14, "unknown"},
              "09" "000000000000000e" "0007" "756e6b6e6f776e");
  expect_wire(RvForwardNotifyMsg{15, host(), 16},
              "0a" "000000000000000f" + kHost + "0000000000000010");
}

TEST(Wire, PunchAndRelayMessages) {
  using namespace overlay;
  expect_wire(PunchMsg{17, 18}, "0b" "0000000000000011" "0000000000000012");
  expect_wire(PunchAckMsg{19, 20}, "0c" "0000000000000013" "0000000000000014");
  expect_wire(RelayAllocateMsg{21, 22}, "0f" "0000000000000015" "0000000000000016");
  expect_wire(RelayAllocateAckMsg{23, false, true, "capacity"},
              "10" "0000000000000017" "00" "01" "0008" "6361706163697479");
  expect_wire(RelayReleaseMsg{24, 25}, "11" "0000000000000018" "0000000000000019");
  expect_wire(RelayPulseMsg{26, 27}, "12" "000000000000001a" "000000000000001b");
  expect_wire(RelayFlushMsg{28, 29, 30},
              "13" "000000000000001c" "000000000000001d" "000000000000001e");
  expect_wire(RelayFlushAckMsg{31, 32}, "14" "000000000000001f" "0000000000000020");
  EXPECT_EQ(hex(encode_pulse().real), "0d01");
}

TEST(Wire, ShardPingAppendsItsPayloadOnlyWhenPresent) {
  using namespace overlay;
  // type | endpoint | registered hosts: 11 fixed bytes, then the payload.
  constexpr std::size_t kFixed = 11;
  expect_wire(ShardPingMsg{ep(100, 66, 0, 3, 7000), 33, {std::byte{0xAB}, std::byte{0xCD}}},
              "15" "644200031b58" "00000021" "abcd", kFixed);
  expect_wire(ShardPingMsg{ep(100, 66, 0, 3, 7000), 34, {}},
              "15" "644200031b58" "00000022", kFixed);
  expect_wire(ShardPongMsg{ep(100, 66, 0, 4, 7000), 35, {std::byte{0x01}}},
              "16" "644200041b58" "00000023" "01", kFixed);
}

TEST(Wire, GroupEpochRecord) { expect_wire(epoch(), kEpoch); }

TEST(Wire, GroupMessages) {
  using namespace vpg;
  expect_wire(GroupOpMsg{36, GroupOp::kInvite, 5, 1, 3},
              "17" "0000000000000024" "02" "00000005" "0000000000000001"
              "0000000000000003");
  expect_wire(GroupOpAckMsg{37, GroupOpStatus::kNotInvited, epoch()},
              "18" "0000000000000025" "03" + kEpoch);
  expect_wire(GroupSyncMsg{38, {{5, 6}, {7, 8}}},
              "19" "0000000000000026" "0002" "00000005" "0000000000000006"
              "00000007" "0000000000000008");
  expect_wire(GroupEpochMsg{epoch()}, "1a" + kEpoch);
  GroupEpoch other = epoch();
  other.group = 9;
  other.version = 1;
  other.members = {4};
  other.invited = {};
  other.revoked = {2};
  expect_wire(GroupReplicateMsg{{epoch(), other}},
              "1b" "0002" + kEpoch + "00000009" "0000000000000001" "0000000059682f00"
              "0001" "0000000000000004" "0000" "0001" "0000000000000002");
  expect_wire(GroupHandshakeMsg{39, 40, 5, 2, true},
              "1c" "0000000000000027" "0000000000000028" "00000005" "00000002" "01");
}

TEST(Wire, GroupRouteReadsTheHandshakePrefix) {
  expect_wire(overlay::GroupRoute{39, 40},
              "1c" "0000000000000027" "0000000000000028");
  const net::Chunk handshake = wire::encode(vpg::GroupHandshakeMsg{39, 40, 5, 2, true});
  const auto route = wire::parse<overlay::GroupRoute>(handshake);
  ASSERT_TRUE(route);
  EXPECT_EQ(route->from_host, 39u);
  EXPECT_EQ(route->to_host, 40u);
}

TEST(Wire, DhcpAndStunResponse) {
  wavnet::DhcpMessage dhcp;
  dhcp.type = wavnet::DhcpMessageType::kAck;
  dhcp.xid = 0xDEADBEEF;
  dhcp.client_mac = net::MacAddress{{0x02, 0x00, 0x00, 0x00, 0x00, 0x07}};
  dhcp.your_ip = net::Ipv4Address::from_octets(10, 0, 0, 50);
  dhcp.server_ip = net::Ipv4Address::from_octets(10, 0, 0, 1);
  dhcp.lease_seconds = 3600;
  expect_wire(dhcp, "05" "deadbeef" "020000000007" "0a000032" "0a000001" "00000e10");
  expect_wire(stun::BindingResponse{0x01020304, ep(100, 64, 0, 9, 30001)},
              "02" "01020304" "644000097531");
}

TEST(Wire, WrongTypeByteFailsAndTrailingBytesAreIgnored) {
  ByteBuffer bytes = wire::bytes(overlay::PunchMsg{17, 18});
  EXPECT_FALSE(wire::parse<overlay::PunchAckMsg>(std::span<const std::byte>{bytes}));
  bytes.push_back(std::byte{0xEE});
  const auto punch = wire::parse<overlay::PunchMsg>(std::span<const std::byte>{bytes});
  ASSERT_TRUE(punch);
  EXPECT_EQ(punch->nonce, 18u);
}

/// Parses `want` with its byte at `offset` replaced by `value`.
template <class M>
bool parses_with(const std::string& want, std::size_t offset, std::uint8_t value) {
  ByteBuffer bytes = unhex(want);
  bytes.at(offset) = static_cast<std::byte>(value);
  return wire::parse<M>(std::span<const std::byte>{bytes}).has_value();
}

TEST(Wire, UnknownNatTypeFailsTheParse) {
  constexpr std::size_t kNat = 24;  // after id, name, public and private
  EXPECT_TRUE(parses_with<overlay::HostInfo>(kHost, kNat, 4));   // open internet
  EXPECT_FALSE(parses_with<overlay::HostInfo>(kHost, kNat, 5));
  EXPECT_FALSE(parses_with<overlay::RegisterMsg>("01" + kHost, kNat + 1, 0xFF));
}

TEST(Wire, UnknownGroupOpOrStatusFailsTheParse) {
  const std::string op =
      "17" "0000000000000024" "02" "00000005" "0000000000000001" "0000000000000003";
  constexpr std::size_t kEnum = 9;  // after type and op id
  EXPECT_FALSE(parses_with<vpg::GroupOpMsg>(op, kEnum, 0));
  EXPECT_TRUE(parses_with<vpg::GroupOpMsg>(op, kEnum, 5));  // revoke
  EXPECT_FALSE(parses_with<vpg::GroupOpMsg>(op, kEnum, 6));
  const std::string ack = "18" "0000000000000025" "03" + kEpoch;
  EXPECT_TRUE(parses_with<vpg::GroupOpAckMsg>(ack, kEnum, 5));  // revoked
  EXPECT_FALSE(parses_with<vpg::GroupOpAckMsg>(ack, kEnum, 6));
}

TEST(Wire, UnknownDhcpTypeFailsTheParse) {
  const std::string dhcp = "05" "deadbeef" "020000000007" "0a000032" "0a000001" "00000e10";
  for (const std::uint8_t type : std::initializer_list<std::uint8_t>{1, 2, 3, 5, 6}) {
    EXPECT_TRUE(parses_with<wavnet::DhcpMessage>(dhcp, 0, type)) << int{type};
  }
  // 4 sits inside the valid range, so only a per-enumerator check rejects it.
  for (const std::uint8_t type : std::initializer_list<std::uint8_t>{0, 4, 7, 0xFF}) {
    EXPECT_FALSE(parses_with<wavnet::DhcpMessage>(dhcp, 0, type)) << int{type};
  }
}

TEST(Wire, ForgedCountReservesNoMoreThanTheBytesLeft) {
  // 65535 epochs announced, 10 bytes follow.
  const ByteBuffer bytes = unhex("1b" "ffff" "00000005" "000000000000");
  std::vector<vpg::GroupEpoch> epochs;
  wire::Reader r{std::span<const std::byte>{bytes}.subspan(1)};
  EXPECT_FALSE(r(wire::list<std::uint16_t>(epochs)));
  EXPECT_LE(epochs.capacity(), 10u);
  EXPECT_FALSE(wire::parse<vpg::GroupReplicateMsg>(std::span<const std::byte>{bytes}));
}

}  // namespace
}  // namespace wav
