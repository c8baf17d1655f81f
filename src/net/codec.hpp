// Real on-wire codecs for the protocol headers modeled in packet.hpp.
//
// The simulator carries structured packets between nodes for speed, but
// the formats are not hand-waved: every header has an exact big-endian
// byte layout here, exercised by the codec unit tests and the packet-path
// micro-benchmark; nothing in the simulated data path calls it (the
// WAVNet tunnel carries structured frames). IPv4 and ICMP checksums
// follow RFC 1071.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "net/packet.hpp"

namespace wav::net {

/// Fixed header fields parsed from an IPv4 header (no options).
struct Ipv4HeaderFields {
  std::uint8_t ttl{0};
  std::uint8_t protocol{0};
  std::uint16_t total_length{0};
  std::uint16_t identification{0};
  Ipv4Address src{};
  Ipv4Address dst{};
  bool checksum_ok{false};
};

/// Appends a 20-byte IPv4 header (version 4, IHL 5, DF set, checksum
/// computed over the header).
void encode_ipv4_header(ByteBuffer& out, Ipv4Address src, Ipv4Address dst,
                        std::uint8_t protocol, std::uint8_t ttl, std::uint16_t total_length,
                        std::uint16_t identification = 0);
[[nodiscard]] std::optional<Ipv4HeaderFields> parse_ipv4_header(ByteReader& in);

void encode_udp_header(ByteBuffer& out, std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint16_t length);
struct UdpHeaderFields {
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint16_t length{0};
};
[[nodiscard]] std::optional<UdpHeaderFields> parse_udp_header(ByteReader& in);

void encode_tcp_header(ByteBuffer& out, const TcpSegment& seg);
struct TcpHeaderFields {
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint32_t seq{0};
  std::uint32_t ack{0};
  TcpFlags flags;
  std::uint16_t window{0};
};
[[nodiscard]] std::optional<TcpHeaderFields> parse_tcp_header(ByteReader& in);

/// Encodes an ICMP echo message; payload must be real bytes (callers
/// serialize virtual payloads by size accounting only).
void encode_icmp(ByteBuffer& out, const IcmpMessage& msg);
[[nodiscard]] std::optional<IcmpMessage> parse_icmp(ByteReader& in, std::size_t body_length);

void encode_arp(ByteBuffer& out, const ArpMessage& arp);
[[nodiscard]] std::optional<ArpMessage> parse_arp(ByteReader& in);

void encode_ethernet_header(ByteBuffer& out, const EthernetFrame& frame);
struct EthernetHeaderFields {
  MacAddress dst{};
  MacAddress src{};
  std::uint16_t ethertype{0};
};
[[nodiscard]] std::optional<EthernetHeaderFields> parse_ethernet_header(ByteReader& in);

/// Serializes an entire frame when all nested payloads are real bytes;
/// returns nullopt if any virtual chunk is present (virtual payloads only
/// exist inside the simulator, never on a byte wire).
[[nodiscard]] std::optional<ByteBuffer> serialize_frame(const EthernetFrame& frame);

/// Parses a byte buffer produced by serialize_frame back into a
/// structured frame (IP/ARP payloads re-nested).
[[nodiscard]] std::optional<EthernetFrame> parse_frame(std::span<const std::byte> wire);

}  // namespace wav::net
