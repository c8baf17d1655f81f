#include "overlay/messages.hpp"

namespace wav::overlay {

std::optional<MsgType> peek_type(const net::UdpDatagram& dgram) {
  if (dgram.encap() != nullptr) return MsgType::kData;
  const auto* chunk = dgram.chunk();
  if (chunk == nullptr || chunk->real.empty()) {
    // A virtual-only chunk of size 2 is a CONNECT_PULSE by convention
    // (the simulator does not materialize its bytes).
    if (chunk != nullptr && chunk->virtual_size == 2) return MsgType::kPulse;
    return std::nullopt;
  }
  const auto t = static_cast<std::uint8_t>(chunk->real[0]);
  if (t < 1 || t > static_cast<std::uint8_t>(MsgType::kGroupHandshake)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(t);
}

net::Chunk encode_pulse() {
  // Type tag + protocol version: 2 bytes on the wire.
  return net::Chunk::from_bytes(
      {static_cast<std::byte>(MsgType::kPulse), std::byte{1}});
}

}  // namespace wav::overlay
