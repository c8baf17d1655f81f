// One field list per control message.
//
// A control message is a struct that names its type byte and lists its
// wire fields once, in wire order:
//
//   struct PunchMsg {
//     static constexpr MsgType kType = MsgType::kPunch;
//     HostId from_host{0};
//     std::uint64_t nonce{0};
//   };
//   template <class Io>
//   bool fields(Io& io, PunchMsg& m) { return io(m.from_host, m.nonce); }
//
// wire::Writer and wire::Reader both walk that list, so the encoder and
// the parser of a message cannot disagree. Fields are big-endian:
// unsigned integers by their width, bool and enums as one byte, double as
// its IEEE-754 bits, strings u16-length-prefixed, Ipv4Address as u32,
// Endpoint as ip then port, TimePoint as u64 nanoseconds, nested records
// through their own fields(), wire::list<Count>(v) for a vector whose
// element count travels as a `Count`, and wire::rest(b) for opaque bytes
// running to the end of the message. A struct without kType (a CAN
// record, a DHCP message) is its fields alone.
//
// Parsing fails as a whole on a wrong type byte, a short field, or an
// enum byte for which the enum's is_valid() (declared next to the enum,
// found by argument-dependent lookup) is false. Bytes after the last
// field are ignored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/units.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"

namespace wav::wire {

/// A vector sent as a `Count` (an unsigned integer type) then its elements.
template <class Count, class T>
struct List {
  using CountType = Count;
  std::vector<T>& items;
};

template <class Count, class T>
[[nodiscard]] List<Count, T> list(std::vector<T>& items) {
  return {items};
}

/// Opaque bytes running to the end of the message.
struct Rest {
  ByteBuffer& bytes;
};

[[nodiscard]] inline Rest rest(ByteBuffer& bytes) { return {bytes}; }

template <class T>
inline constexpr bool kIsList = false;
template <class Count, class T>
inline constexpr bool kIsList<List<Count, T>> = true;

template <class Io>
bool fields(Io& io, net::Ipv4Address& a) {
  return io(a.value);
}
template <class Io>
bool fields(Io& io, net::Endpoint& e) {
  return io(e.ip, e.port);
}
template <class Io>
bool fields(Io& io, net::MacAddress& m) {
  auto& o = m.octets;
  return io(o[0], o[1], o[2], o[3], o[4], o[5]);
}
template <class Io, class A, class B>
bool fields(Io& io, std::pair<A, B>& p) {
  return io(p.first, p.second);
}

/// Appends fields to a buffer.
class Writer {
 public:
  explicit Writer(ByteBuffer& out) noexcept : w_(out) {}

  template <class... Ts>
  bool operator()(const Ts&... vs) {
    (put(vs), ...);
    return true;
  }

 private:
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.u8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_unsigned_v<T>) {
      if constexpr (sizeof(T) == 1) {
        w_.u8(v);
      } else if constexpr (sizeof(T) == 2) {
        w_.u16(v);
      } else if constexpr (sizeof(T) == 4) {
        w_.u32(v);
      } else {
        w_.u64(v);
      }
    } else if constexpr (std::is_same_v<T, double>) {
      w_.f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.str(v);
    } else if constexpr (std::is_same_v<T, TimePoint>) {
      w_.u64(static_cast<std::uint64_t>(v.since_start.count()));
    } else if constexpr (kIsList<T>) {
      put(static_cast<typename T::CountType>(v.items.size()));
      for (const auto& item : v.items) put(item);
    } else if constexpr (std::is_same_v<T, Rest>) {
      w_.raw(v.bytes);
    } else {
      // A nested record. Its field list takes a mutable reference so one
      // list serves both directions; writing only reads it.
      fields(*this, const_cast<T&>(v));
    }
  }

  ByteWriter w_;
};

/// Reads fields in order. Every read is bounds-checked; the first short or
/// invalid field fails the call.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) noexcept : r_(in) {}

  template <class... Ts>
  bool operator()(Ts&&... vs) {
    return (get(vs) && ...);
  }

 private:
  template <class U, class V>
  static bool take(std::optional<U> read, V& v) {
    if (read) v = std::move(*read);
    return read.has_value();
  }

  template <class T>
  bool get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      if (!get(b)) return false;
      v = b != 0;
      return true;
    } else if constexpr (std::is_enum_v<T>) {
      std::uint8_t b = 0;
      if (!get(b)) return false;
      v = static_cast<T>(b);
      return is_valid(v);
    } else if constexpr (std::is_unsigned_v<T>) {
      if constexpr (sizeof(T) == 1) {
        return take(r_.u8(), v);
      } else if constexpr (sizeof(T) == 2) {
        return take(r_.u16(), v);
      } else if constexpr (sizeof(T) == 4) {
        return take(r_.u32(), v);
      } else {
        return take(r_.u64(), v);
      }
    } else if constexpr (std::is_same_v<T, double>) {
      return take(r_.f64(), v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return take(r_.str(), v);
    } else if constexpr (std::is_same_v<T, TimePoint>) {
      std::uint64_t ns = 0;
      if (!get(ns)) return false;
      v = TimePoint{Duration{static_cast<std::int64_t>(ns)}};
      return true;
    } else if constexpr (kIsList<T>) {
      typename T::CountType n = 0;
      if (!get(n)) return false;
      v.items.clear();
      // Every element takes at least one byte, so a forged count cannot
      // reserve more than the rest of the message could hold.
      v.items.reserve(std::min<std::size_t>(n, r_.remaining()));
      for (std::size_t i = 0; i < n; ++i) {
        if (!get(v.items.emplace_back())) return false;
      }
      return true;
    } else if constexpr (std::is_same_v<T, Rest>) {
      const auto tail = r_.rest();
      v.bytes.assign(tail.begin(), tail.end());
      return r_.skip(tail.size());
    } else {
      return fields(*this, v);
    }
  }

  ByteReader r_;
};

/// The record's bytes, led by its type byte when it has a kType.
template <class M>
[[nodiscard]] ByteBuffer bytes(const M& m) {
  ByteBuffer out;
  if constexpr (requires { M::kType; }) {
    out.push_back(static_cast<std::byte>(M::kType));
  }
  Writer{out}(m);
  return out;
}

template <class M>
[[nodiscard]] net::Chunk encode(const M& m) {
  return net::Chunk::from_bytes(bytes(m));
}

/// Parses one record; nullopt on a wrong type byte or a short or invalid
/// field.
template <class M>
[[nodiscard]] std::optional<M> parse(std::span<const std::byte> in) {
  if constexpr (requires { M::kType; }) {
    if (in.empty() || in[0] != static_cast<std::byte>(M::kType)) return std::nullopt;
    in = in.subspan(1);
  }
  M m;
  if (!Reader{in}(m)) return std::nullopt;
  return m;
}

template <class M>
[[nodiscard]] std::optional<M> parse(const net::Chunk& chunk) {
  return parse<M>(std::span<const std::byte>{chunk.real});
}

}  // namespace wav::wire
