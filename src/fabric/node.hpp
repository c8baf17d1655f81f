// Base class for everything attached to the physical underlay: end hosts,
// NAT gateways, rendezvous servers and the Internet core. A node owns a
// set of interfaces (link attachment + address), a static routing table,
// and IPv4 forwarding with TTL handling.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/link.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace wav::fabric {

class Network;

struct Interface {
  Link* link{nullptr};
  net::Ipv4Address address{};
  net::Ipv4Subnet subnet{};
};

class Node {
 public:
  Node(Network& network, std::string name);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] sim::Simulation& sim() const noexcept;

  /// Called by Network when a link is attached; returns the new
  /// interface's index.
  std::size_t attach_interface(Link& link, net::Ipv4Address addr, net::Ipv4Subnet subnet);

  [[nodiscard]] const std::vector<Interface>& interfaces() const noexcept {
    return interfaces_;
  }
  [[nodiscard]] bool owns_address(net::Ipv4Address a) const noexcept;
  /// First interface address, or 0.0.0.0 when detached.
  [[nodiscard]] net::Ipv4Address primary_address() const noexcept;

  /// Adds a route: packets to `dest` leave via interface `iface_index`.
  void add_route(net::Ipv4Subnet dest, std::size_t iface_index);
  void set_default_route(std::size_t iface_index);

  /// Entry point from links. Dispatches to local delivery or forwarding.
  void receive_from_link(net::IpPacket pkt, Link& from);

  /// Injects a locally originated packet into the routing path. Fills a
  /// zero source with the egress interface address. Returns false when no
  /// route exists.
  bool originate(net::IpPacket pkt);

 protected:
  /// Hook: a packet addressed to this node. Default drops it.
  virtual void deliver_local(const net::IpPacket& pkt, Link& from);

  /// Hook: a packet in transit. Default does TTL decrement + route lookup
  /// + transmit. NAT overrides this to translate first.
  virtual void forward(net::IpPacket pkt, Link& from);

  /// Route lookup (longest prefix, then default); nullptr when no match.
  [[nodiscard]] const Interface* route_lookup(net::Ipv4Address dst) const;

  /// Transmits on a specific interface.
  void transmit(const Interface& out, net::IpPacket pkt);

 private:
  Network& network_;
  std::string name_;
  std::vector<Interface> interfaces_;

  struct RouteEntry {
    net::Ipv4Subnet dest;
    std::size_t iface;
  };
  // /32 routes dominate at the Internet core (one per attachment, tens of
  // thousands under churn); they get an O(1) hash lookup, and only the
  // shorter prefixes walk the sorted vector. /32s always beat prefixes on
  // longest-prefix-match, so checking the map first preserves semantics.
  std::unordered_map<net::Ipv4Address, std::size_t> host_routes_;
  std::vector<RouteEntry> routes_;  // kept sorted by descending prefix length
  std::optional<std::size_t> default_route_;
};

}  // namespace wav::fabric
