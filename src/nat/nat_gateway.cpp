#include "nat/nat_gateway.hpp"

#include <cassert>

#include "common/log.hpp"
#include "obs/profiler.hpp"
#include "fabric/network.hpp"

namespace wav::nat {

const char* to_string(NatType t) noexcept {
  switch (t) {
    case NatType::kFullCone: return "full-cone";
    case NatType::kRestrictedCone: return "restricted-cone";
    case NatType::kPortRestrictedCone: return "port-restricted-cone";
    case NatType::kSymmetric: return "symmetric";
    case NatType::kOpenInternet: return "open-internet";
  }
  return "?";
}

bool hole_punch_compatible(NatType a, NatType b) noexcept {
  // Hole punching needs each side's NAT to accept a packet from the
  // peer's advertised public endpoint after the local host has sent one
  // toward it. Cone NATs reuse the same public port for all remotes, so
  // the endpoint a peer learns from the rendezvous server stays valid.
  // A symmetric NAT allocates a fresh port for each new remote, so the
  // advertised endpoint is wrong; punching still works when the other
  // side filters loosely enough to accept the unpredicted source port:
  // a full cone (accepts anything) or an address-restricted cone (the
  // source *IP* was contacted; only the port is surprising). Against a
  // port-restricted cone or another symmetric NAT it fails.
  auto is_symmetric = [](NatType t) { return t == NatType::kSymmetric; };
  auto tolerant = [](NatType t) {
    return t == NatType::kFullCone || t == NatType::kRestrictedCone ||
           t == NatType::kOpenInternet;
  };
  if (is_symmetric(a) && is_symmetric(b)) return false;
  if (is_symmetric(a)) return tolerant(b);
  if (is_symmetric(b)) return tolerant(a);
  return true;
}

std::optional<L4Ports> l4_ports(const net::IpPacket& pkt) noexcept {
  if (const auto* udp = pkt.udp()) return L4Ports{udp->src_port, udp->dst_port};
  if (const auto* tcp = pkt.tcp()) return L4Ports{tcp->src_port, tcp->dst_port};
  if (const auto* icmp = pkt.icmp()) return L4Ports{icmp->id, icmp->id};
  return std::nullopt;
}

namespace {

void set_src_port(net::IpPacket& pkt, std::uint16_t port) {
  if (auto* udp = pkt.udp()) {
    udp->src_port = port;
  } else if (auto* tcp = pkt.tcp()) {
    tcp->src_port = port;
  } else if (auto* icmp = pkt.icmp()) {
    icmp->id = port;
  }
}

void set_dst_port(net::IpPacket& pkt, std::uint16_t port) {
  if (auto* udp = pkt.udp()) {
    udp->dst_port = port;
  } else if (auto* tcp = pkt.tcp()) {
    tcp->dst_port = port;
  } else if (auto* icmp = pkt.icmp()) {
    icmp->id = port;
  }
}

}  // namespace

std::size_t NatGateway::FlowKeyHash::operator()(const FlowKey& k) const noexcept {
  std::uint64_t h = k.private_ip.value;
  h = h * 1000003ULL + k.private_port;
  h = h * 1000003ULL + k.protocol;
  h = h * 1000003ULL + k.remote.ip.value;
  h = h * 1000003ULL + k.remote.port;
  return std::hash<std::uint64_t>{}(h);
}

NatGateway::NatGateway(fabric::Network& network, std::string name, NatConfig config)
    : fabric::Node(network, std::move(name)),
      config_(config),
      next_port_(config.port_range_begin) {
  obs::MetricsRegistry& reg = sim().metrics();
  c_translated_outbound_ = &reg.counter("nat.translated_outbound", this->name());
  c_translated_inbound_ = &reg.counter("nat.translated_inbound", this->name());
  c_blocked_inbound_ = &reg.counter("nat.blocked_inbound", this->name());
  c_expired_bindings_ = &reg.counter("nat.expired_bindings", this->name());
  c_bindings_created_ = &reg.counter("nat.bindings_created", this->name());
  g_bindings_active_ = &reg.gauge("nat.bindings_active", this->name());
}

void NatGateway::sync_binding_gauge() {
  g_bindings_active_->set(static_cast<double>(port_to_binding_.size()));
}

Duration NatGateway::timeout_for(std::uint8_t protocol) const noexcept {
  return protocol == net::kProtoTcp ? config_.tcp_binding_timeout
                                    : config_.udp_binding_timeout;
}

bool NatGateway::is_expired(const Binding& b) const {
  return sim().now() - b.last_used > timeout_for(b.protocol);
}

std::size_t NatGateway::active_bindings() const {
  std::size_t n = 0;
  for (const auto& [port, b] : port_to_binding_) {
    if (!is_expired(b)) ++n;
  }
  return n;
}

void NatGateway::flush_bindings() {
  flow_to_port_.clear();
  port_to_binding_.clear();
  sync_binding_gauge();
}

void NatGateway::crash() {
  down_ = true;
  flush_bindings();
  sim().tracer().instant(obs::Category::kChaos, "nat.crash", name());
}

void NatGateway::restart() {
  if (!down_) return;
  down_ = false;
  sim().tracer().instant(obs::Category::kChaos, "nat.restart", name());
}

void NatGateway::drop_expired() {
  WAV_PROF_SCOPE("nat", "drop_expired");
  for (auto it = port_to_binding_.begin(); it != port_to_binding_.end();) {
    if (is_expired(it->second)) {
      const Binding& b = it->second;
      FlowKey key{b.private_ip, b.private_port, b.protocol, {}};
      if (config_.type == NatType::kSymmetric) key.remote = b.symmetric_remote;
      flow_to_port_.erase(key);
      c_expired_bindings_->inc();
      sim().tracer().instant(obs::Category::kNat, "nat.binding_expired", name(),
                             "\"public_port\":" + std::to_string(b.public_port));
      it = port_to_binding_.erase(it);
      sync_binding_gauge();
    } else {
      ++it;
    }
  }
}

std::uint16_t NatGateway::allocate_public_port() {
  const std::uint32_t range =
      static_cast<std::uint32_t>(config_.port_range_end - config_.port_range_begin) + 1;
  for (std::uint32_t attempt = 0; attempt < range; ++attempt) {
    const std::uint16_t candidate = next_port_;
    next_port_ = (next_port_ >= config_.port_range_end) ? config_.port_range_begin
                                                        : static_cast<std::uint16_t>(next_port_ + 1);
    bool in_use = false;
    for (std::uint8_t proto : {net::kProtoUdp, net::kProtoTcp, net::kProtoIcmp}) {
      const std::uint32_t key = (static_cast<std::uint32_t>(candidate) << 8) | proto;
      if (const auto it = port_to_binding_.find(key);
          it != port_to_binding_.end() && !is_expired(it->second)) {
        in_use = true;
        break;
      }
    }
    if (!in_use) return candidate;
  }
  // Port exhaustion: recycle expired bindings and retry once.
  drop_expired();
  return next_port_;
}

NatGateway::Binding* NatGateway::find_or_create_binding(const FlowKey& key) {
  if (const auto it = flow_to_port_.find(key); it != flow_to_port_.end()) {
    const std::uint32_t pkey = (static_cast<std::uint32_t>(it->second) << 8) | key.protocol;
    const auto bit = port_to_binding_.find(pkey);
    if (bit != port_to_binding_.end()) {
      if (!is_expired(bit->second)) return &bit->second;
      c_expired_bindings_->inc();
      sim().tracer().instant(
          obs::Category::kNat, "nat.binding_expired", name(),
          "\"public_port\":" + std::to_string(bit->second.public_port));
      port_to_binding_.erase(bit);
    }
    flow_to_port_.erase(it);
  }
  const std::uint16_t port = allocate_public_port();
  Binding b;
  b.public_port = port;
  b.private_ip = key.private_ip;
  b.private_port = key.private_port;
  b.protocol = key.protocol;
  b.symmetric_remote = key.remote;
  b.last_used = sim().now();
  c_bindings_created_->inc();
  sim().tracer().instant(obs::Category::kNat, "nat.binding_created", name(),
                         "\"public_port\":" + std::to_string(port));
  flow_to_port_[key] = port;
  const std::uint32_t pkey = (static_cast<std::uint32_t>(port) << 8) | key.protocol;
  auto [it, inserted] = port_to_binding_.insert_or_assign(pkey, std::move(b));
  (void)inserted;
  sync_binding_gauge();
  return &it->second;
}

void NatGateway::forward(net::IpPacket pkt, fabric::Link& from) {
  WAV_PROF_SCOPE("nat", "forward");
  if (down_) {
    ++dropped_down_;
    note_flow_drop(pkt, obs::DropReason::kNatDown);
    return;
  }
  const bool from_wan = interfaces()[wan_iface_].link == &from;
  if (from_wan) {
    // WAN-side packet not addressed to our public IP: a plain router
    // would forward, but a NAT has no mapping — drop.
    c_blocked_inbound_->inc();
    note_flow_drop(pkt, obs::DropReason::kNatMappingMiss);
    return;
  }
  if (pkt.ttl <= 1) {
    note_flow_drop(pkt, obs::DropReason::kTtlExpired);
    return;
  }
  pkt.ttl = static_cast<std::uint8_t>(pkt.ttl - 1);

  // Intra-site traffic: a LAN route (other than the default WAN uplink)
  // to the destination means plain routing, no translation.
  if (const fabric::Interface* out = route_lookup(pkt.dst);
      out != nullptr && out != &interfaces()[wan_iface_]) {
    transmit(*out, std::move(pkt));
    return;
  }
  translate_outbound(std::move(pkt));
}

void NatGateway::translate_outbound(net::IpPacket pkt) {
  WAV_PROF_SCOPE("nat", "translate_outbound");
  const auto ports = l4_ports(pkt);
  if (!ports) {
    note_flow_drop(pkt, obs::DropReason::kNoRoute);
    return;
  }
  FlowKey key{pkt.src, ports->src, pkt.protocol(), {}};
  if (config_.type == NatType::kSymmetric) {
    key.remote = net::Endpoint{pkt.dst, ports->dst};
  }
  Binding* b = find_or_create_binding(key);
  b->last_used = sim().now();
  b->contacted_ips[pkt.dst] = sim().now();
  b->contacted_endpoints[net::Endpoint{pkt.dst, ports->dst}] = sim().now();

  pkt.src = public_ip();
  set_src_port(pkt, b->public_port);
  c_translated_outbound_->inc();
  if (const net::FlowContext* fc = obs::flow_of(pkt)) {
    sim().flows().forwarded(*fc, obs::HopComponent::kNat, name());
  }
  transmit(interfaces()[wan_iface_], std::move(pkt));
}

void NatGateway::deliver_local(const net::IpPacket& pkt, fabric::Link& from) {
  if (down_) {
    ++dropped_down_;
    note_flow_drop(pkt, obs::DropReason::kNatDown);
    return;
  }
  const bool from_wan = interfaces()[wan_iface_].link == &from;
  if (!from_wan) {
    // Hairpin attempt from the LAN side; consumer NATs typically drop it.
    c_blocked_inbound_->inc();
    note_flow_drop(pkt, obs::DropReason::kNatFiltered);
    return;
  }
  translate_inbound(pkt, from);
}

void NatGateway::translate_inbound(const net::IpPacket& pkt, fabric::Link& from) {
  WAV_PROF_SCOPE("nat", "translate_inbound");
  (void)from;
  const auto ports = l4_ports(pkt);
  if (!ports) {
    c_blocked_inbound_->inc();
    note_flow_drop(pkt, obs::DropReason::kNatFiltered);
    return;
  }
  const std::uint32_t pkey =
      (static_cast<std::uint32_t>(ports->dst) << 8) | pkt.protocol();
  const auto it = port_to_binding_.find(pkey);
  if (it == port_to_binding_.end() || is_expired(it->second)) {
    c_blocked_inbound_->inc();
    note_flow_drop(pkt, obs::DropReason::kNatMappingMiss);
    return;
  }
  Binding& b = it->second;
  const net::Endpoint remote{pkt.src, ports->src};

  const Duration filter_timeout = timeout_for(pkt.protocol());
  const auto fresh = [&](const auto& table, const auto& key_value) {
    const auto entry = table.find(key_value);
    return entry != table.end() && sim().now() - entry->second <= filter_timeout;
  };
  bool allowed = false;
  switch (config_.type) {
    case NatType::kFullCone:
    case NatType::kOpenInternet:
      allowed = true;
      break;
    case NatType::kRestrictedCone:
      allowed = fresh(b.contacted_ips, pkt.src);
      break;
    case NatType::kPortRestrictedCone:
      allowed = fresh(b.contacted_endpoints, remote);
      break;
    case NatType::kSymmetric:
      allowed = b.symmetric_remote == remote;
      break;
  }
  if (!allowed) {
    c_blocked_inbound_->inc();
    note_flow_drop(pkt, obs::DropReason::kNatFiltered);
    sim().tracer().instant(obs::Category::kNat, "nat.inbound_refused", name(),
                           "\"from\":\"" + remote.to_string() + "\"");
    log::trace("nat", "{} blocked inbound from {} to port {}", name(),
               remote.to_string(), ports->dst);
    return;
  }

  // Inbound traffic refreshes the binding like outbound does.
  b.last_used = sim().now();

  net::IpPacket inner = pkt;
  inner.dst = b.private_ip;
  set_dst_port(inner, b.private_port);
  c_translated_inbound_->inc();
  const fabric::Interface* out = route_lookup(inner.dst);
  if (out == nullptr || out == &interfaces()[wan_iface_]) {
    note_flow_drop(inner, obs::DropReason::kNoRoute);
    return;
  }
  if (const net::FlowContext* fc = obs::flow_of(inner)) {
    sim().flows().forwarded(*fc, obs::HopComponent::kNat, name());
  }
  transmit(*out, std::move(inner));
}

void NatGateway::note_flow_drop(const net::IpPacket& pkt, obs::DropReason reason) {
  if (const net::FlowContext* fc = obs::flow_of(pkt)) {
    sim().flows().dropped(*fc, obs::HopComponent::kNat, name(), reason);
  }
}

}  // namespace wav::nat
