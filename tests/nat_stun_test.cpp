// NAT behaviour and STUN classification tests on the simulated WAN:
// translation, filtering per NAT type, binding expiry + keepalive, and
// the RFC 3489 decision tree ending in the right NatType for each
// gateway configuration.
#include <gtest/gtest.h>

#include "fabric/wan.hpp"
#include "stack/icmp.hpp"
#include "stack/udp.hpp"
#include "stun/stun.hpp"

namespace wav {
namespace {

using nat::NatType;

struct WanFixture {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};

  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  fabric::HostNode* stun1{};
  fabric::HostNode* stun2{};

  WanFixture(NatType type_a, NatType type_b,
             Duration udp_timeout = seconds(60)) {
    fabric::SiteConfig a;
    a.name = "A";
    a.nat.type = type_a;
    a.nat.udp_binding_timeout = udp_timeout;
    a.host_count = 2;
    fabric::SiteConfig b;
    b.name = "B";
    b.nat.type = type_b;
    b.nat.udp_binding_timeout = udp_timeout;
    site_a = &wan.add_site(a);
    site_b = &wan.add_site(b);
    stun1 = &wan.add_public_host("stun1");
    stun2 = &wan.add_public_host("stun2");
    fabric::PairPath path;
    path.one_way = milliseconds(15);
    wan.set_default_paths(path);
  }

  /// A site A gateway counter from the registry ("nat.translated_inbound").
  std::uint64_t nat_a(const char* counter) {
    return sim.metrics().counter(counter, site_a->gateway->name()).value();
  }
};

TEST(Nat, OutboundTranslationAndReply) {
  WanFixture env{NatType::kPortRestrictedCone, NatType::kPortRestrictedCone};
  auto& host = *env.site_a->hosts[0];
  auto& server = *env.stun1;

  stack::UdpLayer host_udp{host};
  stack::UdpLayer server_udp{server};

  net::Endpoint observed{};
  stack::UdpSocket server_sock{server_udp, 7000};
  server_sock.on_receive([&](const net::Endpoint& from, const net::UdpDatagram& d) {
    observed = from;
    server_sock.send_to(from, *d.chunk());  // echo
  });

  stack::UdpSocket client{host_udp, 5555};
  std::string reply;
  client.on_receive([&](const net::Endpoint&, const net::UdpDatagram& d) {
    reply = bytes_to_string(d.chunk()->real);
  });
  client.send_to({server.primary_address(), 7000}, net::Chunk::from_string("ping"));

  env.sim.run_for(seconds(1));
  EXPECT_EQ(reply, "ping");
  // The server saw the gateway's public IP, not the private address.
  EXPECT_EQ(observed.ip, env.site_a->gateway->public_ip());
  EXPECT_NE(observed.port, 5555);
  EXPECT_EQ(env.nat_a("nat.translated_outbound"), 1u);
  EXPECT_EQ(env.nat_a("nat.translated_inbound"), 1u);
}

TEST(Nat, UnsolicitedInboundBlocked) {
  WanFixture env{NatType::kFullCone, NatType::kPortRestrictedCone};
  auto& server = *env.stun1;
  stack::UdpLayer server_udp{server};
  stack::UdpSocket sock{server_udp, 7000};
  // No prior outbound traffic: any packet to the gateway must be dropped.
  sock.send_to({env.site_a->gateway->public_ip(), 40000}, net::Chunk::from_string("knock"));
  env.sim.run_for(seconds(1));
  EXPECT_GE(env.nat_a("nat.blocked_inbound"), 1u);
}

TEST(Nat, IntraSiteTrafficIsRoutedWithoutTranslation) {
  WanFixture env{NatType::kPortRestrictedCone, NatType::kPortRestrictedCone};
  auto& h1 = *env.site_a->hosts[0];
  auto& h2 = *env.site_a->hosts[1];
  stack::UdpLayer udp1{h1};
  stack::UdpLayer udp2{h2};
  stack::UdpSocket s2{udp2, 9000};
  net::Endpoint seen{};
  s2.on_receive([&](const net::Endpoint& from, const net::UdpDatagram&) { seen = from; });
  stack::UdpSocket s1{udp1, 9001};
  s1.send_to({h2.primary_address(), 9000}, net::Chunk::from_string("hi"));
  env.sim.run_for(seconds(1));
  EXPECT_EQ(seen.ip, h1.primary_address());  // private address preserved
  EXPECT_EQ(seen.port, 9001);
  EXPECT_EQ(env.nat_a("nat.translated_outbound"), 0u);
}

TEST(Nat, RestrictedConeFiltersByIp) {
  WanFixture env{NatType::kRestrictedCone, NatType::kPortRestrictedCone};
  auto& host = *env.site_a->hosts[0];
  stack::UdpLayer host_udp{host};
  stack::UdpLayer s1_udp{*env.stun1};
  stack::UdpLayer s2_udp{*env.stun2};

  stack::UdpSocket srv1{s1_udp, 7000};
  stack::UdpSocket srv1_alt{s1_udp, 7001};
  stack::UdpSocket srv2{s2_udp, 7000};
  net::Endpoint client_public{};
  srv1.on_receive(
      [&](const net::Endpoint& from, const net::UdpDatagram&) { client_public = from; });

  int received = 0;
  stack::UdpSocket client{host_udp, 5000};
  client.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) { ++received; });
  client.send_to({env.stun1->primary_address(), 7000}, net::Chunk::from_string("open"));
  env.sim.run_for(seconds(1));
  ASSERT_FALSE(client_public.is_zero());

  // Same IP, different source port: allowed by (address-)restricted cone.
  srv1_alt.send_to(client_public, net::Chunk::from_string("same-ip"));
  // Different IP: blocked.
  srv2.send_to(client_public, net::Chunk::from_string("other-ip"));
  env.sim.run_for(seconds(1));
  EXPECT_EQ(received, 1);
}

TEST(Nat, PortRestrictedConeFiltersByEndpoint) {
  WanFixture env{NatType::kPortRestrictedCone, NatType::kPortRestrictedCone};
  auto& host = *env.site_a->hosts[0];
  stack::UdpLayer host_udp{host};
  stack::UdpLayer s1_udp{*env.stun1};

  stack::UdpSocket srv1{s1_udp, 7000};
  stack::UdpSocket srv1_alt{s1_udp, 7001};
  net::Endpoint client_public{};
  srv1.on_receive(
      [&](const net::Endpoint& from, const net::UdpDatagram&) { client_public = from; });

  int received = 0;
  stack::UdpSocket client{host_udp, 5000};
  client.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) { ++received; });
  client.send_to({env.stun1->primary_address(), 7000}, net::Chunk::from_string("open"));
  env.sim.run_for(seconds(1));
  ASSERT_FALSE(client_public.is_zero());

  srv1.send_to(client_public, net::Chunk::from_string("exact"));     // allowed
  srv1_alt.send_to(client_public, net::Chunk::from_string("wrong-port"));  // blocked
  env.sim.run_for(seconds(1));
  EXPECT_EQ(received, 1);
}

TEST(Nat, SymmetricAllocatesPerDestinationPorts) {
  WanFixture env{NatType::kSymmetric, NatType::kPortRestrictedCone};
  auto& host = *env.site_a->hosts[0];
  stack::UdpLayer host_udp{host};
  stack::UdpLayer s1_udp{*env.stun1};
  stack::UdpLayer s2_udp{*env.stun2};

  net::Endpoint seen1{}, seen2{};
  stack::UdpSocket srv1{s1_udp, 7000};
  srv1.on_receive([&](const net::Endpoint& from, const net::UdpDatagram&) { seen1 = from; });
  stack::UdpSocket srv2{s2_udp, 7000};
  srv2.on_receive([&](const net::Endpoint& from, const net::UdpDatagram&) { seen2 = from; });

  stack::UdpSocket client{host_udp, 5000};
  client.send_to({env.stun1->primary_address(), 7000}, net::Chunk::from_string("a"));
  client.send_to({env.stun2->primary_address(), 7000}, net::Chunk::from_string("b"));
  env.sim.run_for(seconds(1));
  ASSERT_FALSE(seen1.is_zero());
  ASSERT_FALSE(seen2.is_zero());
  EXPECT_EQ(seen1.ip, seen2.ip);
  EXPECT_NE(seen1.port, seen2.port);  // the symmetric signature
}

TEST(Nat, BindingExpiresWithoutKeepalive) {
  WanFixture env{NatType::kPortRestrictedCone, NatType::kPortRestrictedCone,
                 seconds(30)};
  auto& host = *env.site_a->hosts[0];
  stack::UdpLayer host_udp{host};
  stack::UdpLayer s1_udp{*env.stun1};

  stack::UdpSocket srv{s1_udp, 7000};
  net::Endpoint client_public{};
  srv.on_receive(
      [&](const net::Endpoint& from, const net::UdpDatagram&) { client_public = from; });

  int received = 0;
  stack::UdpSocket client{host_udp, 5000};
  client.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) { ++received; });
  client.send_to({env.stun1->primary_address(), 7000}, net::Chunk::from_string("open"));
  env.sim.run_for(seconds(1));
  ASSERT_FALSE(client_public.is_zero());

  // Within the timeout the reverse path works...
  srv.send_to(client_public, net::Chunk::from_string("in-time"));
  env.sim.run_for(seconds(1));
  EXPECT_EQ(received, 1);

  // ...but after 31 idle seconds the binding is gone.
  env.sim.run_for(seconds(31));
  srv.send_to(client_public, net::Chunk::from_string("too-late"));
  env.sim.run_for(seconds(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(env.site_a->gateway->active_bindings(), 0u);
}

TEST(Nat, KeepaliveRefreshesBinding) {
  WanFixture env{NatType::kPortRestrictedCone, NatType::kPortRestrictedCone,
                 seconds(30)};
  auto& host = *env.site_a->hosts[0];
  stack::UdpLayer host_udp{host};
  stack::UdpLayer s1_udp{*env.stun1};

  stack::UdpSocket srv{s1_udp, 7000};
  net::Endpoint client_public{};
  srv.on_receive(
      [&](const net::Endpoint& from, const net::UdpDatagram&) { client_public = from; });

  int received = 0;
  stack::UdpSocket client{host_udp, 5000};
  client.on_receive([&](const net::Endpoint&, const net::UdpDatagram&) { ++received; });
  client.send_to({env.stun1->primary_address(), 7000}, net::Chunk::from_string("open"));

  // 2-byte CONNECT_PULSE every 5 s (paper §III.B).
  sim::PeriodicTimer pulse{env.sim, seconds(5), [&] {
    client.send_to({env.stun1->primary_address(), 7000}, net::Chunk::virtual_bytes(2));
  }};
  pulse.start();

  env.sim.run_for(seconds(120));
  ASSERT_FALSE(client_public.is_zero());
  srv.send_to(client_public, net::Chunk::from_string("still-open"));
  env.sim.run_for(seconds(1));
  EXPECT_EQ(received, 1);
}

TEST(Nat, HolePunchCompatibilityMatrix) {
  using nat::hole_punch_compatible;
  // Full 5x5 truth table, both argument orders. The only losing pairings
  // involve a symmetric side: its per-destination port allocation defeats
  // punching against any peer that filters on the (unpredictable) source
  // port — another symmetric NAT or a port-restricted cone. An
  // address-restricted cone filters by IP only, so the symmetric side's
  // surprising source *port* still gets through; full cones and open
  // hosts accept anything.
  const NatType all[] = {NatType::kOpenInternet, NatType::kFullCone,
                         NatType::kRestrictedCone, NatType::kPortRestrictedCone,
                         NatType::kSymmetric};
  const auto expected = [](NatType a, NatType b) {
    const auto strict = [](NatType t) {
      return t == NatType::kSymmetric || t == NatType::kPortRestrictedCone;
    };
    const bool has_symmetric =
        a == NatType::kSymmetric || b == NatType::kSymmetric;
    return !(has_symmetric && strict(a) && strict(b));
  };
  for (const auto a : all) {
    for (const auto b : all) {
      EXPECT_EQ(hole_punch_compatible(a, b), expected(a, b))
          << nat::to_string(a) << " vs " << nat::to_string(b);
      // The relation is symmetric: argument order must not matter.
      EXPECT_EQ(hole_punch_compatible(a, b), hole_punch_compatible(b, a))
          << nat::to_string(a) << " vs " << nat::to_string(b);
    }
  }
}

class StunClassification : public ::testing::TestWithParam<NatType> {};

TEST_P(StunClassification, DetectsConfiguredNatType) {
  WanFixture env{GetParam(), NatType::kPortRestrictedCone};
  stack::UdpLayer stun1_udp{*env.stun1};
  stack::UdpLayer stun2_udp{*env.stun2};
  stun::StunServer server{*env.stun1, *env.stun2};

  auto& host = *env.site_a->hosts[0];
  stack::UdpLayer host_udp{host};
  stun::StunClient client{host_udp, server.primary_endpoint(), server.alternate_endpoint()};

  std::optional<stun::ProbeResult> result;
  client.probe([&](const stun::ProbeResult& r) { result = r; });
  env.sim.run_for(seconds(20));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->reachable);
  EXPECT_EQ(result->nat_type, GetParam());
  EXPECT_EQ(result->mapped.ip, env.site_a->gateway->public_ip());
}

INSTANTIATE_TEST_SUITE_P(AllNatTypes, StunClassification,
                         ::testing::Values(NatType::kFullCone, NatType::kRestrictedCone,
                                           NatType::kPortRestrictedCone,
                                           NatType::kSymmetric),
                         [](const auto& param_info) {
                           const std::string name{nat::to_string(param_info.param)};
                           return name.substr(0, name.find('-'));
                         });

TEST(Stun, PublicHostDetectedAsOpenInternet) {
  WanFixture env{NatType::kFullCone, NatType::kFullCone};
  auto& pub = env.wan.add_public_host("probe-me");
  fabric::PairPath p;
  p.one_way = milliseconds(5);
  env.wan.set_default_paths(p);

  stack::UdpLayer stun1_udp{*env.stun1};
  stack::UdpLayer stun2_udp{*env.stun2};
  stun::StunServer server{*env.stun1, *env.stun2};

  stack::UdpLayer pub_udp{pub};
  stun::StunClient client{pub_udp, server.primary_endpoint(), server.alternate_endpoint()};
  std::optional<stun::ProbeResult> result;
  client.probe([&](const stun::ProbeResult& r) { result = r; });
  env.sim.run_for(seconds(10));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->nat_type, NatType::kOpenInternet);
  EXPECT_EQ(result->mapped.ip, pub.primary_address());
}

}  // namespace
}  // namespace wav
