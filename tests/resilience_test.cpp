// Extension features and failure injection: DHCP over the virtual LAN
// (including across WAN tunnels), tcpdump-style frame capture, NAT
// reboot recovery via automatic re-punching, and rendezvous-loss
// behaviour of established tunnels.
#include <gtest/gtest.h>

#include "can/node.hpp"
#include "chaos/chaos_controller.hpp"
#include "chaos/invariants.hpp"
#include "fabric/wan.hpp"
#include "overlay/rendezvous.hpp"
#include "stack/icmp.hpp"
#include "tcp/tcp.hpp"
#include "wavnet/capture.hpp"
#include "wavnet/dhcp.hpp"
#include "wavnet/host.hpp"

namespace wav {
namespace {

using overlay::HostInfo;

TEST(Dhcp, CodecRoundTrip) {
  wavnet::DhcpMessage msg;
  msg.type = wavnet::DhcpMessageType::kOffer;
  msg.xid = 0xABCD1234;
  msg.client_mac = wavnet::make_mac(7);
  msg.your_ip = net::Ipv4Address::parse("10.10.0.55").value();
  msg.server_ip = net::Ipv4Address::parse("10.10.0.1").value();
  msg.lease_seconds = 3600;
  const auto parsed = wire::parse<wavnet::DhcpMessage>(wire::encode(msg));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, msg.type);
  EXPECT_EQ(parsed->xid, msg.xid);
  EXPECT_EQ(parsed->client_mac, msg.client_mac);
  EXPECT_EQ(parsed->your_ip, msg.your_ip);
  EXPECT_EQ(parsed->lease_seconds, 3600u);
}

TEST(Dhcp, LocalLanLease) {
  sim::Simulation sim;
  wavnet::SoftwareBridge bridge{sim};

  wavnet::VirtualNic server_nic{wavnet::make_mac(1)};
  wavnet::VirtualIpStack server_stack{sim, server_nic,
                                      net::Ipv4Address::parse("10.10.0.1").value(),
                                      {net::Ipv4Address::parse("10.10.0.0").value(), 16}};
  bridge.attach(server_nic);
  wavnet::DhcpServer::Config cfg;
  cfg.pool_begin = net::Ipv4Address::parse("10.10.0.100").value();
  cfg.pool_size = 10;
  wavnet::DhcpServer server{server_stack, cfg};

  // A bare NIC boots and asks for an address.
  wavnet::VirtualNic client_nic{wavnet::make_mac(2)};
  bridge.attach(client_nic);
  wavnet::DhcpClient client{sim, client_nic};
  std::optional<net::Ipv4Address> leased;
  bool done = false;
  client.acquire([&](std::optional<net::Ipv4Address> address) {
    leased = address;
    done = true;
  });
  sim.run_for(seconds(5));

  ASSERT_TRUE(done);
  ASSERT_TRUE(leased.has_value());
  EXPECT_EQ(leased->to_string(), "10.10.0.100");
  EXPECT_EQ(server.active_leases(), 1u);
  EXPECT_EQ(server.lease_of(client_nic.mac()), leased);

  // Re-acquiring yields the same address (lease stability).
  bool again = false;
  client.acquire([&](std::optional<net::Ipv4Address> address) {
    again = true;
    EXPECT_EQ(address, leased);
  });
  sim.run_for(seconds(5));
  EXPECT_TRUE(again);

  // The leased address is usable: bind a stack and ping the server.
  wavnet::VirtualIpStack client_stack{sim, client_nic, *leased,
                                      {net::Ipv4Address::parse("10.10.0.0").value(), 16}};
  stack::IcmpLayer icmp_client{client_stack};
  stack::IcmpLayer icmp_server{server_stack};
  int replies = 0;
  const auto id = icmp_client.allocate_id();
  icmp_client.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_client.send_echo_request(server_stack.ip_address(), id, 1, 32);
  sim.run_for(seconds(2));
  EXPECT_EQ(replies, 1);
}

TEST(Dhcp, PoolExhaustionNaks) {
  sim::Simulation sim;
  wavnet::SoftwareBridge bridge{sim};
  wavnet::VirtualNic server_nic{wavnet::make_mac(1)};
  wavnet::VirtualIpStack server_stack{sim, server_nic,
                                      net::Ipv4Address::parse("10.10.0.1").value(),
                                      {net::Ipv4Address::parse("10.10.0.0").value(), 16}};
  bridge.attach(server_nic);
  wavnet::DhcpServer::Config cfg;
  cfg.pool_begin = net::Ipv4Address::parse("10.10.0.100").value();
  cfg.pool_size = 2;
  wavnet::DhcpServer server{server_stack, cfg};

  std::size_t granted = 0;
  std::size_t refused = 0;
  std::vector<std::unique_ptr<wavnet::VirtualNic>> nics;
  std::vector<std::unique_ptr<wavnet::DhcpClient>> clients;
  for (int i = 0; i < 4; ++i) {
    nics.push_back(std::make_unique<wavnet::VirtualNic>(
        wavnet::make_mac(static_cast<std::uint64_t>(10 + i))));
    bridge.attach(*nics.back());
    clients.push_back(std::make_unique<wavnet::DhcpClient>(sim, *nics.back()));
    clients.back()->acquire([&](std::optional<net::Ipv4Address> address) {
      if (address) {
        ++granted;
      } else {
        ++refused;
      }
    });
    sim.run_for(seconds(3));
  }
  EXPECT_EQ(granted, 2u);
  EXPECT_EQ(refused, 2u);
  EXPECT_EQ(server.active_leases(), 2u);
}

struct TunnelFixture {
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  std::unique_ptr<overlay::RendezvousServer> rendezvous;
  std::unique_ptr<wavnet::WavnetHost> a1;
  std::unique_ptr<wavnet::WavnetHost> b1;

  TunnelFixture() {
    fabric::SiteConfig sa;
    sa.name = "A";
    fabric::SiteConfig sb;
    sb.name = "B";
    site_a = &wan.add_site(sa);
    site_b = &wan.add_site(sb);
    auto& rv = wan.add_public_host("rendezvous");
    fabric::PairPath path;
    path.one_way = milliseconds(15);
    wan.set_default_paths(path);
    rendezvous = std::make_unique<overlay::RendezvousServer>(rv);
    rendezvous->bootstrap();

    a1 = make_host(*site_a->hosts[0], "a1", "10.10.0.1");
    b1 = make_host(*site_b->hosts[0], "b1", "10.10.0.2");
    a1->start();
    b1->start();
    sim.run_for(seconds(5));
    a1->connect(b1->agent().self_info());
    sim.run_for(seconds(10));
  }

  std::unique_ptr<wavnet::WavnetHost> make_host(fabric::HostNode& host,
                                                const std::string& name,
                                                const std::string& vip) {
    wavnet::WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous->host_endpoint();
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<wavnet::WavnetHost>(host, cfg);
  }
};

TEST(Dhcp, LeaseAcrossWanTunnel) {
  // The DHCP server sits at site A; a diskless NIC at site B broadcasts
  // its DISCOVER through the WAV-Switch tunnels and gets a lease — the
  // paper's "DHCP can be applied without any modification".
  TunnelFixture env;
  wavnet::DhcpServer::Config cfg;
  cfg.pool_begin = net::Ipv4Address::parse("10.10.0.200").value();
  cfg.pool_size = 8;
  wavnet::DhcpServer server{env.a1->stack(), cfg};

  wavnet::VirtualNic roaming_nic{wavnet::make_mac(0x99)};
  env.b1->bridge().attach(roaming_nic);
  wavnet::DhcpClient client{env.sim, roaming_nic};
  std::optional<net::Ipv4Address> leased;
  client.acquire([&](std::optional<net::Ipv4Address> address) { leased = address; });
  env.sim.run_for(seconds(10));

  ASSERT_TRUE(leased.has_value());
  EXPECT_EQ(leased->to_string(), "10.10.0.200");
  EXPECT_EQ(server.stats().discovers, 1u);
  EXPECT_EQ(server.stats().acks, 1u);
}

TEST(Capture, SeesTunneledTrafficWithSummaries) {
  TunnelFixture env;
  wavnet::FrameCapture capture{env.sim, env.b1->bridge()};

  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  const auto id = icmp_a.allocate_id();
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(3));

  // ARP request + ICMP request at least (replies leave through the same
  // bridge and are captured too).
  EXPECT_GE(capture.count(), 3u);
  EXPECT_GE(capture.count_if([](const wavnet::CapturedFrame& f) { return f.is_arp; }), 1u);
  EXPECT_GE(capture.count_if([](const wavnet::CapturedFrame& f) {
              return f.ip_protocol == net::kProtoIcmp;
            }),
            2u);
  for (const auto& frame : capture.frames()) {
    EXPECT_FALSE(frame.summary().empty());
  }
}

TEST(Resilience, NatRebootRecoveredByRepunch) {
  TunnelFixture env;
  ASSERT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));

  // Power-cycle site A's NAT: all bindings vanish, so B's pulses toward
  // A's old public endpoint die at the gateway, and A's pulses arrive at
  // B from a *new* public port which B's filters reject.
  env.site_a->gateway->flush_bindings();
  env.sim.run_for(seconds(120));

  // The idle detector declared the link dead and the auto-re-punch
  // re-brokered it through the rendezvous layer.
  EXPECT_GE(env.a1->agent().stats().links_lost +
                env.b1->agent().stats().links_lost,
            1u);
  EXPECT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));
  EXPECT_TRUE(env.b1->agent().link_established(env.a1->agent().id()));

  // And the virtual LAN works again end to end.
  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  int replies = 0;
  const auto id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(3));
  EXPECT_EQ(replies, 1);
}

TEST(Resilience, FailsOverToBackupRendezvous) {
  // Two rendezvous servers share a CAN; the agents start on server 1,
  // which then dies. Liveness probes notice the silence and the agents
  // re-register with the backup — after which queries and *new*
  // connections work again.
  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::SiteConfig sa;
  sa.name = "A";
  fabric::SiteConfig sb;
  sb.name = "B";
  auto* site_a = &wan.add_site(sa);
  auto* site_b = &wan.add_site(sb);
  auto& rv1_host = wan.add_public_host("rv1");
  auto& rv2_host = wan.add_public_host("rv2");
  fabric::PairPath path;
  path.one_way = milliseconds(15);
  wan.set_default_paths(path);

  auto rv1 = std::make_unique<overlay::RendezvousServer>(rv1_host);
  rv1->bootstrap();
  overlay::RendezvousServer rv2{rv2_host};
  rv2.join(rv1->can_endpoint());
  sim.run_for(seconds(5));

  auto make_agent = [&](fabric::HostNode& host, const char* name) {
    overlay::HostAgent::Config cfg;
    cfg.name = name;
    cfg.rendezvous = rv1->host_endpoint();
    cfg.rendezvous_backups = {rv2.host_endpoint()};
    cfg.heartbeat_interval = seconds(5);
    return std::make_unique<overlay::HostAgent>(host, cfg);
  };
  auto a1 = make_agent(*site_a->hosts[0], "a1");
  auto b1 = make_agent(*site_b->hosts[0], "b1");
  a1->start();
  b1->start();
  sim.run_for(seconds(5));
  ASSERT_TRUE(a1->registered());
  ASSERT_EQ(a1->active_rendezvous(), rv1->host_endpoint());

  rv1.reset();  // primary dies
  sim.run_for(seconds(120));

  EXPECT_GE(a1->rendezvous_failovers(), 1u);
  EXPECT_EQ(a1->active_rendezvous(), rv2.host_endpoint());
  EXPECT_TRUE(a1->registered());
  EXPECT_TRUE(b1->registered());
  EXPECT_GE(rv2.registered_hosts(), 2u);

  // New brokered connections work through the backup.
  std::vector<HostInfo> results;
  a1->query({0.5, 0.5}, 4, [&](std::vector<HostInfo> h) { results = h; });
  sim.run_for(seconds(5));
  ASSERT_EQ(results.size(), 1u);
  bool connected = false;
  a1->connect_to(results[0], [&](bool ok, overlay::HostId) { connected = ok; });
  sim.run_for(seconds(15));
  EXPECT_TRUE(connected);
}

TEST(Resilience, SwitchPurgesMacsOfDeadTunnels) {
  TunnelFixture env;
  // Teach b1's switch a1's MAC via a ping.
  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  const auto id = icmp_a.allocate_id();
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(3));
  ASSERT_GE(env.b1->wav_switch().learned_macs(), 1u);

  // Drop b1's side of the tunnel: the switch must purge a1's MACs the
  // moment the link goes down (no black-holing of unicast frames).
  env.b1->agent().drop_link(env.a1->agent().id());
  EXPECT_EQ(env.b1->wav_switch().learned_macs(), 0u);

  // ...and the auto-re-punch then heals the tunnel, after which traffic
  // re-teaches the switch.
  env.sim.run_for(seconds(60));
  EXPECT_TRUE(env.b1->agent().link_established(env.a1->agent().id()));
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 2, 56);
  env.sim.run_for(seconds(3));
  EXPECT_GE(env.b1->wav_switch().learned_macs(), 1u);
}

TEST(Resilience, EstablishedTunnelsSurviveRendezvousLoss) {
  // The rendezvous layer is only the control plane: once tunnels are up,
  // killing the server must not disturb data flow (paper §II.B: data
  // transmission does not involve the overlay).
  TunnelFixture env;
  ASSERT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));

  env.rendezvous.reset();  // the server process dies

  env.sim.run_for(seconds(120));  // heartbeats go unanswered; nobody cares
  EXPECT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));

  stack::IcmpLayer icmp_a{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  int replies = 0;
  const auto id = icmp_a.allocate_id();
  icmp_a.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
  icmp_a.send_echo_request(env.b1->virtual_ip(), id, 1, 56);
  env.sim.run_for(seconds(3));
  EXPECT_EQ(replies, 1);
}

TEST(Chaos, RendezvousCrashMidQueryResolvesViaTimeout) {
  // A query is in flight when the server dies: no reply will ever come,
  // so the per-query deadline (with its bounded retries) must fire the
  // handler with an empty result instead of leaking it forever.
  TunnelFixture env;
  ASSERT_TRUE(env.a1->agent().registered());

  bool answered = false;
  std::vector<HostInfo> results{HostInfo{}};  // sentinel: must be cleared
  env.a1->agent().query({0.5, 0.5}, 4, [&](std::vector<HostInfo> h) {
    answered = true;
    results = std::move(h);
  });
  env.rendezvous->crash();  // dies before the query reaches it
  ASSERT_EQ(env.a1->agent().pending_query_count(), 1u);

  // Deadline ladder: 2 s + 4 s + 6 s of retries before giving up.
  env.sim.run_for(seconds(30));
  EXPECT_TRUE(answered);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(env.a1->agent().pending_query_count(), 0u);
  EXPECT_GE(env.a1->agent().stats().queries_timed_out, 1u);

  // After the server restarts with amnesia, nacked heartbeats drive
  // re-registration and queries answer again.
  env.rendezvous->restart();
  env.sim.run_for(seconds(60));
  EXPECT_TRUE(env.a1->agent().registered());
  EXPECT_GE(env.a1->agent().stats().reregistrations, 1u);
  std::vector<HostInfo> again;
  env.a1->agent().query({0.5, 0.5}, 4, [&](std::vector<HostInfo> h) { again = std::move(h); });
  env.sim.run_for(seconds(5));
  EXPECT_FALSE(again.empty());
}

TEST(Chaos, LinkFlapHealsWithAutoRepunch) {
  // Site A's access links flap through one long down/up cycle — the dark
  // half outlives the idle timeout, so the tunnel dies and must be
  // re-brokered once light returns. The InvariantChecker's definition of
  // healthy (registered, re-punched, no leaked handlers) must hold.
  TunnelFixture env;
  ASSERT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));

  chaos::ChaosController controller{env.sim};
  controller.set_wan(env.wan);
  chaos::FaultPlan plan;
  plan.link_flap(env.sim.now() + seconds(1), "A", 1, seconds(90));
  controller.schedule(plan);

  chaos::InvariantChecker checker;
  checker.add_agent(env.a1->agent());
  checker.add_agent(env.b1->agent());
  checker.add_rendezvous(*env.rendezvous);
  checker.expect_full_mesh();

  env.sim.run_for(seconds(240));
  EXPECT_EQ(controller.faults_injected(), 1u);
  EXPECT_GE(env.a1->agent().stats().links_lost + env.b1->agent().stats().links_lost,
            1u);
  EXPECT_TRUE(checker.converged())
      << ::testing::PrintToString(checker.violations());
  for (fabric::Link* link : env.wan.access_links("A")) {
    EXPECT_FALSE(link->down());
    EXPECT_GT(link->stats().dropped_down, 0u);
  }
}

TEST(Chaos, NatRebootUnderActiveTcpStreamRecovers) {
  // A bulk TCP transfer is mid-flight when site A's gateway power-cycles
  // (crash drops everything, restart comes back with empty bindings).
  // Retransmissions bridge the outage, the idle detector + re-punch
  // rebuild the tunnel, and the stream completes in full.
  TunnelFixture env;
  tcp::TcpLayer tcp_a{env.a1->stack()};
  tcp::TcpLayer tcp_b{env.b1->stack()};

  // 64 MiB at the 100 Mbit/s site uplink needs ~5.5 s of wire time, so a
  // crash 2 s in is guaranteed to land mid-stream.
  const std::uint64_t kTransfer = 64ull * 1024 * 1024;
  std::uint64_t received = 0;
  tcp_b.listen(5001, [&](tcp::TcpConnection::Ptr conn) {
    conn->on_data([&received, conn](const std::vector<net::Chunk>& chunks) {
      received += net::total_size(chunks);
    });
  });
  auto conn = tcp_a.connect({env.b1->virtual_ip(), 5001});
  conn->on_established([&] { conn->send_virtual(kTransfer); });
  env.sim.run_for(seconds(2));  // connection up, transfer under way
  ASSERT_GT(received, 0u);
  ASSERT_LT(received, kTransfer);

  env.site_a->gateway->crash();
  env.sim.run_for(seconds(10));
  env.site_a->gateway->restart();
  env.sim.run_for(seconds(240));

  EXPECT_GT(env.site_a->gateway->dropped_down(), 0u);
  EXPECT_TRUE(env.a1->agent().link_established(env.b1->agent().id()));
  EXPECT_TRUE(env.b1->agent().link_established(env.a1->agent().id()));
  EXPECT_EQ(received, kTransfer);
}

TEST(Chaos, CanNeighborCrashTakeoverKeepsLookupsRoutable) {
  // A CAN node dies silently mid-overlay. Its neighbors' hello liveness
  // notices, one of them absorbs the orphaned zone, and lookups for
  // points in the dead node's former territory keep resolving.
  sim::Simulation sim{2026};
  can::CanNode::Config cfg;
  cfg.dims = 2;
  std::vector<std::unique_ptr<can::CanNode>> nodes;
  auto find = [&](const net::Endpoint& ep) -> can::CanNode* {
    for (auto& n : nodes) {
      if (n->endpoint() == ep) return n.get();
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < 6; ++i) {
    const net::Endpoint ep{net::Ipv4Address{static_cast<std::uint32_t>(i + 1)}, 9000};
    nodes.push_back(std::make_unique<can::CanNode>(
        sim, i + 1, ep,
        [&sim, &find](const net::Endpoint& to, net::Chunk msg) {
          sim.schedule_after(milliseconds(5), [&find, to, msg = std::move(msg)] {
            if (auto* node = find(to)) node->on_message(net::Endpoint{}, msg);
          });
        },
        cfg));
  }
  nodes[0]->bootstrap();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    nodes[i]->join(nodes[0]->endpoint());
    sim.run_for(seconds(1));
  }
  sim.run_for(seconds(30));  // neighbor tables settle

  can::CanNode& victim = *nodes[3];
  const can::Zone orphaned = victim.zone();
  can::Point inside;
  for (std::size_t d = 0; d < orphaned.dims(); ++d) {
    inside.coords.push_back((orphaned.lo[d] + orphaned.hi[d]) / 2.0);
  }
  victim.crash();

  // Past hello_interval * 3 the silence is conclusive; a mergeable
  // neighbor takes the zone over (ungraceful leave, no handoff message).
  sim.run_for(seconds(60));
  std::uint64_t takeovers = 0;
  double volume = 0.0;
  for (const auto& n : nodes) {
    if (n.get() == &victim) continue;
    takeovers +=
        sim.metrics().counter("can.zone_takeovers", "can#" + std::to_string(n->id())).value();
    volume += n->zone().volume();
  }
  EXPECT_GE(takeovers, 1u);
  EXPECT_NEAR(volume, 1.0, 1e-9);  // no coverage hole left behind

  // Store at the orphaned zone's center and look it up from afar: the
  // greedy route must terminate at the new owner, not a dead end.
  nodes[0]->store(inside, 1, to_bytes("reclaimed"));
  sim.run_for(seconds(2));
  bool answered = false;
  nodes[5]->query(inside, 1, [&](std::vector<can::Item> items) {
    answered = true;
    ASSERT_FALSE(items.empty());
    EXPECT_EQ(items[0].point, inside);
  });
  sim.run_for(seconds(5));
  EXPECT_TRUE(answered);
  EXPECT_EQ(nodes[5]->pending_query_count(), 0u);
}

}  // namespace
}  // namespace wav
