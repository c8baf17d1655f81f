// Flow-level causal tracing tests. Unit-level: deterministic hash
// sampling, hop recording and drop counters, TCP retransmit detection,
// and byte-identical --flows-out/--hops-out exports across identical
// seeds. Integration-level: the two attribution scenarios the tracer
// exists for — a chaos-injected relay crash and a NAT filter drop must
// each attribute to the exact hop (component + instance + typed reason)
// through the same flow_report.hpp analysis `wavnet-doctor flows` uses.
#include <gtest/gtest.h>

#include "chaos/chaos_controller.hpp"
#include "fabric/wan.hpp"
#include "flow_report.hpp"
#include "obs/flow.hpp"
#include "obs/json.hpp"
#include "overlay/rendezvous.hpp"
#include "relay/relay_server.hpp"
#include "stack/icmp.hpp"
#include "stun/stun.hpp"
#include "wavnet/host.hpp"

namespace wav {
namespace {

using nat::NatType;
using overlay::HostAgent;
using wavnet::WavnetHost;

obs::FlowKey make_key(const char* src, const char* dst, std::uint8_t proto,
                      std::uint16_t sport, std::uint16_t dport) {
  obs::FlowKey key;
  key.src = net::Ipv4Address::parse(src).value();
  key.dst = net::Ipv4Address::parse(dst).value();
  key.protocol = proto;
  key.src_port = sport;
  key.dst_port = dport;
  return key;
}

TEST(FlowTracer, SamplingIsDeterministicAcrossTracers) {
  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  const auto clock = [] { return TimePoint{}; };
  obs::FlowTracer a{reg_a, nullptr, clock};
  obs::FlowTracer b{reg_b, nullptr, clock};
  ASSERT_EQ(a.sample_shift(), 6u);  // default: 1 flow in 64

  // The sampling decision is a pure function of the 5-tuple: two
  // independent tracers agree on every flow, and the decision is stable
  // across repeated passages of the same flow.
  int sampled = 0;
  for (std::uint16_t port = 1000; port < 1512; ++port) {
    const auto key = make_key("10.10.0.1", "10.10.0.2", net::kProtoUdp, port, 9000);
    const net::FlowContext ca = a.begin_passage(key, 100);
    const net::FlowContext cb = b.begin_passage(key, 100);
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.id, obs::flow_hash(key) == 0 ? 0 : ca.id);
    if (ca.id != 0) {
      ++sampled;
      EXPECT_EQ(ca.id, obs::flow_hash(key));
      EXPECT_EQ(a.begin_passage(key, 100).id, ca.id);
    }
  }
  // 512 distinct flows at 1/64: expect a handful sampled, far from all.
  EXPECT_GT(sampled, 0);
  EXPECT_LT(sampled, 64);
  EXPECT_EQ(a.flow_count(), static_cast<std::size_t>(sampled));
}

TEST(FlowTracer, ShiftZeroSamplesEveryFlowAndUnsampledIsStampless) {
  obs::MetricsRegistry reg;
  const auto clock = [] { return TimePoint{}; };
  obs::FlowTracer t{reg, nullptr, clock};

  // Find a flow the default 1/64 rate rejects: its stamp must be the
  // all-zero context (the allocation-free fast path contract).
  bool found_unsampled = false;
  for (std::uint16_t port = 2000; port < 2200 && !found_unsampled; ++port) {
    const auto key = make_key("10.10.0.3", "10.10.0.4", net::kProtoTcp, port, 80);
    const net::FlowContext ctx = t.begin_passage(key, 1000);
    if (ctx.id == 0) {
      found_unsampled = true;
      EXPECT_EQ(ctx.passage, 0u);
      EXPECT_EQ(ctx.budget, 0u);
    }
  }
  ASSERT_TRUE(found_unsampled);
  const std::size_t before = t.flow_count();

  t.set_sample_shift(0);
  for (std::uint16_t port = 2000; port < 2200; ++port) {
    const auto key = make_key("10.10.0.3", "10.10.0.4", net::kProtoTcp, port, 80);
    EXPECT_NE(t.begin_passage(key, 1000).id, 0u);
  }
  // Revisited keys keep their flow entries; every key is now sampled.
  EXPECT_LT(before, 200u);
  EXPECT_EQ(t.flow_count(), 200u);
  EXPECT_EQ(reg.find_counter("flow.flows_sampled")->value(), 200u);
}

TEST(FlowTracer, HopRecordingDropCountersAndExportShape) {
  sim::Simulation sim;
  obs::FlowTracer& t = sim.flows();
  t.set_sample_shift(0);

  const auto key = make_key("10.10.0.1", "10.10.0.2", net::kProtoUdp, 5000, 6000);
  const net::FlowContext p1 = t.begin_passage(key, 1400);
  ASSERT_NE(p1.id, 0u);
  t.forwarded(p1, obs::HopComponent::kHostStack, "10.10.0.1");
  sim.run_for(milliseconds(2));
  t.forwarded(p1, obs::HopComponent::kSwitchEgress, "a1", microseconds(150));
  sim.run_for(milliseconds(10));
  t.forwarded(p1, obs::HopComponent::kRelay, "100.66.0.1:5300");
  sim.run_for(milliseconds(10));
  t.delivered(p1, obs::HopComponent::kDelivery, "10.10.0.2");

  const net::FlowContext p2 = t.begin_passage(key, 1400);
  EXPECT_EQ(p2.id, p1.id);
  EXPECT_EQ(p2.passage, p1.passage + 1);
  t.forwarded(p2, obs::HopComponent::kHostStack, "10.10.0.1");
  t.dropped(p2, obs::HopComponent::kNat, "B-gw", obs::DropReason::kNatFiltered);

  EXPECT_EQ(sim.metrics().find_counter("flow.passages")->value(), 2u);
  EXPECT_EQ(sim.metrics().find_counter("flow.delivered")->value(), 1u);
  EXPECT_EQ(sim.metrics().find_counter("flow.dropped")->value(), 1u);
  EXPECT_EQ(sim.metrics().find_counter("flow.drops.nat_filtered")->value(), 1u);
  // Consecutive hops feed the per-pair latency histogram.
  const obs::Histogram* leg =
      sim.metrics().find_histogram("flow.hop_ms", "switch_egress->relay");
  ASSERT_NE(leg, nullptr);
  EXPECT_EQ(leg->count(), 1u);

  const auto flow_lines = obs::json::parse_jsonl(t.flows_to_jsonl());
  const auto flows = tools::parse_flows(flow_lines);
  ASSERT_EQ(flows.size(), 1u);
  const tools::FlowSummary& f = flows[0];
  EXPECT_EQ(f.src, "10.10.0.1");
  EXPECT_EQ(f.dst, "10.10.0.2");
  EXPECT_EQ(f.sport, 5000u);
  EXPECT_EQ(f.dport, 6000u);
  EXPECT_EQ(f.passages, 2u);
  EXPECT_EQ(f.bytes, 2800u);
  EXPECT_EQ(f.delivered, 1u);
  EXPECT_EQ(f.dropped, 1u);
  ASSERT_TRUE(f.has_drop_site);
  EXPECT_EQ(f.drop_component, "nat");
  EXPECT_EQ(f.drop_instance, "B-gw");
  EXPECT_EQ(f.drop_reason, "nat_filtered");
  EXPECT_GT(f.e2e_mean_ms, 20.0);  // 22 ms origin->delivery on passage 1

  // Hop export reconstructs passage 1's chronological timeline.
  const auto hops = tools::parse_hops(obs::json::parse_jsonl(t.hops_to_jsonl()));
  const auto timeline = tools::hop_timeline(hops, f.id, 1);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].component, "host_stack");
  EXPECT_EQ(timeline[1].component, "switch_egress");
  EXPECT_NEAR(timeline[1].queue_ns, 150e3, 1.0);
  EXPECT_NEAR(timeline[1].since_prev_ns, 2e6, 1.0);
  EXPECT_EQ(timeline[2].component, "relay");
  EXPECT_EQ(timeline[3].component, "delivery");
  EXPECT_EQ(timeline[3].verdict, "delivered");

  // Attribution ranks the NAT drop site.
  const auto ranked = tools::drop_attribution(flows);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].first, "nat/B-gw: nat_filtered");
  EXPECT_EQ(ranked[0].second, 1u);
}

TEST(FlowTracer, TcpRetransmitDetection) {
  sim::Simulation sim;
  obs::FlowTracer& t = sim.flows();
  t.set_sample_shift(0);
  const auto key = make_key("10.10.0.1", "10.10.0.2", net::kProtoTcp, 40000, 5001);

  (void)t.begin_passage(key, 1500, /*tcp_seq_end=*/1000);  // new data
  (void)t.begin_passage(key, 1500, /*tcp_seq_end=*/2000);  // new data
  (void)t.begin_passage(key, 1500, /*tcp_seq_end=*/2000);  // retransmit
  (void)t.begin_passage(key, 1500, /*tcp_seq_end=*/1500);  // retransmit
  (void)t.begin_passage(key, 1500, /*tcp_seq_end=*/3000);  // new data
  (void)t.begin_passage(key, 60, /*tcp_seq_end=*/0);       // pure ACK: ignored

  const auto flows = tools::parse_flows(obs::json::parse_jsonl(t.flows_to_jsonl()));
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].passages, 6u);
  EXPECT_EQ(flows[0].retransmits, 2u);
}

// ---------------------------------------------------------------------------
// Integration worlds: the relay_test fixture shape, with flow tracing on.

struct FlowWorld {
  struct Options {
    NatType type_a{NatType::kSymmetric};
    NatType type_b{NatType::kSymmetric};
    bool use_stun{true};
    std::size_t relay_count{1};
  };

  sim::Simulation sim;
  fabric::Network network{sim};
  fabric::Wan wan{network};
  fabric::Wan::Site* site_a{};
  fabric::Wan::Site* site_b{};
  std::unique_ptr<stun::StunServer> stun_server;
  std::unique_ptr<overlay::RendezvousServer> rendezvous;
  std::vector<std::unique_ptr<relay::RelayServer>> relays;
  std::unique_ptr<WavnetHost> a1;
  std::unique_ptr<WavnetHost> b1;

  explicit FlowWorld(Options opt) : opt_(opt) {
    fabric::SiteConfig sa;
    sa.name = "A";
    sa.nat.type = opt.type_a;
    fabric::SiteConfig sb;
    sb.name = "B";
    sb.nat.type = opt.type_b;
    site_a = &wan.add_site(sa);
    site_b = &wan.add_site(sb);
    auto& rv_host = wan.add_public_host("rendezvous");
    fabric::HostNode* stun1 = nullptr;
    fabric::HostNode* stun2 = nullptr;
    if (opt.use_stun) {
      stun1 = &wan.add_public_host("stun1");
      stun2 = &wan.add_public_host("stun2");
    }
    fabric::PairPath path;
    path.one_way = milliseconds(25);
    wan.set_default_paths(path);

    overlay::RendezvousServer::Config rv_cfg;
    for (std::size_t i = 0; i < opt.relay_count; ++i) {
      rv_cfg.relays.push_back(
          {rv_host.primary_address(), static_cast<std::uint16_t>(5300 + i)});
    }
    rendezvous = std::make_unique<overlay::RendezvousServer>(rv_host, rv_cfg);
    for (std::size_t i = 0; i < opt.relay_count; ++i) {
      relay::RelayServer::Config rc;
      rc.port = static_cast<std::uint16_t>(5300 + i);
      relays.push_back(std::make_unique<relay::RelayServer>(rendezvous->udp(), rc));
    }
    rendezvous->bootstrap();
    if (opt.use_stun) {
      stun_server = std::make_unique<stun::StunServer>(*stun1, *stun2);
    }

    a1 = make_host(*site_a->hosts[0], "a1", "10.10.0.1");
    b1 = make_host(*site_b->hosts[0], "b1", "10.10.0.2");
    a1->start();
    b1->start();
    sim.run_for(opt.use_stun ? seconds(20) : seconds(5));
  }

  std::unique_ptr<WavnetHost> make_host(fabric::HostNode& host,
                                        const std::string& name,
                                        const std::string& vip) {
    WavnetHost::Config cfg;
    cfg.agent.name = name;
    cfg.agent.rendezvous = rendezvous->host_endpoint();
    if (opt_.use_stun) {
      cfg.agent.stun = {{stun_server->primary_endpoint(),
                         stun_server->alternate_endpoint()}};
    }
    cfg.virtual_ip = net::Ipv4Address::parse(vip).value();
    return std::make_unique<WavnetHost>(host, cfg);
  }

  void connect_pair() {
    a1->connect(b1->agent().self_info());
    sim.run_for(seconds(8));
    ASSERT_TRUE(a1->agent().link_established(b1->agent().id()));
  }

  /// One echo request per 500 ms sim-time; returns replies received.
  /// The caller must keep an IcmpLayer alive on b1's stack to answer.
  int ping_burst(stack::IcmpLayer& icmp, int count) {
    int replies = 0;
    const std::uint16_t id = icmp.allocate_id();
    icmp.on_reply(id, [&](net::Ipv4Address, const net::IcmpMessage&) { ++replies; });
    for (int i = 0; i < count; ++i) {
      icmp.send_echo_request(b1->virtual_ip(), id,
                             static_cast<std::uint16_t>(i + 1), 56);
      sim.run_for(milliseconds(500));
    }
    return replies;
  }

  [[nodiscard]] std::vector<tools::FlowSummary> flows() {
    return tools::parse_flows(obs::json::parse_jsonl(sim.flows().flows_to_jsonl()));
  }
  [[nodiscard]] std::vector<tools::FlowHop> hops() {
    return tools::parse_hops(obs::json::parse_jsonl(sim.flows().hops_to_jsonl()));
  }

 private:
  Options opt_;
};

TEST(FlowTrace, ExportsAreByteIdenticalAcrossIdenticalRuns) {
  const auto run_world = [] {
    FlowWorld env{{.use_stun = true}};  // symmetric pair -> relayed path
    env.connect_pair();
    env.sim.flows().set_sample_shift(0);
    stack::IcmpLayer icmp{env.a1->stack()};
    stack::IcmpLayer icmp_b{env.b1->stack()};
    env.ping_burst(icmp, 4);
    env.sim.run_for(seconds(2));
    return std::pair{env.sim.flows().flows_to_jsonl(),
                     env.sim.flows().hops_to_jsonl()};
  };
  const auto [flows_1, hops_1] = run_world();
  const auto [flows_2, hops_2] = run_world();
  EXPECT_FALSE(flows_1.empty());
  EXPECT_FALSE(hops_1.empty());
  EXPECT_EQ(flows_1, flows_2);
  EXPECT_EQ(hops_1, hops_2);
}

TEST(FlowTrace, RelayedPingTimelineCrossesTheTriangle) {
  FlowWorld env{{.use_stun = true}};
  env.connect_pair();
  ASSERT_EQ(env.a1->agent().link_kind(env.b1->agent().id()),
            HostAgent::LinkKind::kRelayed);
  env.sim.flows().set_sample_shift(0);

  stack::IcmpLayer icmp{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  const int replies = env.ping_burst(icmp, 3);
  env.sim.run_for(seconds(2));
  EXPECT_EQ(replies, 3);

  // The echo-request flow crossed the complete causal chain, bridges and
  // both NAT gateways included; the relay hop in the middle makes the
  // triangle's two legs separately measurable.
  const auto flows = env.flows();
  const tools::FlowSummary* request = nullptr;
  for (const tools::FlowSummary& f : flows) {
    if (f.src == "10.10.0.1" && f.dst == "10.10.0.2") request = &f;
  }
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->passages, 3u);
  EXPECT_EQ(request->delivered, 3u);
  EXPECT_EQ(request->dropped, 0u);

  const auto timeline = tools::hop_timeline(env.hops(), request->id);
  std::vector<std::string> components;
  const std::uint64_t first_passage = timeline.empty() ? 0 : timeline.front().passage;
  for (const tools::FlowHop& h : timeline) {
    if (h.passage == first_passage) components.push_back(h.component);
  }
  const std::vector<std::string> expected{
      "host_stack", "bridge",      "switch_egress",  "tunnel_send",
      "nat",        "relay",       "nat",            "tunnel_recv",
      "switch_ingress", "bridge",  "delivery"};
  EXPECT_EQ(components, expected);

  bool has_leg_to_relay = false;
  bool has_leg_from_relay = false;
  for (const tools::FlowPairLatency& p : request->pairs) {
    if (p.to == "relay") has_leg_to_relay = true;
    if (p.from == "relay") has_leg_from_relay = true;
  }
  EXPECT_TRUE(has_leg_to_relay);
  EXPECT_TRUE(has_leg_from_relay);
}

TEST(FlowTrace, ChaosRelayCrashAttributesDropsToTheRelayHop) {
  FlowWorld env{{.use_stun = true}};
  env.connect_pair();
  ASSERT_EQ(env.a1->agent().link_kind(env.b1->agent().id()),
            HostAgent::LinkKind::kRelayed);
  env.sim.flows().set_sample_shift(0);

  // Prove the relayed path first (this also resolves virtual-plane ARP,
  // so the post-crash pings reach the relay as stamped encap frames).
  stack::IcmpLayer icmp{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  ASSERT_EQ(env.ping_burst(icmp, 1), 1) << "relayed path must work pre-fault";

  // Chaos-inject the relay crash, then keep pinging into the dead port
  // before failover detection (3 missed 5 s refresh acks) can kick in.
  chaos::ChaosController controller{env.sim};
  controller.add_relay("relay0", *env.relays[0]);
  chaos::FaultPlan plan;
  plan.relay_crash(env.sim.now() + milliseconds(100), "relay0");
  controller.schedule(plan);
  env.sim.run_for(milliseconds(200));
  ASSERT_TRUE(env.relays[0]->down());

  const int replies = env.ping_burst(icmp, 4);
  EXPECT_EQ(replies, 0);
  env.sim.run_for(seconds(1));

  const auto flows = env.flows();
  const auto ranked = tools::drop_attribution(flows);
  ASSERT_FALSE(ranked.empty());
  // Every sampled drop pinpoints the crashed relay's exact endpoint.
  const std::string site = "relay/" +
                           env.relays[0]->endpoint().to_string() +
                           ": relay_down";
  EXPECT_EQ(ranked[0].first, site);
  EXPECT_GE(ranked[0].second, 4u);
}

TEST(FlowTrace, NatFilterDropAttributesToTheExactGateway) {
  // Port-restricted cone pair: punchable, so the pair holds a direct
  // link. Flushing A's NAT bindings rebinds A's tunnel onto a fresh
  // public port; B's port-restricted filter has never been contacted by
  // that endpoint, so B's gateway drops the pings as nat_filtered.
  FlowWorld env{{.type_a = NatType::kPortRestrictedCone,
                 .type_b = NatType::kPortRestrictedCone,
                 .use_stun = true}};
  env.connect_pair();
  ASSERT_EQ(env.a1->agent().link_kind(env.b1->agent().id()),
            HostAgent::LinkKind::kDirect);
  env.sim.flows().set_sample_shift(0);

  stack::IcmpLayer icmp{env.a1->stack()};
  stack::IcmpLayer icmp_b{env.b1->stack()};
  ASSERT_EQ(env.ping_burst(icmp, 1), 1) << "direct path must work pre-fault";

  env.site_a->gateway->flush_bindings();
  env.ping_burst(icmp, 4);

  const std::vector<tools::FlowSummary> flows = env.flows();
  const tools::FlowSummary* request = nullptr;
  for (const tools::FlowSummary& f : flows) {
    if (f.src == "10.10.0.1" && f.dst == "10.10.0.2") request = &f;
  }
  ASSERT_NE(request, nullptr);
  ASSERT_TRUE(request->has_drop_site);
  EXPECT_EQ(request->drop_component, "nat");
  EXPECT_EQ(request->drop_instance, "B-gw");
  EXPECT_EQ(request->drop_reason, "nat_filtered");
  EXPECT_GE(request->drop_count, 1u);
}

}  // namespace
}  // namespace wav
