// Private groups under churn: the multi-tenant isolation bench.
//
// Two rendezvous shards (CAN-joined, ShardPing liveness) each co-host a
// TURN-style relay and a vpg::GroupAuthority. Twenty-one full WAVNet
// hosts deploy the data plane; h1..h10+h21 form private group A and
// h11..h20+h21 form group B, so h21 is a dual-membership tenant whose
// one physical tunnel set carries two isolated L2 domains. A bystander
// fleet of bare agents churns continuously through the same shards
// (arrivals, departures, crashes from seeded distributions) while a
// FaultPlan kills shard rv1 — and with it its co-hosted authority —
// mid-run and restarts both a minute later.
//
// Mid-outage, the group owners revoke one member each (h10 from A, h20
// from B): the op must ring-walk to the surviving authority, survivors
// adopt the bumped epoch immediately (push), and the revoked host —
// deliberately excluded from the push — keeps sending until its next
// sync, landing typed group_isolation drops at every survivor's ingress
// gate. The revocation invariant ("no frame delivered across a revoked
// membership after epoch convergence") is checked by the chaos
// InvariantChecker via GroupMember::invariant_violations().
//
// Continuous ping probes assert the isolation semantics the whole run:
// intra-group pings (including both of h21's domains) must flow,
// cross-group pings must never complete, and the revoked members' blind
// window must produce group_isolation drops. The process exit code is
// the final violation count; a fixed --seed reproduces byte-identical
// --metrics-out/--series-out/--groups-out exports (cmp'd in CI, gated
// by metrics_diff against the committed baseline).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos_controller.hpp"
#include "chaos/fault_plan.hpp"
#include "chaos/invariants.hpp"
#include "churn/churn.hpp"
#include "common/table.hpp"
#include "fabric/wan.hpp"
#include "harness.hpp"
#include "obs/timeseries.hpp"
#include "stack/icmp.hpp"
#include "vpg/group_authority.hpp"
#include "vpg/group_member.hpp"
#include "wavnet/host.hpp"

namespace {

using namespace wav;

constexpr std::size_t kShards = 2;
constexpr std::uint16_t kRelayPort = 5300;
constexpr std::uint16_t kAuthorityPort = 5400;
constexpr std::size_t kGroupHosts = 21;  // h1..h21; h21 is in both groups
constexpr std::size_t kChurnHosts = 24;  // bystander fleet churning the shards
constexpr vpg::GroupId kGroupA = 1;
constexpr vpg::GroupId kGroupB = 2;

// Timeline (simulated seconds). The revocations land while rv1 and its
// authority are dead, forcing the ops onto the survivor.
constexpr Duration kMembershipAt = seconds(20);
constexpr Duration kTrafficStart = seconds(40);
constexpr Duration kShardCrashAt = seconds(180);
constexpr Duration kRevokeAt = seconds(200);
constexpr Duration kShardRestartAt = seconds(240);
constexpr Duration kChurnStop = seconds(300);
// Long quiesce: the churn survivors' repunch/backoff tail and the
// rendezvous pending-connect GC (30 s sweep cadence) must fully drain
// before the invariant check.
constexpr Duration kEnd = seconds(480);

struct PingProbe {
  const char* label;
  std::size_t src;  // 0-based host index
  std::size_t dst;
  bool expect_flow;  // false = isolation must hold (zero replies)
  std::uint16_t id{0};
  std::uint64_t sent{0};
  std::uint64_t replies{0};
};

struct RunResult {
  std::size_t violations{0};
  std::vector<PingProbe> probes;
  std::uint64_t ingress_drops{0};
  std::uint64_t egress_drops{0};
  double handshake_p95_ms{0};
  double teardown_p95_ms{0};
};

RunResult run(std::uint64_t seed) {
  RunResult result;
  sim::Simulation sim{seed};
  sim.tracer().set_enabled(!benchx::obs_options().trace_out.empty());
  sim.flows().set_sample_shift(0);  // every flow sampled: typed drops visible
  fabric::Network network{sim};
  fabric::Wan wan{network};

  // --- rendezvous fleet: two shards, each with a relay + authority ---
  std::vector<fabric::HostNode*> rv_nodes;
  for (std::size_t s = 0; s < kShards; ++s) {
    rv_nodes.push_back(&wan.add_public_host("rv" + std::to_string(s)));
  }
  std::vector<net::Endpoint> relay_eps, authority_eps;
  for (std::size_t s = 0; s < kShards; ++s) {
    relay_eps.push_back({rv_nodes[s]->primary_address(), kRelayPort});
    authority_eps.push_back({rv_nodes[s]->primary_address(), kAuthorityPort});
  }
  std::vector<std::unique_ptr<overlay::RendezvousServer>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    overlay::RendezvousServer::Config cfg;
    cfg.relays = relay_eps;
    shards.push_back(std::make_unique<overlay::RendezvousServer>(*rv_nodes[s], cfg));
  }
  std::vector<net::Endpoint> shard_eps;
  for (const auto& shard : shards) shard_eps.push_back(shard->host_endpoint());
  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<net::Endpoint> peers;
    for (std::size_t t = 0; t < kShards; ++t) {
      if (t != s) peers.push_back(shard_eps[t]);
    }
    shards[s]->set_shard_peers(std::move(peers));
  }
  std::vector<std::unique_ptr<relay::RelayServer>> relays;
  for (std::size_t s = 0; s < kShards; ++s) {
    relay::RelayServer::Config cfg;
    cfg.port = kRelayPort;
    cfg.max_channels = 256;
    relays.push_back(std::make_unique<relay::RelayServer>(shards[s]->udp(), cfg));
  }
  vpg::GroupLog group_log;
  std::vector<std::unique_ptr<vpg::GroupAuthority>> authorities;
  for (std::size_t s = 0; s < kShards; ++s) {
    vpg::GroupAuthority::Config cfg;
    cfg.port = kAuthorityPort;
    cfg.metrics_instance = "ga" + std::to_string(s);
    for (std::size_t t = 0; t < kShards; ++t) {
      if (t != s) cfg.peers.push_back(authority_eps[t]);
    }
    authorities.push_back(std::make_unique<vpg::GroupAuthority>(*shards[s], cfg));
    authorities.back()->set_log(&group_log);
  }
  shards[0]->bootstrap();
  for (std::size_t s = 1; s < kShards; ++s) shards[s]->join(shards[0]->can_endpoint());
  sim.run_for(seconds(3));

  // --- tenant hosts: full data plane, group-scoped switches ---
  std::vector<std::unique_ptr<wavnet::WavnetHost>> hosts;
  std::vector<std::unique_ptr<vpg::GroupMember>> members;
  std::vector<std::unique_ptr<stack::IcmpLayer>> icmp;
  for (std::size_t i = 1; i <= kGroupHosts; ++i) {
    fabric::HostNode& node = wan.add_public_host("h" + std::to_string(i));
    wavnet::WavnetHost::Config cfg;
    cfg.agent.name = "h" + std::to_string(i);
    cfg.agent.rendezvous_shards = shard_eps;
    cfg.virtual_ip =
        net::Ipv4Address::from_octets(10, 10, 0, static_cast<std::uint8_t>(10 + i));
    hosts.push_back(std::make_unique<wavnet::WavnetHost>(node, cfg));
    vpg::GroupMember::Config mcfg;
    mcfg.authorities = authority_eps;
    mcfg.metrics_instance = cfg.agent.name;
    members.push_back(
        std::make_unique<vpg::GroupMember>(hosts.back()->agent(), mcfg));
    members.back()->set_log(&group_log);
    wavnet::WavSwitch* sw = &hosts.back()->wav_switch();
    sw->attach_group_gate(members.back().get());
    members.back()->on_gate_closed(
        [sw](vpg::GroupId g, std::uint64_t peer) { sw->purge_group_peer(g, peer); });
    icmp.push_back(std::make_unique<stack::IcmpLayer>(hosts.back()->stack()));
  }
  for (auto& host : hosts) host->start();
  sim.run_for(seconds(5));

  // Tunnels mesh within each tenant (the deployment knows its members);
  // h21 (index 20) joins both meshes.
  const auto in_a = [](std::size_t i) { return i <= 9 || i == 20; };
  const auto in_b = [](std::size_t i) { return (i >= 10 && i <= 19) || i == 20; };
  for (std::size_t i = 0; i < kGroupHosts; ++i) {
    for (std::size_t j = i + 1; j < kGroupHosts; ++j) {
      if ((in_a(i) && in_a(j)) || (in_b(i) && in_b(j))) {
        hosts[i]->connect(hosts[j]->agent().self_info());
      }
    }
  }
  sim.run_for(seconds(10));

  // --- bystander fleet churning through the same shards ---
  churn::ChurnPlan plan;
  plan.nat_mix = churn::NatMix::trautwein_global();
  churn::ChurnEngine engine{sim, plan};
  std::vector<std::unique_ptr<overlay::HostAgent>> fleet;
  for (std::size_t i = 0; i < kChurnHosts; ++i) {
    fabric::HostNode& node = wan.add_public_host("c" + std::to_string(i + 1));
    overlay::HostAgent::Config cfg;
    cfg.name = "c" + std::to_string(i + 1);
    cfg.rendezvous_shards = shard_eps;
    cfg.nat_type = plan.nat_mix.sample(sim.rng());
    cfg.attributes = {sim.rng().uniform(), sim.rng().uniform()};
    cfg.metrics_instance = "fleet";
    cfg.repunch_give_up = 4;
    fleet.push_back(std::make_unique<overlay::HostAgent>(node, cfg));
    engine.add_host(*fleet.back());
  }

  // --- invariants + faults ---
  chaos::InvariantChecker checker;
  engine.attach(checker);
  checker.expect_can_coverage(2);
  for (auto& shard : shards) checker.add_rendezvous(*shard);
  for (auto& relay_srv : relays) checker.add_relay(*relay_srv);
  for (auto& host : hosts) checker.add_agent(host->agent());
  for (auto& member : members) checker.add_group_member(*member);

  chaos::ChaosController controller{sim};
  controller.set_wan(wan);
  for (std::size_t s = 0; s < kShards; ++s) {
    controller.add_rendezvous("rv" + std::to_string(s), *shards[s],
                              shards[0]->can_endpoint());
  }
  chaos::FaultPlan faults;
  faults.rendezvous_crash(TimePoint{kShardCrashAt}, "rv1")
      .rendezvous_restart(TimePoint{kShardRestartAt}, "rv1");
  controller.schedule(faults);
  // The co-hosted authority dies and returns with its shard; recovery
  // rides the ShardPing replication payload from the survivor.
  const auto at = [&sim](Duration t) { return t - sim.now().since_start; };
  sim.schedule_after(at(kShardCrashAt), [&] { authorities[1]->crash(); });
  sim.schedule_after(at(kShardRestartAt), [&] { authorities[1]->restart(); });

  // --- membership: creates, invites, joins; revocations mid-outage ---
  sim.schedule_after(at(kMembershipAt), [&] {
    members[0]->create_group(kGroupA);
    members[10]->create_group(kGroupB);
  });
  sim.schedule_after(at(kMembershipAt + seconds(2)), [&] {
    for (std::size_t i = 1; i < kGroupHosts; ++i) {
      if (in_a(i)) members[0]->invite(kGroupA, members[i]->id());
      if (in_b(i) && i != 10) members[10]->invite(kGroupB, members[i]->id());
    }
  });
  sim.schedule_after(at(kMembershipAt + seconds(4)), [&] {
    for (std::size_t i = 1; i < kGroupHosts; ++i) {
      if (in_a(i)) members[i]->join(kGroupA);
      if (in_b(i) && i != 10) members[i]->join(kGroupB);
    }
  });
  sim.schedule_after(at(kRevokeAt), [&] {
    members[0]->revoke(kGroupA, members[9]->id());    // h10 out of A
    members[10]->revoke(kGroupB, members[19]->id());  // h20 out of B
  });

  // --- continuous ping probes (constant period: deterministic) ---
  std::vector<PingProbe> probes = {
      {"A: h2 -> h5", 1, 4, true},
      {"B: h12 -> h15", 11, 14, true},
      {"dual: h21 -> h3 (A)", 20, 2, true},
      {"dual: h21 -> h13 (B)", 20, 12, true},
      {"cross: h1 -> h11", 0, 10, false},
      {"revoked: h10 -> h2", 9, 1, true},   // flows until the revocation
      {"revoked: h20 -> h12", 19, 11, true},
  };
  for (PingProbe& probe : probes) {
    probe.id = icmp[probe.src]->allocate_id();
    icmp[probe.src]->on_reply(
        probe.id, [&probe](net::Ipv4Address, const net::IcmpMessage&) {
          ++probe.replies;
        });
  }
  std::uint16_t seq = 0;
  sim::PeriodicTimer ping_timer{sim, seconds(2), [&] {
    ++seq;
    for (PingProbe& probe : probes) {
      const net::Ipv4Address dst = hosts[probe.dst]->virtual_ip();
      icmp[probe.src]->send_echo_request(dst, probe.id, seq, 56);
      ++probe.sent;
    }
  }};
  sim.schedule_after(at(kTrafficStart), [&ping_timer] { ping_timer.start(); });

  // --- telemetry: 1 s sampling + violation mirror ---
  obs::MetricsRegistry& reg = sim.metrics();
  obs::TimeSeriesSampler sampler{reg, [&sim] { return sim.now(); }};
  sim::PeriodicTimer sample_timer{sim, seconds(1), [&] { sampler.sample(); }};
  obs::Gauge& g_violations = reg.gauge("chaos.invariant_violations");
  sim::PeriodicTimer violation_timer{sim, seconds(10), [&] {
    g_violations.set(static_cast<double>(checker.violations().size()));
  }};
  sample_timer.start();
  violation_timer.start();

  engine.start();
  sim.schedule_after(at(kChurnStop), [&engine] { engine.stop(); });
  sim.run_until(TimePoint{kEnd});

  // --- verdicts ---
  std::vector<std::string> violations = checker.violations();
  // The revoked probes must have flowed before the cut and stopped after:
  // sent every 2 s from 40 s, revoked at 200 s => ~80 replies, far fewer
  // than the ~220 an unrevoked pair accumulates by 480 s.
  for (const PingProbe& probe : probes) {
    if (probe.expect_flow && probe.replies < 40) {
      violations.push_back(std::string(probe.label) + " delivered only " +
                           std::to_string(probe.replies) + " replies");
    }
    if (!probe.expect_flow && probe.replies != 0) {
      violations.push_back(std::string(probe.label) + " leaked " +
                           std::to_string(probe.replies) +
                           " replies across groups");
    }
  }
  for (const PingProbe& probe : probes) {
    if (std::string(probe.label).rfind("revoked", 0) == 0 && probe.replies > 120) {
      violations.push_back(std::string(probe.label) +
                           " kept flowing after the revocation (" +
                           std::to_string(probe.replies) + " replies)");
    }
  }
  result.ingress_drops = reg.counter_total("switch.group_ingress_dropped");
  result.egress_drops = reg.counter_total("switch.group_egress_dropped");
  if (result.ingress_drops == 0) {
    violations.push_back("no typed group_isolation ingress drops recorded");
  }

  g_violations.set(static_cast<double>(violations.size()));
  reg.gauge("vpg.final_violations", "vpg")
      .set(static_cast<double>(violations.size()));
  sampler.sample();

  for (const std::string& v : violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
  result.violations = violations.size();
  result.probes = probes;
  if (const auto* h = reg.find_histogram("vpg.handshake_ms", "h1")) {
    result.handshake_p95_ms = h->percentile(95);
  }
  if (const auto* h = reg.find_histogram("vpg.revoke_teardown_ms", "h2")) {
    result.teardown_p95_ms = h->percentile(95);
  }

  benchx::append_metrics_line(sim, "private-groups", seed);
  benchx::append_profile_line("private-groups", seed);
  const auto& obs = benchx::obs_options();
  if (!obs.series_out.empty()) sampler.write_jsonl(obs.series_out);
  if (!obs.trace_out.empty()) sim.tracer().write_chrome_json(obs.trace_out);
  if (!obs.groups_out.empty()) {
    group_log.write_jsonl(benchx::numbered_path(obs.groups_out, 1));
  }
  if (!obs.flows_out.empty()) sim.flows().write_flows_jsonl(obs.flows_out);
  if (!obs.hops_out.empty()) sim.flows().write_hops_jsonl(obs.hops_out);
  return result;
}

std::uint64_t parse_seed(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) return std::strtoull(argv[i + 1], nullptr, 10);
    if (arg.rfind("--seed=", 0) == 0) return std::strtoull(arg.c_str() + 7, nullptr, 10);
  }
  return 2026;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::obs_init(argc, argv);
  const std::uint64_t seed = parse_seed(argc, argv);
  benchx::banner(
      "Private groups — membership-managed isolation under churn",
      "2-shard fleet, co-hosted relays + group authorities; tenants A=h1..h10+h21 "
      "B=h11..h20+h21; bystander churn; rv1+authority killed at 180 s, restarted "
      "at 240 s; h10/h20 revoked at 200 s (mid-outage); invariants checked at "
      "480 s (seed " + std::to_string(seed) + ").");

  const RunResult r = run(seed);

  TextTable table{"Ping probes across the isolation boundaries"};
  table.header({"Probe", "Sent", "Replies", "Expectation"});
  for (const PingProbe& p : r.probes) {
    table.row({p.label, std::to_string(p.sent), std::to_string(p.replies),
               p.expect_flow ? "flows" : "isolated"});
  }
  table.print();

  std::printf(
      "\ngroup_isolation drops: ingress=%llu egress=%llu | handshake p95 %.1f ms | "
      "revoke teardown p95 %.1f ms | violations=%zu\n",
      static_cast<unsigned long long>(r.ingress_drops),
      static_cast<unsigned long long>(r.egress_drops), r.handshake_p95_ms,
      r.teardown_p95_ms, r.violations);
  std::printf(
      "Shape check: both tenants converge their membership, h21 exchanges frames\n"
      "in each of its two L2 domains over one tunnel set, cross-group traffic\n"
      "never completes, and the revoked hosts' blind-window frames die at the\n"
      "survivors' ingress gates with the typed group_isolation reason.\n");
  return r.violations > 125 ? 125 : static_cast<int>(r.violations);
}
